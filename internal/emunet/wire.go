// Package emunet is the overlay measurement plane: an emulated IP network
// that runs over real UDP sockets. A network core forwards probe datagrams
// along configured topology paths while applying per-link loss processes;
// beacon agents send the probes; sink agents count arrivals; a TCP collector
// aggregates per-snapshot reports for the inference server. TTL-limited
// probes and ICMP-style replies reproduce traceroute topology discovery,
// including non-responding routers and multi-interface aliases (Section 7.1
// of the paper).
package emunet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Packet types on the emulated wire.
const (
	TypeProbe      = 1 // beacon → core → sink measurement probe
	TypeTrace      = 2 // beacon → core TTL-limited discovery probe
	TypeTraceReply = 3 // core → beacon "TTL exceeded" / "port unreachable"
	TypeFlush      = 4 // beacon → core barrier, echoed back once processed
	TypeEnd        = 5 // beacon → core → sink end of a path's probes, never dropped
)

// Magic and Version identify the wire format.
const (
	Magic   = 0x4C // 'L'
	Version = 1
)

// HeaderLen is the fixed probe header length in bytes.
const HeaderLen = 24

// Header is the fixed-size header of every emunet datagram. Payload (if
// any) follows the header; measurement probes carry a 12-byte pad so the
// 40-byte on-the-wire size in the paper (20 IP + 8 UDP + 12 payload) is
// mirrored.
type Header struct {
	Type     uint8
	TTL      uint8
	PathID   uint32
	Snapshot uint32
	Seq      uint32
	// Hop fields are used by TypeTraceReply: the replying hop index and the
	// interface address it answered with.
	HopIndex  uint16
	Interface uint32
}

// ErrShortPacket is returned when a datagram is too short to hold a header.
var ErrShortPacket = errors.New("emunet: short packet")

// ErrBadMagic is returned for datagrams that are not emunet packets.
var ErrBadMagic = errors.New("emunet: bad magic or version")

// Marshal encodes the header into a fresh slice of HeaderLen bytes.
func (h *Header) Marshal() []byte {
	b := make([]byte, HeaderLen)
	b[0] = Magic
	b[1] = Version
	b[2] = h.Type
	b[3] = h.TTL
	binary.BigEndian.PutUint32(b[4:], h.PathID)
	binary.BigEndian.PutUint32(b[8:], h.Snapshot)
	binary.BigEndian.PutUint32(b[12:], h.Seq)
	binary.BigEndian.PutUint16(b[16:], h.HopIndex)
	binary.BigEndian.PutUint32(b[18:], h.Interface)
	// b[22:24] reserved.
	return b
}

// Unmarshal decodes a datagram into h without retaining the buffer
// (gopacket-style zero-copy decode into a caller-owned struct).
func (h *Header) Unmarshal(b []byte) error {
	if len(b) < HeaderLen {
		return fmt.Errorf("%w: %d bytes", ErrShortPacket, len(b))
	}
	if b[0] != Magic || b[1] != Version {
		return ErrBadMagic
	}
	h.Type = b[2]
	h.TTL = b[3]
	h.PathID = binary.BigEndian.Uint32(b[4:])
	h.Snapshot = binary.BigEndian.Uint32(b[8:])
	h.Seq = binary.BigEndian.Uint32(b[12:])
	h.HopIndex = binary.BigEndian.Uint16(b[16:])
	h.Interface = binary.BigEndian.Uint32(b[18:])
	return nil
}

// Report is one beacon/sink measurement record, shipped to the collector as
// a JSON line over TCP (one object per line, newline-delimited).
//
// A path's snapshot is measured by two halves, which may arrive in one
// report or in two. A report with Sent > 0 carries the beacon half; a
// report with Sent == 0, or with Received > 0, carries the sink half. So a
// beacon reports {Sent: n}, a sink {Received: k} — a sink that saw none of
// a path's probes reports {Received: 0}, which it can because the beacon's
// TypeEnd marker tells it the path's probes are over — and a full report
// with k > 0 is {Sent: n, Received: k}. A full report of total loss must
// send its sink half on its own: {Sent: n, Received: 0} is the beacon half
// alone.
type Report struct {
	PathID   int `json:"path"`
	Snapshot int `json:"snapshot"`
	Sent     int `json:"sent"`
	Received int `json:"received"`
}
