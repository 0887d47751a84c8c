package emunet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"
)

// Sink receives surviving probes on a UDP socket and counts arrivals per
// (path, snapshot).
type Sink struct {
	conn *net.UDPConn
	mu   sync.Mutex
	recv map[[2]int]int // (path, snapshot) -> count
	done chan struct{}
	wg   sync.WaitGroup
}

// NewSink opens a loopback sink socket on an ephemeral port.
func NewSink() (*Sink, error) { return NewSinkAddr("127.0.0.1:0") }

// NewSinkAddr opens a sink socket on an explicit address (fixed ports are
// needed when beacons, sinks and the core run as separate processes).
func NewSinkAddr(bind string) (*Sink, error) {
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("emunet: sink bind %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("emunet: sink listen: %w", err)
	}
	// Surviving probes arrive in bursts of up to a whole snapshot; size the
	// socket buffer so counting keeps up (best effort, clamped to rmem_max).
	_ = conn.SetReadBuffer(4 << 20)
	s := &Sink{conn: conn, recv: make(map[[2]int]int), done: make(chan struct{})}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the sink's UDP address, to be installed in PathSpec.Sink.
func (s *Sink) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

func (s *Sink) serve() {
	defer s.wg.Done()
	buf := make([]byte, 2048)
	var h Header
	for {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		if h.Unmarshal(buf[:n]) != nil {
			continue
		}
		key := [2]int{int(h.PathID), int(h.Snapshot)}
		s.mu.Lock()
		switch h.Type {
		case TypeProbe:
			s.recv[key]++
		case TypeEnd:
			// The path's probes are over: a path that lost every probe
			// gets a zero counter, so Counts reports its sink half.
			if _, ok := s.recv[key]; !ok {
				s.recv[key] = 0
			}
		}
		s.mu.Unlock()
	}
}

// Received returns the number of probes seen for (path, snapshot).
func (s *Sink) Received(path, snapshot int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recv[[2]int{path, snapshot}]
}

// Counts returns a copy of every (path, snapshot) counter, for periodic
// reporting by standalone sink agents. A path whose end marker arrived has
// a counter even if none of its probes did.
func (s *Sink) Counts() map[[2]int]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[[2]int]int, len(s.recv))
	for k, v := range s.recv {
		out[k] = v
	}
	return out
}

// Report sends the sink half of every (path, snapshot) counter to the
// collector — the timer-driven report of a standalone sink agent.
func (s *Sink) Report(rc *ReportConn) error {
	for key, n := range s.Counts() {
		if err := rc.Send(Report{PathID: key[0], Snapshot: key[1], Received: n}); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the sink.
func (s *Sink) Close() error {
	close(s.done)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

// Beacon sends measurement probes for a set of paths through the core.
type Beacon struct {
	conn *net.UDPConn
	core *net.UDPAddr
}

// NewBeacon opens a probing socket aimed at the core.
func NewBeacon(core *net.UDPAddr) (*Beacon, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("emunet: beacon listen: %w", err)
	}
	return &Beacon{conn: conn, core: core}, nil
}

// ProbePath sends S probes for the path in one snapshot, then a TypeEnd
// marker that the core hands to the sink without loss, so the sink reports
// the path even when it received none of the probes. The inter-probe gap
// throttles the send rate (the paper uses 10 ms probes at 100 KB/s per
// host; tests pass 0 for full speed). It returns the number of probes
// handed to the socket.
func (b *Beacon) ProbePath(pathID, snapshot, probes int, gap time.Duration) (int, error) {
	payload := make([]byte, HeaderLen+12) // 12-byte pad to mirror 40-byte probes
	sent := 0
	for seq := 0; seq < probes; seq++ {
		h := Header{Type: TypeProbe, PathID: uint32(pathID), Snapshot: uint32(snapshot), Seq: uint32(seq)}
		copy(payload, h.Marshal())
		if _, err := b.conn.WriteToUDP(payload, b.core); err != nil {
			return sent, fmt.Errorf("emunet: probe path %d seq %d: %w", pathID, seq, err)
		}
		sent++
		if gap > 0 {
			time.Sleep(gap)
		}
	}
	end := Header{Type: TypeEnd, PathID: uint32(pathID), Snapshot: uint32(snapshot)}
	if _, err := b.conn.WriteToUDP(end.Marshal(), b.core); err != nil {
		return sent, fmt.Errorf("emunet: end marker for path %d: %w", pathID, err)
	}
	return sent, nil
}

// Flush sends a barrier datagram to the core and waits for its echo: when
// it returns, every probe this beacon sent before the barrier has been
// processed by the core (loopback sockets deliver in arrival order).
func (b *Beacon) Flush(timeout time.Duration) error {
	seq := uint32(time.Now().UnixNano())
	h := Header{Type: TypeFlush, Seq: seq}
	buf := make([]byte, 2048)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if _, err := b.conn.WriteToUDP(h.Marshal(), b.core); err != nil {
			return fmt.Errorf("emunet: flush: %w", err)
		}
		if err := b.conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond)); err != nil {
			return err
		}
		for {
			n, _, err := b.conn.ReadFromUDP(buf)
			if err != nil {
				break // retry the barrier
			}
			var reply Header
			if reply.Unmarshal(buf[:n]) == nil && reply.Type == TypeFlush && reply.Seq == seq {
				return nil
			}
		}
	}
	return fmt.Errorf("emunet: flush timed out after %v", timeout)
}

// Conn exposes the underlying socket (used by the tracer).
func (b *Beacon) Conn() *net.UDPConn { return b.conn }

// Close releases the beacon socket.
func (b *Beacon) Close() error { return b.conn.Close() }

// ErrCollectorClosed reports that a wait on a Collector ended because the
// collector was shut down (or its listener died), not because the caller's
// context expired — the signal a reconnecting consumer keys on.
var ErrCollectorClosed = errors.New("emunet: collector closed")

// Collector is the central server: it accepts newline-delimited JSON
// reports over TCP and assembles them into per-snapshot received counts.
type Collector struct {
	ln        net.Listener
	mu        sync.Mutex
	data      map[[2]int]pathReport // (path, snapshot) -> merged halves
	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
}

// pathReport merges the reports of one (path, snapshot). It records which
// halves have arrived, not just their values: a zero received count read
// before the sink reported would be a fabricated total loss.
type pathReport struct {
	sent, received         int
	haveSent, haveReceived bool
}

// merge folds one report in (see Report for which halves it carries).
// Values merge by max, so replayed reports are idempotent.
func (pr *pathReport) merge(r Report) {
	if r.Sent > 0 {
		pr.haveSent = true
		pr.sent = max(pr.sent, r.Sent)
	}
	if r.Sent == 0 || r.Received > 0 {
		pr.haveReceived = true
		pr.received = max(pr.received, r.Received)
	}
}

// NewCollector starts a TCP collector on loopback.
func NewCollector() (*Collector, error) { return NewCollectorAddr("127.0.0.1:0") }

// NewCollectorAddr starts a TCP collector on an explicit address.
func NewCollectorAddr(addr string) (*Collector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("emunet: collector listen %q: %w", addr, err)
	}
	c := &Collector{ln: ln, data: make(map[[2]int]pathReport), done: make(chan struct{})}
	c.wg.Add(1)
	go c.accept()
	return c, nil
}

// Addr returns the collector's TCP address.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

func (c *Collector) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.done:
				return
			default:
				continue
			}
		}
		c.wg.Add(1)
		go c.handle(conn)
	}
}

func (c *Collector) handle(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		var r Report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			continue // tolerate malformed lines from misbehaving agents
		}
		c.mu.Lock()
		key := [2]int{r.PathID, r.Snapshot}
		cur := c.data[key]
		cur.merge(r)
		c.data[key] = cur
		c.mu.Unlock()
	}
}

// Snapshot returns the received fractions for all paths of one snapshot,
// or ok=false if any path still lacks its beacon or its sink report.
func (c *Collector) Snapshot(snapshot, numPaths int) (frac []float64, ok bool) {
	frac, complete, _ := c.read(snapshot, numPaths)
	if !complete {
		return nil, false
	}
	return frac, true
}

// read returns the fractions of one snapshot with NaN for every path that
// lacks a half, whether every path has both halves, and whether every path
// has at least its beacon half.
func (c *Collector) read(snapshot, numPaths int) (frac []float64, complete, sent bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frac = make([]float64, numPaths)
	complete, sent = true, true
	for p := range frac {
		r := c.data[[2]int{p, snapshot}]
		if !r.haveSent || !r.haveReceived {
			frac[p] = math.NaN()
			complete = false
			sent = sent && r.haveSent
			continue
		}
		frac[p] = float64(r.received) / float64(r.sent)
	}
	return frac, complete, sent
}

// WaitSnapshot polls until the snapshot is complete or the timeout expires.
func (c *Collector) WaitSnapshot(snapshot, numPaths int, timeout time.Duration) ([]float64, error) {
	deadline := time.Now().Add(timeout)
	for {
		if frac, ok := c.Snapshot(snapshot, numPaths); ok {
			return frac, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("emunet: snapshot %d incomplete after %v", snapshot, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// AwaitSnapshot is the report-assembly step shared by the standalone
// collector command and the live serve.CollectorSource. It blocks until
// every path of the snapshot has its beacon report (beacons report
// immediately), waits the settle window so the sinks' timer-driven received
// reports merge in, and then waits for the sink reports still missing.
//
// The context bounds the wait. Cancellation, a closed collector, and a
// deadline that passes before every beacon reported return an error. A
// deadline that passes while only sink reports are missing returns the
// snapshot with NaN — missing — for those paths, never a zero: a path whose
// sink has not reported is unmeasured, not totally lossy, and
// lia.SanitizeSource quarantines the snapshot. A path that lost every probe
// is not such a path: the beacon's end marker gives its sink a zero counter
// to report, so it reads as total loss within the settle window.
// Missing paths come from a dead sink or a lost end marker.
func (c *Collector) AwaitSnapshot(ctx context.Context, snapshot, numPaths int, settle time.Duration) ([]float64, error) {
	wait := func(stage string, d time.Duration) error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("emunet: snapshot %d %s: %w", snapshot, stage, ctx.Err())
		case <-c.done:
			return fmt.Errorf("emunet: snapshot %d %s: %w", snapshot, stage, ErrCollectorClosed)
		case <-time.After(d):
			return nil
		}
	}
	for {
		if _, _, sent := c.read(snapshot, numPaths); sent {
			break
		}
		if err := wait("incomplete", 2*time.Millisecond); err != nil {
			return nil, err
		}
	}
	// A deadline inside the settle window ends it: the read below then
	// returns what arrived.
	if settle > 0 {
		if err := wait("settle", settle); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
	}
	for {
		frac, complete, _ := c.read(snapshot, numPaths)
		if complete {
			return frac, nil
		}
		if err := wait("sink reports", 2*time.Millisecond); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return frac, nil
			}
			return nil, err
		}
	}
}

// Done is closed when the collector shuts down — the hook waiters use to
// fail promptly (see ErrCollectorClosed) instead of polling a dead
// listener until their own deadline.
func (c *Collector) Done() <-chan struct{} { return c.done }

// Close stops the collector. Safe to call more than once.
func (c *Collector) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		err = c.ln.Close()
		c.wg.Wait()
	})
	return err
}

// ReportConn is an agent-side connection to the collector.
type ReportConn struct {
	conn net.Conn
	enc  *json.Encoder
}

// DialCollector connects an agent to the central server.
func DialCollector(addr string) (*ReportConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("emunet: dial collector %s: %w", addr, err)
	}
	return &ReportConn{conn: conn, enc: json.NewEncoder(conn)}, nil
}

// Send ships one report line.
func (r *ReportConn) Send(rep Report) error {
	if err := r.enc.Encode(rep); err != nil {
		return fmt.Errorf("emunet: send report: %w", err)
	}
	return nil
}

// Close closes the connection.
func (r *ReportConn) Close() error { return r.conn.Close() }
