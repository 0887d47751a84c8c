package emunet

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"

	"lia/internal/lossmodel"
)

// RouterInfo models one emulated router for topology discovery: routers can
// own several interface addresses (16% of PlanetLab routers did) and may
// silently drop TTL-exceeded replies (5–10% did).
type RouterInfo struct {
	ID         int
	Interfaces []uint32 // interface addresses the router may answer with
	Responds   bool
}

// PathSpec tells the core how to forward probes of one path: the sequence
// of physical link IDs to subject the probe to, the routers traversed, and
// the sink address to deliver surviving probes to.
type PathSpec struct {
	ID      int
	Links   []int // physical link IDs, traversal order
	Routers []int // router IDs after each link (for trace replies)
	Sink    *net.UDPAddr
}

// CoreConfig configures the emulated network core.
type CoreConfig struct {
	// Addr is the UDP address to bind (default "127.0.0.1:0").
	Addr string
	// Rates holds the current mean loss rate per physical link.
	Rates map[int]float64
	// Kind selects the loss process (Gilbert by default).
	Kind lossmodel.ProcessKind
	// PStayBad is the Gilbert burst parameter (default 0.35).
	PStayBad float64
	// Seed drives the loss processes.
	Seed uint64
	// Logf, if set, receives diagnostic messages.
	Logf func(format string, args ...interface{})
}

// Core is the emulated network: one UDP socket playing the role of the IP
// fabric between beacons and sinks.
type Core struct {
	conn    *net.UDPConn
	cfg     CoreConfig
	logf    func(string, ...interface{})
	rng     *rand.Rand
	mu      sync.Mutex
	paths   map[int]*PathSpec
	routers map[int]*RouterInfo
	procs   map[int]lossmodel.Process // per physical link
	dropped map[int]int64             // per link: probes dropped
	seen    map[int]int64             // per link: probes traversed
	done    chan struct{}
	wg      sync.WaitGroup
}

// NewCore starts an emulated network core on a UDP socket (loopback
// ephemeral by default).
func NewCore(cfg CoreConfig) (*Core, error) {
	bind := cfg.Addr
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("emunet: core bind %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("emunet: core listen: %w", err)
	}
	// Beacons probe at full speed in bursts of a whole snapshot, so the
	// default socket buffer (a few hundred datagrams) silently drops probes
	// before they ever reach a loss process. Best effort: the kernel clamps
	// the request to rmem_max.
	_ = conn.SetReadBuffer(4 << 20)
	if cfg.PStayBad == 0 {
		cfg.PStayBad = lossmodel.DefaultPStayBad
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	c := &Core{
		conn:    conn,
		cfg:     cfg,
		logf:    logf,
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0xC0DE)),
		paths:   make(map[int]*PathSpec),
		routers: make(map[int]*RouterInfo),
		procs:   make(map[int]lossmodel.Process),
		dropped: make(map[int]int64),
		seen:    make(map[int]int64),
		done:    make(chan struct{}),
	}
	for link, rate := range cfg.Rates {
		c.procs[link] = lossmodel.NewProcess(cfg.Kind, rate, cfg.PStayBad, c.rng)
	}
	c.wg.Add(1)
	go c.serve()
	return c, nil
}

// Addr returns the UDP address beacons should send probes to.
func (c *Core) Addr() *net.UDPAddr { return c.conn.LocalAddr().(*net.UDPAddr) }

// AddPath installs or replaces a path specification.
func (c *Core) AddPath(p PathSpec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := p
	cp.Links = append([]int(nil), p.Links...)
	cp.Routers = append([]int(nil), p.Routers...)
	c.paths[p.ID] = &cp
}

// AddRouter installs router metadata for traceroute emulation.
func (c *Core) AddRouter(r RouterInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := r
	cp.Interfaces = append([]uint32(nil), r.Interfaces...)
	c.routers[r.ID] = &cp
}

// SetRates replaces the per-link mean loss rates, rebuilding the loss
// processes (used between snapshots when congestion levels move).
func (c *Core) SetRates(rates map[int]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for link, rate := range rates {
		c.procs[link] = lossmodel.NewProcess(c.cfg.Kind, rate, c.cfg.PStayBad, c.rng)
	}
}

// LinkStats returns per-link (traversals, drops) counters accumulated since
// start — the core-side ground truth for validation.
func (c *Core) LinkStats() (seen, dropped map[int]int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen = make(map[int]int64, len(c.seen))
	dropped = make(map[int]int64, len(c.dropped))
	for k, v := range c.seen {
		seen[k] = v
	}
	for k, v := range c.dropped {
		dropped[k] = v
	}
	return seen, dropped
}

// Close shuts the core down and waits for its serving goroutine.
func (c *Core) Close() error {
	close(c.done)
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

func (c *Core) serve() {
	defer c.wg.Done()
	buf := make([]byte, 2048)
	var h Header
	for {
		n, from, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-c.done:
				return
			default:
				c.logf("emunet core: read: %v", err)
				continue
			}
		}
		if err := h.Unmarshal(buf[:n]); err != nil {
			c.logf("emunet core: drop malformed packet from %v: %v", from, err)
			continue
		}
		switch h.Type {
		case TypeProbe:
			c.handleProbe(&h)
		case TypeEnd:
			c.handleEnd(&h)
		case TypeTrace:
			c.handleTrace(&h, from)
		case TypeFlush:
			// Barrier: echo once every datagram queued before it has been
			// processed (the socket delivers in arrival order).
			reply := Header{Type: TypeFlush, PathID: h.PathID, Seq: h.Seq}
			if _, err := c.conn.WriteToUDP(reply.Marshal(), from); err != nil {
				c.logf("emunet core: flush reply to %v: %v", from, err)
			}
		default:
			c.logf("emunet core: unknown type %d", h.Type)
		}
	}
}

// handleProbe walks the probe through its path's loss processes and, if it
// survives every link, forwards it to the sink.
func (c *Core) handleProbe(h *Header) {
	c.mu.Lock()
	p, ok := c.paths[int(h.PathID)]
	if !ok {
		c.mu.Unlock()
		c.logf("emunet core: probe for unknown path %d", h.PathID)
		return
	}
	alive := true
	for _, link := range p.Links {
		proc, ok := c.procs[link]
		if !ok {
			proc = lossmodel.NewProcess(c.cfg.Kind, 0, c.cfg.PStayBad, c.rng)
			c.procs[link] = proc
		}
		c.seen[link]++
		// Every link's process advances on each traversal so burst dynamics
		// progress in packet time, even after an upstream drop.
		if proc.Drop(c.rng) {
			c.dropped[link]++
			alive = false
		}
	}
	sink := p.Sink
	c.mu.Unlock()
	if !alive || sink == nil {
		return
	}
	if _, err := c.conn.WriteToUDP(h.Marshal(), sink); err != nil {
		c.logf("emunet core: forward to %v: %v", sink, err)
	}
}

// handleEnd forwards a beacon's end-of-probes marker to the path's sink
// without walking the loss processes: it is how a sink learns of a path
// whose every probe was dropped. It leaves the sink after every probe the
// beacon sent before it, because the core handles datagrams in order.
func (c *Core) handleEnd(h *Header) {
	c.mu.Lock()
	var sink *net.UDPAddr
	if p, ok := c.paths[int(h.PathID)]; ok {
		sink = p.Sink
	}
	c.mu.Unlock()
	if sink == nil {
		return
	}
	if _, err := c.conn.WriteToUDP(h.Marshal(), sink); err != nil {
		c.logf("emunet core: forward end marker to %v: %v", sink, err)
	}
}

// handleTrace emulates TTL processing: the router at hop TTL answers with
// the interface the probe arrived on (or stays silent), and probes with TTL
// beyond the path length get a destination reply with hop index 0xFFFF.
func (c *Core) handleTrace(h *Header, from *net.UDPAddr) {
	c.mu.Lock()
	p, ok := c.paths[int(h.PathID)]
	if !ok {
		c.mu.Unlock()
		return
	}
	reply := Header{Type: TypeTraceReply, PathID: h.PathID, Snapshot: h.Snapshot, Seq: h.Seq}
	hop := int(h.TTL)
	respond := true
	if hop >= 1 && hop <= len(p.Routers) {
		r := c.routers[p.Routers[hop-1]]
		reply.HopIndex = uint16(hop - 1)
		if r == nil || !r.Responds {
			respond = false
		} else {
			// The answering interface is determined by the incoming link, so
			// paths sharing a segment observe identical hop addresses while
			// paths entering a router from different sides observe aliases.
			incoming := p.Links[hop-1]
			reply.Interface = r.Interfaces[incoming%len(r.Interfaces)]
		}
	} else {
		// Beyond the last router: destination "port unreachable".
		reply.HopIndex = 0xFFFF
	}
	c.mu.Unlock()
	if !respond {
		return
	}
	if _, err := c.conn.WriteToUDP(reply.Marshal(), from); err != nil {
		c.logf("emunet core: trace reply to %v: %v", from, err)
	}
}
