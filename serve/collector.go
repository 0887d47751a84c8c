package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lia"
	"lia/internal/emunet"
)

// CollectorConfig parameterizes a live CollectorSource.
type CollectorConfig struct {
	// Paths is the number of measurement paths per snapshot (required):
	// a snapshot is complete once every path has its beacon and its sink
	// report.
	Paths int

	// Probes is S, the probe count behind each received fraction, used
	// only to clamp zero-delivery paths in the log conversion (0 → 1000).
	Probes int

	// Settle is the extra wait after a snapshot completes so the sinks'
	// timer-driven received reports merge in before the fractions are
	// read. 0 selects 1500ms (the standalone collector's default);
	// negative disables the wait (in-process tests).
	Settle time.Duration

	// Timeout bounds the wait for each snapshot's completion. 0 selects
	// 2 minutes (the standalone collector's default). A path whose sink
	// report has not arrived by then (plus the settle window) is emitted as
	// missing, NaN, which the server's sanitizer quarantines; it is never
	// read as total loss.
	Timeout time.Duration

	// Snapshots caps the stream; after that many snapshots Next reports
	// io.EOF. 0 streams until the source is closed.
	Snapshots int
}

// CollectorSource is a live lia.SnapshotSource over the emulated overlay's
// measurement plane: it listens for the internal/emunet collector report
// protocol (newline-delimited JSON over TCP, beacons reporting sent counts
// and sinks reporting received counts), assembles completed snapshots
// in-process, and hands them to the engine as log transmission rates. It
// replaces the `collector | liainfer` NDJSON pipe with a single process:
// point the beacon/sink agents' -collector flag at Addr.
//
// Snapshots are delivered strictly in order (0, 1, 2, ...), matching the
// snapshot indices the agents stamp on their reports. Next is safe for one
// consumer at a time, like every source in package lia.
//
// The source auto-reconnects: when the underlying listener dies, the Next
// call that observes the death surfaces the error (so a supervisor sees
// the outage), and the following Next re-listens on the same address and
// resumes awaiting the same snapshot index — mid-stream, nothing skipped.
// Wrap it in lia.RetrySource to get redial-with-backoff as a single
// self-healing source; under serve.Server.Run the source supervisor
// provides the backoff instead. Reconnects reports the redial count.
type CollectorSource struct {
	cfg  CollectorConfig
	addr string // concrete listen address, reused across reconnects

	closed     atomic.Bool
	reconnects atomic.Uint64

	// cmu guards the collector pointer alone, so Close and
	// InjectListenerFailure can reach it while Next holds mu in a wait.
	cmu  sync.Mutex
	coll *emunet.Collector

	mu   sync.Mutex // serialises Next: snapshot cursor and death/redial state
	next int
	dead bool // the listener died; next Next re-listens before awaiting
}

// NewCollectorSource starts the TCP report listener on addr (host:port;
// port 0 picks an ephemeral one, see Addr).
func NewCollectorSource(addr string, cfg CollectorConfig) (*CollectorSource, error) {
	if cfg.Paths <= 0 {
		return nil, fmt.Errorf("serve: collector source needs a positive path count, got %d", cfg.Paths)
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 1000
	}
	if cfg.Settle == 0 {
		cfg.Settle = 1500 * time.Millisecond
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Minute
	}
	coll, err := emunet.NewCollectorAddr(addr)
	if err != nil {
		return nil, fmt.Errorf("serve: collector source: %w", err)
	}
	return &CollectorSource{cfg: cfg, addr: coll.Addr(), coll: coll}, nil
}

// Addr returns the TCP address agents report to. It is stable across
// reconnects: the source always re-listens on the same address.
func (s *CollectorSource) Addr() string { return s.addr }

// Reconnects returns how many times the source re-listened after its
// collector died.
func (s *CollectorSource) Reconnects() uint64 { return s.reconnects.Load() }

// collector returns the current underlying collector.
func (s *CollectorSource) collector() *emunet.Collector {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.coll
}

// Next implements lia.SnapshotSource: it blocks until the next snapshot in
// sequence is complete (every path reported, settle window elapsed) and
// returns its log transmission rates. It reports io.EOF once the configured
// snapshot cap is reached or the source is closed. When the collector
// listener has died, Next re-listens first (see CollectorSource) and picks
// up at the snapshot index the outage interrupted.
func (s *CollectorSource) Next(ctx context.Context) (lia.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() || (s.cfg.Snapshots > 0 && s.next >= s.cfg.Snapshots) {
		return lia.Snapshot{}, io.EOF
	}
	if s.dead {
		coll, err := emunet.NewCollectorAddr(s.addr)
		if err != nil {
			return lia.Snapshot{}, fmt.Errorf("serve: collector source re-listen %s: %w", s.addr, err)
		}
		s.cmu.Lock()
		s.coll = coll
		s.cmu.Unlock()
		s.dead = false
		s.reconnects.Add(1)
		if s.closed.Load() { // Close raced the swap: shut the new listener too
			_ = coll.Close()
			return lia.Snapshot{}, io.EOF
		}
	}
	settle := s.cfg.Settle
	if settle < 0 {
		settle = 0
	}
	// Timeout bounds the wait for completion; the settle window runs after
	// completion and gets its own budget on top.
	waitCtx, cancel := context.WithTimeout(ctx, s.cfg.Timeout+settle)
	defer cancel()
	frac, err := s.collector().AwaitSnapshot(waitCtx, s.next, s.cfg.Paths, settle)
	if err != nil {
		if s.closed.Load() {
			return lia.Snapshot{}, io.EOF
		}
		if errors.Is(err, emunet.ErrCollectorClosed) {
			// The listener died under us: flag for re-listen and surface the
			// outage so supervisors can count and pace the recovery.
			s.dead = true
		}
		return lia.Snapshot{}, fmt.Errorf("serve: collector source: %w", err)
	}
	s.next++
	return lia.Snapshot{Y: lia.LogRates(frac, s.cfg.Probes)}, nil
}

// InjectListenerFailure kills the underlying report listener without
// closing the source — exactly what a crashed collector process looks like
// to consumers. The in-flight or next Next observes the death and the
// source then re-listens on the same address. A fault-injection hook for
// resilience tests and the -chaos-kill-collector smoke flag; production
// code has no reason to call it.
func (s *CollectorSource) InjectListenerFailure() error {
	return s.collector().Close()
}

// Close stops the report listener. A Next call blocked on an incomplete
// snapshot returns once it observes the closed collector (promptly — the
// collector's done channel short-circuits the wait); subsequent calls
// report io.EOF.
func (s *CollectorSource) Close() error {
	// Flag first, and not under the mutex: Next holds it while waiting.
	s.closed.Store(true)
	return s.collector().Close()
}
