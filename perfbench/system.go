package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"lia"
	"lia/cluster"
	"lia/serve"
)

// system is one running stack under test: serve.Server on a loopback
// listener over a plain, sharded-durable or clustered engine.
type system struct {
	rm  *lia.RoutingMatrix
	raw lia.Inferencer // the engine serve drives, undecorated
	url string

	fleet *cluster.Fleet
	nodes []*cluster.Node
	rt    *transport // traced fleet client, nil untraced

	servers []*http.Server // serve first, then nodes
	cancel  context.CancelFunc
	runDone chan error
	stopped bool
}

// stackOpts are the per-run inputs of startSystem.
type stackOpts struct {
	in       *inputs
	tr       *tracer // nil runs untraced: no middleware, decorator or RoundTripper
	stateDir string  // WAL and checkpoint directory of the durable workload
	warm     [][]byte
	client   *http.Client
}

// startSystem builds the topology, engine and server (placing the fleet),
// runs the warm-up fill and waits for the first 200 from /v1/links. Its
// duration is the run's setup time.
func startSystem(ctx context.Context, s spec, o stackOpts) (*system, error) {
	rm, err := lia.NewTopology(o.in.Paths)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	sys := &system{rm: rm, runDone: make(chan error, 1)}
	ok := false
	defer func() {
		if !ok {
			sys.stop()
		}
	}()
	mux := http.NewServeMux()
	switch {
	case s.fleet:
		var client *http.Client
		if o.tr != nil {
			sys.rt = &transport{t: o.tr, next: http.DefaultTransport.(*http.Transport).Clone()}
			client = &http.Client{Transport: sys.rt}
		}
		sys.fleet, err = cluster.NewFleet(rm, cluster.FleetConfig{
			Size:    2,
			Options: cluster.EngineOptions{Window: s.window},
			Client:  client,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		sys.raw = sys.fleet
		mux.Handle("/cluster/", sys.fleet.Handler())
	case s.durable:
		sys.raw, err = lia.New(rm, append(s.engineOptions(), lia.WithDurability(o.stateDir, s.durability()))...)
	default:
		sys.raw, err = lia.New(rm, s.engineOptions()...)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	eng := sys.raw
	if o.tr != nil {
		if eng, err = traceEngine(eng, o.tr); err != nil {
			return nil, err
		}
	}
	srv := serve.New(serve.Config{Logf: func(string, ...any) {}})
	if err := srv.Add("default", serve.Topology{Engine: eng, Probes: probes}); err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if o.tr != nil {
		h = o.tr.middleware(serveRoutes, h)
	}
	mux.Handle("/", h)
	if sys.url, err = sys.listen(mux); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	sys.cancel = cancel
	go func() { sys.runDone <- srv.Run(runCtx) }()

	if s.fleet {
		if err := sys.startNodes(ctx, o.tr); err != nil {
			return nil, err
		}
	}
	for i, body := range o.warm {
		if _, err := postIngest(ctx, o.client, sys.url, body, nil); err != nil {
			return nil, fmt.Errorf("warm-up batch %d: %w", i, err)
		}
	}
	if err := sys.firstLinks(ctx, o.client); err != nil {
		return nil, err
	}
	ok = true
	return sys, nil
}

// listen serves h on a fresh loopback listener and returns its base URL.
func (sys *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	sys.servers = append(sys.servers, hs)
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// startNodes boots the fleet's two in-process nodes, registers them and
// waits until both hold their placement.
func (sys *system) startNodes(ctx context.Context, tr *tracer) error {
	for _, id := range []string{"node-a", "node-b"} {
		n := cluster.NewNode(id)
		sys.nodes = append(sys.nodes, n)
		var h http.Handler = n.Handler()
		if tr != nil {
			h = tr.middleware(nodeRoutes, h)
		}
		url, err := sys.listen(h)
		if err != nil {
			return err
		}
		if err := n.Register(ctx, nil, sys.url, url); err != nil {
			return fmt.Errorf("register %s: %w", id, err)
		}
	}
	for _, n := range sys.nodes {
		for n.Assignment() == 0 {
			if err := sleepCtx(ctx, time.Millisecond); err != nil {
				return fmt.Errorf("node %s never placed: %w", n.ID, err)
			}
		}
	}
	return nil
}

// firstLinks polls /v1/links until it answers 200: the cold rebuild and,
// on the fleet, the nodes' first folds.
func (sys *system) firstLinks(ctx context.Context, c *http.Client) error {
	for {
		code, _, err := getLinks(ctx, c, sys.url, nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if err == nil && code != http.StatusConflict {
			return fmt.Errorf("first /v1/links answered %d", code)
		}
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			return fmt.Errorf("no 200 from /v1/links: %w", err)
		}
	}
}

// synced waits until every scattered snapshot has folded on its node (a
// no-op for in-process engines, whose ingest is synchronous).
func (sys *system) synced(ctx context.Context) error {
	if sys.fleet == nil {
		return nil
	}
	return sys.fleet.Synced(ctx)
}

// folded is how many snapshots the engines have folded: the ingested count
// of an in-process engine, and the slowest component's count on the fleet,
// read from the nodes' cached watch events.
func (sys *system) folded() int {
	if sys.fleet == nil {
		return sys.raw.Snapshots()
	}
	comps := sys.fleet.ComponentStats()
	if len(comps) == 0 {
		return 0
	}
	n := comps[0].Snapshots
	for _, c := range comps[1:] {
		n = min(n, c.Snapshots)
	}
	return n
}

// backlog is how many accepted snapshots the slowest component has not
// folded yet (always 0 for in-process engines).
func (sys *system) backlog() int {
	if sys.fleet == nil {
		return 0
	}
	return sys.fleet.Snapshots() - sys.folded()
}

// missed is the fleet's dropped-delivery count (0 for in-process engines).
func (sys *system) missed() int64 {
	if sys.fleet == nil {
		return 0
	}
	return sys.fleet.Missed()
}

// stop shuts the stack down and waits for every goroutine it started. The
// durable engine is closed last, after its state directory was used.
func (sys *system) stop() error {
	if sys.stopped {
		return nil
	}
	sys.stopped = true
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if len(sys.servers) > 0 {
		if err := sys.servers[0].Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("serve shutdown: %w", err))
		}
	}
	if sys.cancel != nil {
		sys.cancel()
		if err := <-sys.runDone; err != nil {
			errs = append(errs, err)
		}
	}
	if sys.fleet != nil {
		errs = append(errs, sys.fleet.Close())
	}
	for _, hs := range sys.servers[min(1, len(sys.servers)):] {
		errs = append(errs, hs.Close())
	}
	for _, n := range sys.nodes {
		errs = append(errs, n.Close())
	}
	if d, ok := sys.raw.(*lia.DurableEngine); ok {
		errs = append(errs, d.Close())
	}
	return errors.Join(errs...)
}

// reference builds the in-process engine the served answers must match
// bitwise: a plain Engine for one tree, a non-durable ShardedEngine with the
// same options for the domain workloads, and for the fleet a ShardedEngine
// with the options the fleet propagates to its nodes.
func reference(s spec, rm *lia.RoutingMatrix) (lia.Inferencer, error) {
	opts := s.engineOptions()
	if s.fleet {
		var err error
		if opts, err = (cluster.EngineOptions{Window: s.window}).Options(); err != nil {
			return nil, err
		}
	}
	if s.domains == 1 {
		return lia.NewEngine(rm, opts...)
	}
	return lia.NewShardedEngine(rm, opts...)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
