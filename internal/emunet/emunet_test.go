package emunet

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"lia/internal/lossmodel"
	"lia/internal/topogen"
	"lia/internal/topology"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Type: TypeProbe, TTL: 7, PathID: 12345, Snapshot: 9, Seq: 777, HopIndex: 3, Interface: 0xDEADBEEF}
	var got Header
	if err := got.Unmarshal(h.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(typ, ttl uint8, path, snap, seq, iface uint32, hop uint16) bool {
		h := Header{Type: typ, TTL: ttl, PathID: path, Snapshot: snap, Seq: seq, HopIndex: hop, Interface: iface}
		var got Header
		return got.Unmarshal(h.Marshal()) == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	var h Header
	if err := h.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("short packet accepted")
	}
	bad := (&Header{Type: TypeProbe}).Marshal()
	bad[0] = 'X'
	if err := h.Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

// testDeployment wires a 2-link path through a running core to a sink.
func testDeployment(t *testing.T, rates map[int]float64) (*Core, *Sink, *Beacon) {
	t.Helper()
	core, err := NewCore(CoreConfig{Rates: rates, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { core.Close() })
	sink, err := NewSink()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	core.AddPath(PathSpec{ID: 1, Links: []int{10, 11}, Routers: []int{5}, Sink: sink.Addr()})
	beacon, err := NewBeacon(core.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { beacon.Close() })
	return core, sink, beacon
}

func waitReceived(t *testing.T, sink *Sink, path, snap, want int) int {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := sink.Received(path, snap)
		if got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCoreForwardsLosslessPath(t *testing.T) {
	_, sink, beacon := testDeployment(t, map[int]float64{10: 0, 11: 0})
	const n = 200
	if _, err := beacon.ProbePath(1, 0, n, 0); err != nil {
		t.Fatal(err)
	}
	if got := waitReceived(t, sink, 1, 0, n); got != n {
		t.Fatalf("received %d of %d probes on a lossless path", got, n)
	}
}

func TestCoreDropsOnLossyLink(t *testing.T) {
	core, sink, beacon := testDeployment(t, map[int]float64{10: 0.5, 11: 0})
	const n = 1000
	if _, err := beacon.ProbePath(1, 0, n, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	got := sink.Received(1, 0)
	if got < 300 || got > 700 {
		t.Fatalf("received %d of %d through a 50%% lossy link", got, n)
	}
	seen, dropped := core.LinkStats()
	if seen[10] != n {
		t.Fatalf("core saw %d traversals of link 10, want %d", seen[10], n)
	}
	if dropped[10] == 0 || dropped[11] != 0 {
		t.Fatalf("drop counters wrong: %v", dropped)
	}
}

func TestCoreSetRates(t *testing.T) {
	core, sink, beacon := testDeployment(t, map[int]float64{10: 1, 11: 0})
	if _, err := beacon.ProbePath(1, 0, 100, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := sink.Received(1, 0); got != 0 {
		t.Fatalf("received %d probes through a 100%% lossy link", got)
	}
	// Heal the link; probes must flow again in the next snapshot.
	core.SetRates(map[int]float64{10: 0})
	if _, err := beacon.ProbePath(1, 1, 100, 0); err != nil {
		t.Fatal(err)
	}
	if got := waitReceived(t, sink, 1, 1, 100); got != 100 {
		t.Fatalf("received %d probes after healing the link, want 100", got)
	}
}

// TestSinkCountsTotalLoss: the end marker reaches the sink through a link
// that drops every probe, so the sink counts the path at zero.
func TestSinkCountsTotalLoss(t *testing.T) {
	_, sink, beacon := testDeployment(t, map[int]float64{10: 1, 11: 0})
	if _, err := beacon.ProbePath(1, 0, 100, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, ok := sink.Counts()[[2]int{1, 0}]
		if ok {
			if n != 0 {
				t.Fatalf("sink counted %d probes through a 100%% lossy link", n)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sink never counted the path whose probes were all lost")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTracerDiscoversPath(t *testing.T) {
	core, _, _ := testDeployment(t, map[int]float64{10: 0, 11: 0})
	core.AddRouter(RouterInfo{ID: 5, Interfaces: []uint32{81, 82}, Responds: true})
	tracer, err := NewTracer(core.Addr(), 2, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tracer.Close()
	hops, err := tracer.TracePath(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 {
		t.Fatalf("discovered %d hops, want 1 intermediate router", len(hops))
	}
	if !hops[0].Responded || (hops[0].Interface != 81 && hops[0].Interface != 82) {
		t.Fatalf("hop = %+v, want interface 81 or 82", hops[0])
	}
}

func TestTracerSilentRouter(t *testing.T) {
	core, _, _ := testDeployment(t, map[int]float64{10: 0, 11: 0})
	core.AddRouter(RouterInfo{ID: 5, Interfaces: []uint32{81}, Responds: false})
	tracer, err := NewTracer(core.Addr(), 2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tracer.Close()
	hops, err := tracer.TracePath(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0].Responded {
		t.Fatalf("hops = %+v, want one silent hop", hops)
	}
}

func TestAliasResolver(t *testing.T) {
	routers := []RouterInfo{
		{ID: 1, Interfaces: []uint32{100, 101, 102}},
		{ID: 2, Interfaces: []uint32{200}},
	}
	r := NewAliasResolver(routers, 1.0) // always resolve
	if r.Canonical(102) != 100 || r.Canonical(101) != 100 {
		t.Fatal("aliases not canonicalized to the smallest interface")
	}
	if r.Canonical(200) != 200 {
		t.Fatal("single-interface router should map to itself")
	}
	none := NewAliasResolver(routers, 0.0) // never resolve
	if none.Canonical(102) != 102 {
		t.Fatal("unresolved alias should stay distinct")
	}
}

func TestCollectorAssemblesSnapshots(t *testing.T) {
	coll, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	rc, err := DialCollector(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, ok := coll.Snapshot(0, 2); ok {
		t.Fatal("snapshot should be incomplete before reports arrive")
	}
	if err := rc.Send(Report{PathID: 0, Snapshot: 0, Sent: 100, Received: 90}); err != nil {
		t.Fatal(err)
	}
	if err := rc.Send(Report{PathID: 1, Snapshot: 0, Sent: 100, Received: 100}); err != nil {
		t.Fatal(err)
	}
	frac, err := coll.WaitSnapshot(0, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if frac[0] != 0.9 || frac[1] != 1.0 {
		t.Fatalf("frac = %v, want [0.9 1.0]", frac)
	}
}

func TestCollectorAwaitSnapshot(t *testing.T) {
	coll, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	rc, err := DialCollector(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Beacon-style sent report lands first; the late sink report must merge
	// in during the settle window.
	if err := rc.Send(Report{PathID: 0, Snapshot: 0, Sent: 100}); err != nil {
		t.Fatal(err)
	}
	if err := rc.Send(Report{PathID: 1, Snapshot: 0, Sent: 100, Received: 80}); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		_ = rc.Send(Report{PathID: 0, Snapshot: 0, Received: 50})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	frac, err := coll.AwaitSnapshot(ctx, 0, 2, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if frac[0] != 0.5 || frac[1] != 0.8 {
		t.Fatalf("frac = %v, want [0.5 0.8]", frac)
	}

	// Cancellation surfaces as the context error for an incomplete snapshot.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	if _, err := coll.AwaitSnapshot(ctx2, 1, 2, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AwaitSnapshot on incomplete snapshot = %v, want DeadlineExceeded", err)
	}
}

// TestCollectorReportHalves pins which half of a path's measurement each
// report carries (see Report): {Sent: n} and {Sent: n, Received: 0} are the
// beacon half, {Received: k} — k = 0 included — is the sink half, and
// {Sent: n, Received: k > 0} is both.
func TestCollectorReportHalves(t *testing.T) {
	coll, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	rc, err := DialCollector(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	send := func(reps ...Report) {
		t.Helper()
		for _, rep := range reps {
			if err := rc.Send(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(
		Report{PathID: 0, Snapshot: 0, Sent: 100},
		Report{PathID: 1, Snapshot: 0, Sent: 100, Received: 0},
		Report{PathID: 2, Snapshot: 0, Sent: 100, Received: 40},
	)
	if frac, err := coll.WaitSnapshot(0, 3, 100*time.Millisecond); err == nil {
		t.Fatalf("snapshot complete with two beacon halves alone: %v", frac)
	}
	send(
		Report{PathID: 0, Snapshot: 0, Received: 0},
		Report{PathID: 1, Snapshot: 0, Received: 0},
	)
	frac, err := coll.WaitSnapshot(0, 3, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if frac[0] != 0 || frac[1] != 0 || frac[2] != 0.4 {
		t.Fatalf("frac = %v, want [0 0 0.4]", frac)
	}
}

func TestLabEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	network := topogen.PlanetLabLike(rng, 6, 1)
	hosts := topogen.SelectHosts(rng, network, 4)
	paths := topogen.Routes(network, hosts, hosts)
	paths, _ = topology.RemoveFluttering(paths)
	lab, err := NewLab(network, paths, LabConfig{
		Probes: 120,
		Seed:   7,
		Loss:   lossmodel.Config{Fraction: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	for s := 0; s < 3; s++ {
		frac, err := lab.RunSnapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", s, err)
		}
		if len(frac) != len(paths) {
			t.Fatalf("snapshot %d: %d fractions for %d paths", s, len(frac), len(paths))
		}
		for i, f := range frac {
			if f < 0 || f > 1 {
				t.Fatalf("snapshot %d path %d: fraction %v out of range", s, i, f)
			}
		}
	}
	if got := len(lab.History()); got != 3 {
		t.Fatalf("history has %d snapshots, want 3", got)
	}

	// Discovery must return one measured path per probing path, each with at
	// least one link, and the measured paths must build into a routing
	// matrix.
	discovered, err := lab.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(discovered) != len(paths) {
		t.Fatalf("discovered %d paths, want %d", len(discovered), len(paths))
	}
	for i, p := range discovered {
		if len(p.Links) == 0 {
			t.Fatalf("discovered path %d has no links", i)
		}
		if len(p.Links) != len(paths[i].Links) {
			t.Fatalf("discovered path %d has %d hops, true path has %d",
				i, len(p.Links), len(paths[i].Links))
		}
	}
	if _, err := topology.Build(discovered); err != nil {
		t.Fatalf("discovered topology does not build: %v", err)
	}
}

func TestLabLosslessDeliversAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	network := topogen.Tree(rng, 12, 3)
	paths := topogen.Routes(network, []int{0}, network.Hosts)
	lab, err := NewLab(network, paths, LabConfig{
		Probes: 150,
		Seed:   7,
		Loss:   lossmodel.Config{Fraction: 0}, // no congested links
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	frac, err := lab.RunSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frac {
		// Good links still lose the occasional probe; bulk delivery must
		// succeed (also guards against UDP buffer overruns in the lab).
		if f < 0.97 {
			t.Fatalf("path %d delivered only %.3f of probes on an almost lossless network", i, f)
		}
	}
}
