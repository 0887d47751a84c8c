package serve_test

// collector_test.go round-trips the live CollectorSource against in-process
// emunet agents speaking the collector report protocol over real TCP.

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"lia"
	"lia/internal/emunet"
	"lia/serve"
)

// TestCollectorSourceRoundTrip: beacon-style sent reports and sink-style
// received reports merge into ordered snapshots whose log rates match
// lia.LogRates exactly.
func TestCollectorSourceRoundTrip(t *testing.T) {
	src, err := serve.NewCollectorSource("127.0.0.1:0", serve.CollectorConfig{
		Paths:     2,
		Probes:    100,
		Settle:    -1, // reports below are synchronous; skip the merge wait
		Timeout:   10 * time.Second,
		Snapshots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	rc, err := emunet.DialCollector(src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// Out-of-order and split reports, as real agents produce: beacons send
	// Sent immediately, sinks send Received on their own timer.
	reports := []emunet.Report{
		{PathID: 1, Snapshot: 0, Sent: 100},
		{PathID: 0, Snapshot: 0, Sent: 100},
		{PathID: 0, Snapshot: 0, Received: 90},
		{PathID: 1, Snapshot: 0, Received: 100},
		{PathID: 0, Snapshot: 1, Sent: 100},
		{PathID: 0, Snapshot: 1, Received: 0}, // total loss: the sink saw none
		{PathID: 1, Snapshot: 1, Sent: 100, Received: 37},
	}
	for _, rep := range reports {
		if err := rc.Send(rep); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	snap0, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want0 := lia.LogRates([]float64{0.9, 1.0}, 100)
	for i := range want0 {
		if math.Float64bits(snap0.Y[i]) != math.Float64bits(want0[i]) {
			t.Fatalf("snapshot 0 path %d: %v, want %v", i, snap0.Y[i], want0[i])
		}
	}
	snap1, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Zero delivery clamps to half a probe: log(0.5/100).
	want1 := lia.LogRates([]float64{0, 0.37}, 100)
	for i := range want1 {
		if math.Float64bits(snap1.Y[i]) != math.Float64bits(want1[i]) {
			t.Fatalf("snapshot 1 path %d: %v, want %v", i, snap1.Y[i], want1[i])
		}
	}
	// The configured cap makes the stream finite.
	if _, err := src.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("after cap: %v, want io.EOF", err)
	}
}

// TestCollectorSourceLateSinkReport delays one path's sink report past the
// settle window. The snapshot must wait for it rather than read the path's
// missing received count as total loss, log(0.5/probes); a sink report that
// never arrives by the timeout leaves the path missing (NaN), for the
// server's sanitizer to quarantine.
func TestCollectorSourceLateSinkReport(t *testing.T) {
	const probes = 100
	src, err := serve.NewCollectorSource("127.0.0.1:0", serve.CollectorConfig{
		Paths:     2,
		Probes:    probes,
		Settle:    20 * time.Millisecond,
		Timeout:   300 * time.Millisecond,
		Snapshots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rc, err := emunet.DialCollector(src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	send := func(reps ...emunet.Report) {
		for _, rep := range reps {
			if err := rc.Send(rep); err != nil {
				t.Error(err)
			}
		}
	}
	send(
		emunet.Report{PathID: 0, Snapshot: 0, Sent: probes, Received: 90},
		emunet.Report{PathID: 1, Snapshot: 0, Sent: probes},
		emunet.Report{PathID: 0, Snapshot: 1, Sent: probes, Received: 80},
		emunet.Report{PathID: 1, Snapshot: 1, Sent: probes},
	)
	late := time.AfterFunc(120*time.Millisecond, func() {
		send(emunet.Report{PathID: 1, Snapshot: 0, Received: 70})
	})
	defer late.Stop()

	totalLoss := math.Log(0.5 / probes)
	ctx := context.Background()
	snap0, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want0 := lia.LogRates([]float64{0.9, 0.7}, probes)
	for i := range want0 {
		if math.Float64bits(snap0.Y[i]) != math.Float64bits(want0[i]) {
			t.Fatalf("snapshot 0 path %d: %v, want %v (total loss reads %v)", i, snap0.Y[i], want0[i], totalLoss)
		}
	}
	// Snapshot 1's sink report for path 1 never comes.
	snap1, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Log(0.8); snap1.Y[0] != want {
		t.Fatalf("snapshot 1 path 0: %v, want %v", snap1.Y[0], want)
	}
	if !math.IsNaN(snap1.Y[1]) {
		t.Fatalf("snapshot 1 path 1 without a sink report: %v, want NaN (missing), never total loss %v", snap1.Y[1], totalLoss)
	}
}

// TestCollectorSourceTotalLossPath runs the agents as cmd/beacon does — a
// core, a beacon that reports its sent counts, a sink that reports its
// counters on a timer — over one clean path and one path whose link drops
// every probe. The lossy path's sink never sees a probe, yet the beacon's
// end marker gives it a zero counter to report, so the snapshot completes
// in the settle window and the path reads as total loss, log(0.5/probes),
// rather than waiting out the timeout as missing.
func TestCollectorSourceTotalLossPath(t *testing.T) {
	const probes = 50
	settle := 300 * time.Millisecond
	src, err := serve.NewCollectorSource("127.0.0.1:0", serve.CollectorConfig{
		Paths:     2,
		Probes:    probes,
		Settle:    settle,
		Timeout:   10 * time.Second,
		Snapshots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	core, err := emunet.NewCore(emunet.CoreConfig{Rates: map[int]float64{10: 0, 11: 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	sink, err := emunet.NewSink()
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	core.AddPath(emunet.PathSpec{ID: 0, Links: []int{10}, Sink: sink.Addr()})
	core.AddPath(emunet.PathSpec{ID: 1, Links: []int{11}, Sink: sink.Addr()})
	beacon, err := emunet.NewBeacon(core.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer beacon.Close()
	rc, err := emunet.DialCollector(src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// The sink's timer-driven reports, on a connection of their own.
	stop := make(chan struct{})
	reported := make(chan struct{})
	go func() {
		defer close(reported)
		sc, err := emunet.DialCollector(src.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer sc.Close()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if err := sink.Report(sc); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); <-reported }()

	start := time.Now()
	for path := 0; path < 2; path++ {
		sent, err := beacon.ProbePath(path, 0, probes, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.Send(emunet.Report{PathID: path, Snapshot: 0, Sent: sent}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := src.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > settle+5*time.Second {
		t.Fatalf("snapshot took %v with a %v settle window: the total-loss path waited for a sink report", took, settle)
	}
	want := lia.LogRates([]float64{1, 0}, probes)
	for i := range want {
		if math.Float64bits(snap.Y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("path %d: %v, want %v (total loss is log(0.5/probes) = %v)", i, snap.Y[i], want[i], math.Log(0.5/probes))
		}
	}
}

// TestCollectorSourceFeedsEngine closes the loop: Engine.Consume drains a
// CollectorSource while an agent goroutine reports measurements, with no
// NDJSON hop in between.
func TestCollectorSourceFeedsEngine(t *testing.T) {
	rm, err := lia.NewTopology(treePaths(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	const snapshots = 5
	src, err := serve.NewCollectorSource("127.0.0.1:0", serve.CollectorConfig{
		Paths:     rm.NumPaths(),
		Probes:    200,
		Settle:    -1,
		Timeout:   10 * time.Second,
		Snapshots: snapshots,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	go func() {
		rc, err := emunet.DialCollector(src.Addr())
		if err != nil {
			return
		}
		defer rc.Close()
		for snap := 0; snap < snapshots; snap++ {
			for p := 0; p < rm.NumPaths(); p++ {
				_ = rc.Send(emunet.Report{
					PathID: p, Snapshot: snap,
					Sent: 200, Received: 180 + (snap+p)%20,
				})
			}
			time.Sleep(5 * time.Millisecond) // agents pace their snapshots
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n, err := eng.Consume(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if n != snapshots || eng.Snapshots() != snapshots {
		t.Fatalf("consumed %d, engine holds %d, want %d", n, eng.Snapshots(), snapshots)
	}
	if _, err := eng.Variances(ctx); err != nil {
		t.Fatalf("variances over collector-fed moments: %v", err)
	}
}

// TestCollectorSourceValidation pins the constructor's contract.
func TestCollectorSourceValidation(t *testing.T) {
	if _, err := serve.NewCollectorSource("127.0.0.1:0", serve.CollectorConfig{}); err == nil {
		t.Fatal("zero path count must be rejected")
	}
}
