package lia_test

// gather_test.go pins the gather core's contract on hand-built
// per-component parts: the assembly ShardedEngine and cluster.Fleet share,
// checked without any engine or network behind it.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lia"
)

// gatherLinks is a three-component, seven-link layout whose local orders
// are deliberately not ascending in global order, so remapping and sorting
// both show.
var gatherLinks = [][]int{{4, 0, 2}, {1, 6}, {5, 3}}

// gatherParts returns fresh per-component results over gatherLinks.
func gatherParts() []*lia.Result {
	return []*lia.Result{
		{LossRates: []float64{0.1, 0.2, 0.3}, LogRates: []float64{-1, -2, -3}, Variances: []float64{1, 2, 3},
			Kept: []int{1, 2}, Removed: []int{0}, Epoch: 10},
		{LossRates: []float64{0.4, 0.5}, LogRates: []float64{-4, -5}, Variances: []float64{4, 5},
			Kept: []int{1}, Removed: []int{0}, Epoch: 7},
		{LossRates: []float64{0.6, 0.7}, LogRates: []float64{-6, -7}, Variances: []float64{6, 7},
			Kept: []int{0, 1}, Epoch: 9},
	}
}

// nestedParts is gatherParts with component 0 itself a gather (a cluster
// node over several components) whose local link 1 — global link 0 — is
// unresolved: zero, in neither Kept nor Removed.
func nestedParts() []*lia.Result {
	parts := gatherParts()
	parts[0] = &lia.Result{LossRates: []float64{0.1, 0, 0.3}, LogRates: []float64{-1, 0, -3}, Variances: []float64{1, 0, 3},
		Kept: []int{2}, Removed: []int{0}, Unresolved: []int{1}, Epoch: 10}
	return parts
}

// steadyParts projects results onto the steady-state shape.
func steadyParts(rs []*lia.Result) []*lia.SteadyState {
	out := make([]*lia.SteadyState, len(rs))
	for c, r := range rs {
		out[c] = &lia.SteadyState{Variances: r.Variances, Kept: r.Kept, Removed: r.Removed, Unresolved: r.Unresolved, Epoch: r.Epoch}
	}
	return out
}

func TestGatherResultContract(t *testing.T) {
	ctx := context.Background()

	t.Run("all healthy", func(t *testing.T) {
		got, err := lia.GatherResult(ctx, 7, gatherLinks, gatherParts(), make([]error, 3))
		if err != nil {
			t.Fatal(err)
		}
		want := &lia.Result{
			LossRates: []float64{0.2, 0.4, 0.3, 0.7, 0.1, 0.6, 0.5},
			LogRates:  []float64{-2, -4, -3, -7, -1, -6, -5},
			Variances: []float64{2, 4, 3, 7, 1, 6, 5},
			Kept:      []int{0, 2, 3, 5, 6},
			Removed:   []int{1, 4},
			Epoch:     7,
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v\nwant %+v", got, want)
		}
		if got.Unresolved != nil {
			t.Fatalf("Unresolved = %#v, want nil (not empty)", got.Unresolved)
		}
	})

	t.Run("some failed", func(t *testing.T) {
		// Components 0 and 1 fail. Their stale parts carry non-zero values
		// and component 1 the lowest epoch, none of which may leak into the
		// gather; component 0's links are out of order locally.
		errs := []error{errors.New("component 0 down"), errors.New("component 1 down"), nil}
		got, err := lia.GatherResult(ctx, 7, gatherLinks, gatherParts(), errs)
		if err != nil {
			t.Fatal(err)
		}
		want := &lia.Result{
			LossRates:  []float64{0, 0, 0, 0.7, 0, 0.6, 0},
			LogRates:   []float64{0, 0, 0, -7, 0, -6, 0},
			Variances:  []float64{0, 0, 0, 7, 0, 6, 0},
			Kept:       []int{3, 5},
			Unresolved: []int{0, 1, 2, 4, 6},
			Epoch:      9,
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v\nwant %+v", got, want)
		}
	})

	t.Run("healthy part carries its own unresolved", func(t *testing.T) {
		// A gather of gathers: component 0's own unresolved link maps
		// through its link map and joins component 1's failed links.
		errs := []error{nil, errors.New("component 1 down"), nil}
		got, err := lia.GatherResult(ctx, 7, gatherLinks, nestedParts(), errs)
		if err != nil {
			t.Fatal(err)
		}
		want := &lia.Result{
			LossRates:  []float64{0, 0, 0.3, 0.7, 0.1, 0.6, 0},
			LogRates:   []float64{0, 0, -3, -7, -1, -6, 0},
			Variances:  []float64{0, 0, 3, 7, 1, 6, 0},
			Kept:       []int{2, 3, 5},
			Removed:    []int{4},
			Unresolved: []int{0, 1, 6},
			Epoch:      9,
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v\nwant %+v", got, want)
		}
	})

	t.Run("all failed", func(t *testing.T) {
		errs := make([]error, 3)
		for c := range errs {
			errs[c] = fmt.Errorf("component %d: %w", c, lia.ErrTooFewSnapshots)
		}
		got, err := lia.GatherResult(ctx, 7, gatherLinks, make([]*lia.Result, 3), errs)
		if got != nil || !errors.Is(err, lia.ErrTooFewSnapshots) {
			t.Fatalf("got %v, %v; want nil and an error wrapping ErrTooFewSnapshots", got, err)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		got, err := lia.GatherResult(cctx, 7, gatherLinks, gatherParts(), make([]error, 3))
		if got != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, %v; want nil, context.Canceled", got, err)
		}
	})
}

func TestGatherSteadyContract(t *testing.T) {
	ctx := context.Background()

	got, err := lia.GatherSteady(ctx, 7, gatherLinks, steadyParts(gatherParts()), make([]error, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := &lia.SteadyState{Variances: []float64{2, 4, 3, 7, 1, 6, 5}, Kept: []int{0, 2, 3, 5, 6}, Removed: []int{1, 4}, Epoch: 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("all healthy: got %+v\nwant %+v", got, want)
	}

	got, err = lia.GatherSteady(ctx, 7, gatherLinks, steadyParts(gatherParts()), []error{nil, errors.New("down"), nil})
	if err != nil {
		t.Fatal(err)
	}
	want = &lia.SteadyState{Variances: []float64{2, 0, 3, 7, 1, 6, 0}, Kept: []int{0, 2, 3, 5}, Removed: []int{4},
		Unresolved: []int{1, 6}, Epoch: 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one failed: got %+v\nwant %+v", got, want)
	}

	// A healthy part's own Unresolved maps through its link map.
	got, err = lia.GatherSteady(ctx, 7, gatherLinks, steadyParts(nestedParts()), make([]error, 3))
	if err != nil {
		t.Fatal(err)
	}
	want = &lia.SteadyState{Variances: []float64{0, 4, 3, 7, 1, 6, 5}, Kept: []int{2, 3, 5, 6}, Removed: []int{1, 4},
		Unresolved: []int{0}, Epoch: 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nested part: got %+v\nwant %+v", got, want)
	}

	errs := []error{lia.ErrTooFewSnapshots, lia.ErrTooFewSnapshots, lia.ErrTooFewSnapshots}
	if _, err := lia.GatherSteady(ctx, 7, gatherLinks, make([]*lia.SteadyState, 3), errs); !errors.Is(err, lia.ErrTooFewSnapshots) {
		t.Fatalf("all failed: err %v, want ErrTooFewSnapshots", err)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := lia.GatherSteady(cctx, 7, gatherLinks, steadyParts(gatherParts()), make([]error, 3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err %v, want context.Canceled", err)
	}
}

func TestGatherStats(t *testing.T) {
	comps := []lia.Stats{
		{StateEpoch: 40, Rebuilds: 3, ElimReuses: 1, DeltaRebuilds: 2},
		// Serving stale state after a failed rebuild.
		{StateEpoch: 30, Rebuilds: 2, RebuildFailures: 1, Degraded: true, LastError: "stale"},
		// Failing with nothing built yet: unhealthy without Degraded.
		{StateEpoch: -1, RebuildFailures: 2},
	}
	for c, want := range []bool{false, true, true} {
		if got := comps[c].Unhealthy(); got != want {
			t.Errorf("component %d Unhealthy = %v, want %v", c, got, want)
		}
	}
	got := lia.GatherStats(50, comps)
	want := lia.Stats{Snapshots: 50, StateEpoch: -1, EpochLag: 50, Rebuilds: 5, ElimReuses: 1,
		RebuildFailures: 3, DeltaRebuilds: 2, Degraded: true, DegradedComponents: 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}

	// Every component built: the oldest state sets the epoch, and a lag the
	// counters raced negative clamps to zero.
	healthy := []lia.Stats{{StateEpoch: 52}, {StateEpoch: 51, StateAge: time.Second}}
	got = lia.GatherStats(50, healthy)
	if got.StateEpoch != 51 || got.EpochLag != 0 || got.Degraded || got.DegradedComponents != 0 || got.StateAge != 0 {
		t.Fatalf("healthy fold = %+v, want StateEpoch 51, EpochLag 0, healthy, caller-owned fields untouched", got)
	}
}
