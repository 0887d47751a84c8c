package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"lia/internal/stats"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// phase1Workload builds a randomized topology plus two moment states: the
// initial accumulator and an extended one with extra snapshots, so tests can
// exercise both the cold (cache-building) and warm (factor-reusing) paths of
// Phase1 against genuinely different right-hand sides.
func phase1Workload(t *testing.T, seed uint64) (*topology.RoutingMatrix, *stats.CovAccumulator, *stats.CovAccumulator) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed*31+7))
	net := topogen.Tree(rng, 70, 5)
	paths := topogen.Routes(net, []int{0}, net.Hosts)
	rm, err := topology.Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, rm.NumLinks())
	for k := range truth {
		if rng.Float64() < 0.15 {
			truth[k] = 0.005 + 0.02*rng.Float64()
		} else {
			truth[k] = 1e-6 * rng.Float64()
		}
	}
	acc := syntheticSnapshots(rng, rm, truth, 150)
	more := acc.Clone()
	x := make([]float64, rm.NumLinks())
	y := make([]float64, rm.NumPaths())
	for t := 0; t < 60; t++ {
		for k := range x {
			x[k] = rng.NormFloat64() * math.Sqrt(truth[k])
		}
		for i := range y {
			y[i] = 0
			for _, k := range rm.Row(i) {
				y[i] += x[k]
			}
		}
		more.Add(y)
	}
	return rm, acc, more
}

// TestPhase1MatchesEstimateVariances asserts the cached-factorization solver
// is bitwise identical to the from-scratch EstimateVariances across every
// negative-covariance policy, both solver methods, and several worker
// counts — on both the cold (first) and warm (cached-factor) calls.
func TestPhase1MatchesEstimateVariances(t *testing.T) {
	rm, acc, more := phase1Workload(t, 13)
	for _, method := range []VarianceMethod{VarianceNormalEquations, VarianceDenseQR} {
		for _, pol := range []NegativeCovPolicy{ClampNegativeCov, DropNegativeCov, KeepNegativeCov} {
			for _, workers := range []int{0, 1, 3, 8} {
				opts := VarianceOptions{Method: method, NegPolicy: pol, Workers: workers}
				p1 := NewPhase1(rm, opts)
				for pass, cov := range []*stats.CovAccumulator{acc, more} {
					want, err := EstimateVariances(rm, cov, opts)
					if err != nil {
						t.Fatalf("%v/%v/w%d pass %d: EstimateVariances: %v", method, pol, workers, pass, err)
					}
					got, err := p1.Estimate(cov)
					if err != nil {
						t.Fatalf("%v/%v/w%d pass %d: Phase1: %v", method, pol, workers, pass, err)
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("%v/%v/w%d pass %d link %d: cached %g != from-scratch %g (not bitwise identical)",
								method, pol, workers, pass, k, got[k], want[k])
						}
					}
				}
				if wantWarm := pol != DropNegativeCov; p1.Warm() != wantWarm {
					t.Fatalf("%v/%v/w%d: Warm() = %v, want %v", method, pol, workers, p1.Warm(), wantWarm)
				}
			}
		}
	}
}

// TestPhase1ViewMatchesAccumulator: estimating against a frozen CovSnapshot
// (what lia.Engine captures under its ingest lock) must equal estimating
// against the live accumulator, bit for bit.
func TestPhase1ViewMatchesAccumulator(t *testing.T) {
	rm, acc, _ := phase1Workload(t, 29)
	opts := VarianceOptions{Method: VarianceNormalEquations}
	p1 := NewPhase1(rm, opts)
	live, err := p1.Estimate(acc)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := p1.Estimate(acc.View())
	if err != nil {
		t.Fatal(err)
	}
	for k := range live {
		if live[k] != frozen[k] {
			t.Fatalf("link %d: view estimate %g != accumulator estimate %g", k, frozen[k], live[k])
		}
	}
}

// TestPhase1Errors mirrors the EstimateVariances input gating.
func TestPhase1Errors(t *testing.T) {
	rm, _, _ := phase1Workload(t, 41)
	p1 := NewPhase1(rm, VarianceOptions{})
	if _, err := p1.Estimate(stats.NewCovAccumulator(rm.NumPaths())); !errors.Is(err, ErrTooFewSnapshots) {
		t.Fatalf("err = %v, want ErrTooFewSnapshots", err)
	}
	wrong := stats.NewCovAccumulator(rm.NumPaths() + 1)
	wrong.Add(make([]float64, rm.NumPaths()+1))
	wrong.Add(make([]float64, rm.NumPaths()+1))
	if _, err := p1.Estimate(wrong); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("err = %v, want ErrDimensionMismatch", err)
	}
}

// TestGramBandsPartition sanity-checks the row-band layout: monotone,
// covering, and degenerating to one band for one worker.
func TestGramBandsPartition(t *testing.T) {
	rm, _, _ := phase1Workload(t, 53)
	nc := rm.NumLinks()
	for _, workers := range []int{1, 2, 3, 7, nc, nc + 5} {
		bands := gramBands(rm, workers)
		if bands[0] != 0 || bands[len(bands)-1] != nc {
			t.Fatalf("workers=%d: bands %v do not cover [0,%d)", workers, bands, nc)
		}
		for i := 1; i < len(bands); i++ {
			if bands[i] < bands[i-1] {
				t.Fatalf("workers=%d: bands %v not monotone", workers, bands)
			}
		}
	}
	if b := gramBands(rm, 1); len(b) != 2 {
		t.Fatalf("one worker should get one band, got %v", b)
	}
}

// TestPhase1DenseRankDeficientFallback: on a fluttering topology whose
// augmented matrix is rank-deficient (more equations than links, rank one
// short), the cached dense-QR solver caches the pivoted minimum-norm
// fallback and stays bitwise-equal to EstimateVariances under clamp.
func TestPhase1DenseRankDeficientFallback(t *testing.T) {
	rm, err := topology.Build([]topology.Path{
		{Beacon: 0, Dst: 1, Links: []int{0, 1, 2, 4}},
		{Beacon: 0, Dst: 2, Links: []int{0, 1, 3, 5}},
		{Beacon: 0, Dst: 3, Links: []int{0, 1, 3, 5}},
		{Beacon: 0, Dst: 4, Links: []int{0, 2, 3, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := AugmentedRank(rm); r != rm.NumLinks()-1 {
		t.Fatalf("rank(A) = %d, want %d", r, rm.NumLinks()-1)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	truth := make([]float64, rm.NumLinks())
	for k := range truth {
		truth[k] = 0.01 * rng.Float64()
	}
	acc := syntheticSnapshots(rng, rm, truth, 80)
	opts := VarianceOptions{Method: VarianceDenseQR}
	p1 := NewPhase1(rm, opts)
	for pass := 0; pass < 2; pass++ {
		want, err := EstimateVariances(rm, acc, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p1.Estimate(acc)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("pass %d link %d: cached fallback %g != EstimateVariances %g", pass, k, got[k], want[k])
			}
		}
		acc = syntheticSnapshots(rng, rm, truth, 40)
	}
	if !p1.Warm() || p1.dense.minNorm == nil || p1.dense.qr != nil {
		t.Fatal("rank-deficient A did not cache the pivoted fallback")
	}
}

// TestPhase1ConcurrentDenseQR shares one dense-QR Phase1 across goroutines
// that race to build the cached factor and then solve against different
// moment states; every answer must be bitwise-equal to EstimateVariances.
// Run under -race.
func TestPhase1ConcurrentDenseQR(t *testing.T) {
	rm, acc, more := phase1Workload(t, 61)
	opts := VarianceOptions{Method: VarianceDenseQR}
	covs := []*stats.CovAccumulator{acc, more}
	want := make([][]float64, len(covs))
	for c, cov := range covs {
		v, err := EstimateVariances(rm, cov, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = v
	}
	p1 := NewPhase1(rm, opts)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for rep := 0; rep < 4; rep++ {
				c := (g + rep) % len(covs)
				got, err := p1.Estimate(covs[c])
				if err != nil {
					errs <- err
					return
				}
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[c][k]) {
						errs <- fmt.Errorf("goroutine %d rep %d link %d: %g != %g", g, rep, k, got[k], want[c][k])
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !p1.Warm() || p1.dense.qr == nil {
		t.Fatal("dense-QR Phase1 did not cache its factor")
	}
}
