package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"lia/internal/linalg"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// bisectionOracle is the paper-sequential elimination as a plain binary
// search over suffixes of the ascending-variance order, without a seed:
// the reference the seeded search must reproduce bit for bit.
func bisectionOracle(rm *topology.RoutingMatrix, variances []float64) (kept, removed []int, t int) {
	nc := rm.NumLinks()
	order := ascendingByVariance(variances)
	suffixIndependent := func(t int) bool {
		cols := order[t:]
		if len(cols) == 0 {
			return true
		}
		if len(cols) > rm.NumPaths() {
			return false
		}
		return linalg.Rank(rm.DenseColumns(cols)) == len(cols)
	}
	lo := nc - rm.Rank()
	hi := nc
	if suffixIndependent(lo) {
		hi = lo
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if suffixIndependent(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	kept = slices.Clone(order[hi:])
	removed = slices.Clone(order[:hi])
	slices.Sort(kept)
	slices.Sort(removed)
	return kept, removed, hi
}

type elimTopology struct {
	name string
	rm   *topology.RoutingMatrix
}

// elimTopologies returns the routing matrices the elimination tests sweep:
// single-beacon topogen trees of 25 and 100 paths over three seeds and of
// 300 paths over two, a multi-beacon mesh whose rank is below its path
// count, and the fluttering topology of the Phase-1 fallback test.
func elimTopologies(t *testing.T) []elimTopology {
	t.Helper()
	var out []elimTopology
	build := func(name string, paths []topology.Path) *topology.RoutingMatrix {
		rm, err := topology.Build(paths)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, elimTopology{name, rm})
		return rm
	}
	for _, size := range []struct{ paths, nodes, seeds int }{{25, 70, 3}, {100, 260, 3}, {300, 800, 2}} {
		for seed := uint64(1); seed <= uint64(size.seeds); seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(size.paths)))
			net := topogen.Tree(rng, size.nodes, 6)
			if len(net.Hosts) < size.paths {
				t.Fatalf("tree of %d nodes has %d hosts, need %d", size.nodes, len(net.Hosts), size.paths)
			}
			build(fmt.Sprintf("tree%d/seed%d", size.paths, seed),
				topogen.Routes(net, []int{0}, net.Hosts[:size.paths]))
		}
	}
	rng := rand.New(rand.NewPCG(7, 9))
	net := topogen.BarabasiAlbert(rng, 40, 2)
	hosts := topogen.SelectHosts(rng, net, 12)
	mesh := build("mesh", topogen.Routes(net, hosts[:3], hosts))
	if r := mesh.Rank(); r >= mesh.NumPaths() {
		t.Fatalf("mesh: rank(R) = %d, want below np = %d", r, mesh.NumPaths())
	}
	build("flutter", []topology.Path{
		{Beacon: 0, Dst: 1, Links: []int{0, 1, 2, 4}},
		{Beacon: 0, Dst: 2, Links: []int{0, 1, 3, 5}},
		{Beacon: 0, Dst: 3, Links: []int{0, 1, 3, 5}},
		{Beacon: 0, Dst: 4, Links: []int{0, 2, 3, 6}},
	})
	return out
}

// elimVariances returns the variance vectors the elimination tests sweep:
// random, all tied, mostly zero, and already sorted ascending.
type elimVariance struct {
	kind string
	vars []float64
}

func elimVariances(rng *rand.Rand, nc int) []elimVariance {
	random := make([]float64, nc)
	tied := make([]float64, nc)
	zeros := make([]float64, nc)
	sorted := make([]float64, nc)
	for k := 0; k < nc; k++ {
		random[k] = rng.Float64()
		tied[k] = 0.25
		if rng.IntN(5) == 0 {
			zeros[k] = 0.01 * rng.Float64()
		}
		sorted[k] = float64(k) * 1e-3
	}
	return []elimVariance{{"random", random}, {"tied", tied}, {"zeros", zeros}, {"sorted", sorted}}
}

// TestSequentialSuffixMatchesBisection asserts the seeded paper-sequential
// elimination returns the same kept/removed partition as the unseeded
// bisection over every test topology and variance shape, at one and
// several rank-test workers.
func TestSequentialSuffixMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1))
	for _, tp := range elimTopologies(t) {
		for _, v := range elimVariances(rng, tp.rm.NumLinks()) {
			wantKept, wantRemoved, _ := bisectionOracle(tp.rm, v.vars)
			for _, workers := range []int{1, 4} {
				kept, removed := EliminateWorkers(tp.rm, v.vars, EliminatePaperSequential, workers)
				if !reflect.DeepEqual(kept, wantKept) || !reflect.DeepEqual(removed, wantRemoved) {
					t.Fatalf("%s/%s workers=%d: kept %v removed %v, bisection kept %v removed %v",
						tp.name, v.kind, workers, kept, removed, wantKept, wantRemoved)
				}
			}
		}
	}
}

// TestSuffixBoundaryAnyGuess seeds the rank-test bisection with wrong
// guesses — below the lower bound, above nc, one and several steps off the
// walk's guess — and asserts every seed finds the oracle's boundary. It
// logs how often the walk's own guess missed, which costs rank tests but
// never changes the answer.
func TestSuffixBoundaryAnyGuess(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 2))
	cases, misses := 0, 0
	for _, tp := range elimTopologies(t) {
		nc := tp.rm.NumLinks()
		lo := nc - tp.rm.Rank()
		for _, v := range elimVariances(rng, nc) {
			_, _, want := bisectionOracle(tp.rm, v.vars)
			order := ascendingByVariance(v.vars)
			g := nc - len(descendingBasis(tp.rm, order, true))
			cases++
			if g != want {
				misses++
			}
			guesses := []int{g, lo - 1, lo - 5, -1, nc + 1, nc + 7, g - 1, g + 1}
			for _, k := range []int{2, 3, 7, 20} {
				guesses = append(guesses, g-k, g+k)
			}
			for _, guess := range guesses {
				if got := suffixBoundary(tp.rm, order, guess, 1); got != want {
					t.Fatalf("%s/%s: guess %d (walk %d) found t=%d, bisection t=%d",
						tp.name, v.kind, guess, g, got, want)
				}
			}
		}
	}
	t.Logf("walk guessed the boundary in %d of %d cases", cases-misses, cases)
}

// TestBisectSuffixProbes pins the seeded search on a synthetic monotone
// predicate: every guess finds the boundary, and the right guess costs two
// probes (one when it is the lower bound).
func TestBisectSuffixProbes(t *testing.T) {
	const lo, hi = 3, 40
	for boundary := lo; boundary <= hi; boundary++ {
		for guess := lo - 4; guess <= hi+4; guess++ {
			probes := 0
			got := bisectSuffix(lo, hi, guess, func(t int) bool {
				probes++
				return t >= boundary
			})
			if got != boundary {
				t.Fatalf("boundary %d guess %d: got %d", boundary, guess, got)
			}
			want := 2
			if boundary == lo || boundary == hi {
				want = 1
			}
			if guess == boundary && probes != want {
				t.Fatalf("boundary %d: right guess took %d probes, want %d", boundary, probes, want)
			}
		}
	}
}
