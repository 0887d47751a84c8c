package linalg_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"lia/internal/linalg"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// augmented materializes the 0/1 augmented matrix A of rm (one row per path
// pair with a non-empty support, canonical pair order) and its shared-row
// form: the first n rows stored individually, then one stored row per
// distinct later support, with the row→stored-row index.
func augmented(t *testing.T, rm *topology.RoutingMatrix) (a, stored *linalg.Dense, rowOf []int32) {
	t.Helper()
	if err := rm.PrecomputePairSupports(); err != nil {
		t.Fatal(err)
	}
	var supports [][]int32
	rm.VisitPairSupports(0, rm.NumPairs(), func(_, _ int, support []int32) {
		if len(support) > 0 {
			supports = append(supports, support)
		}
	})
	n := rm.NumLinks()
	a = linalg.NewDense(len(supports), n)
	for r, support := range supports {
		for _, k := range support {
			a.Set(r, int(k), 1)
		}
	}
	rowOf = make([]int32, len(supports))
	var src []int // row of a each stored row copies
	ids := make(map[string]int32)
	for r, support := range supports {
		if r < n {
			rowOf[r] = int32(len(src))
			src = append(src, r)
			continue
		}
		key := fmt.Sprint(support)
		u, ok := ids[key]
		if !ok {
			u = int32(len(src))
			ids[key] = u
			src = append(src, r)
		}
		rowOf[r] = u
	}
	stored = linalg.NewDense(len(src), n)
	for u, r := range src {
		copy(stored.Row(u), a.Row(r))
	}
	return a, stored, rowOf
}

func treeMatrix(t *testing.T, seed uint64, nodes, branch int) *topology.RoutingMatrix {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed*17+3))
	net := topogen.Tree(rng, nodes, branch)
	rm, err := topology.Build(topogen.Routes(net, []int{0}, net.Hosts))
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: x[%d] = %v, want %v (not bitwise identical)", what, k, got[k], want[k])
		}
	}
}

// TestQRSharedRowsBitwiseOnTrees: on seeded topogen trees the shared-row
// factor of the augmented matrix — support-keyed, each distinct non-pivot
// row stored and factored once — solves bitwise-identically to
// NewQR(a).Solve, and really is smaller.
func TestQRSharedRowsBitwiseOnTrees(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 5, 8} {
		rm := treeMatrix(t, seed, 60+10*int(seed), 4)
		a, stored, rowOf := augmented(t, rm)
		m, n := a.Dims()
		full := linalg.NewQR(a)
		if !full.FullRank() {
			t.Fatalf("seed %d: tree augmented matrix %d×%d not full rank", seed, m, n)
		}
		shared := linalg.NewQRSharedRows(stored, rowOf)
		if !shared.FullRank() {
			t.Fatalf("seed %d: shared-row factor lost full rank", seed)
		}
		if s := shared.StoredRows(); s >= m/2 {
			t.Fatalf("seed %d: shared-row factor stores %d of %d rows, want < half", seed, s, m)
		}
		t.Logf("seed %d: %d×%d, shared-row factor stores %d rows", seed, m, n, shared.StoredRows())
		rng := rand.New(rand.NewPCG(seed, 99))
		for trial := 0; trial < 3; trial++ {
			b := make([]float64, m)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want, err := full.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, n)
			work := append([]float64(nil), b...)
			if err := shared.SolveWith(got, work, work); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			sameBits(t, fmt.Sprintf("seed %d trial %d", seed, trial), got, want)
		}
	}
}

// TestQRSharedRowsRejectsSharedPivots: a pivot row may not be shared — it
// becomes a row of R and diverges from its former twins.
func TestQRSharedRowsRejectsSharedPivots(t *testing.T) {
	rows := linalg.NewDenseFrom(2, 2, []float64{1, 0, 0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("NewQRSharedRows accepted a later row mapped onto a pivot row")
		}
	}()
	linalg.NewQRSharedRows(rows, []int32{0, 1, 1})
}

// rankDeficientPaths is a fluttering topology (paths 0 and 3 split after
// link 0 and rejoin at link 2, violating Theorem 1's T.2) with two
// identically routed destinations: its augmented matrix has more rows than
// columns but rank nc−1.
func rankDeficientPaths() []topology.Path {
	return []topology.Path{
		{Beacon: 0, Dst: 1, Links: []int{0, 1, 2, 4}},
		{Beacon: 0, Dst: 2, Links: []int{0, 1, 3, 5}},
		{Beacon: 0, Dst: 3, Links: []int{0, 1, 3, 5}},
		{Beacon: 0, Dst: 4, Links: []int{0, 2, 3, 6}},
	}
}

// TestQRFullRankMatchesSolve: FullRank, read off R's diagonal, agrees with
// Solve's zero-pivot verdict on a rank-deficient augmented matrix and on a
// full-rank one.
func TestQRFullRankMatchesSolve(t *testing.T) {
	rm, err := topology.Build(rankDeficientPaths())
	if err != nil {
		t.Fatal(err)
	}
	for name, rm := range map[string]*topology.RoutingMatrix{
		"deficient": rm,
		"tree":      treeMatrix(t, 4, 40, 3),
	} {
		a, _, _ := augmented(t, rm)
		m, n := a.Dims()
		if m < n {
			t.Fatalf("%s: %d×%d is under-determined", name, m, n)
		}
		f := linalg.NewQR(a)
		_, err := f.Solve(make([]float64, m))
		deficient := errors.Is(err, linalg.ErrRankDeficient)
		if f.FullRank() == deficient {
			t.Fatalf("%s: FullRank() = %v but Solve err = %v", name, f.FullRank(), err)
		}
		if want := name == "deficient"; deficient != want {
			t.Fatalf("%s: rank deficient = %v, want %v", name, deficient, want)
		}
	}
}

// TestQRSolveConcurrent shares one factor — full and shared-row — across
// goroutines calling Solve and SolveWith. Run under -race: Solve once wrote
// into a workspace held by the factor.
func TestQRSolveConcurrent(t *testing.T) {
	rm := treeMatrix(t, 7, 50, 4)
	a, stored, rowOf := augmented(t, rm)
	m, n := a.Dims()
	full := linalg.NewQR(a)
	shared := linalg.NewQRSharedRows(stored, rowOf)
	rng := rand.New(rand.NewPCG(7, 7))
	bs := make([][]float64, 8)
	want := make([][]float64, len(bs))
	for g := range bs {
		bs[g] = make([]float64, m)
		for i := range bs[g] {
			bs[g][i] = rng.NormFloat64()
		}
		x, err := linalg.NewQR(a).Solve(bs[g])
		if err != nil {
			t.Fatal(err)
		}
		want[g] = x
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(bs))
	for g := range bs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				x, err := full.Solve(bs[g])
				if err != nil {
					errs <- err
					return
				}
				for k := range x {
					if x[k] != want[g][k] {
						errs <- fmt.Errorf("goroutine %d: Solve x[%d] = %v, want %v", g, k, x[k], want[g][k])
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			x, work := make([]float64, n), make([]float64, m)
			for rep := 0; rep < 20; rep++ {
				if err := shared.SolveWith(x, bs[g], work); err != nil {
					errs <- err
					return
				}
				for k := range x {
					if x[k] != want[g][k] {
						errs <- fmt.Errorf("goroutine %d: shared-row x[%d] = %v, want %v", g, k, x[k], want[g][k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
