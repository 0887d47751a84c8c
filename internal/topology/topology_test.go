package topology

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"lia/internal/linalg"
)

// figure1Paths builds the single-beacon example of Figure 1 of the paper:
// B1 → D1, D2, D3 over links e1..e5 (IDs 1..5).
//
//	B1 --e1--> a --e2--> D1
//	            a --e3--> b --e4--> D2
//	                       b --e5--> D3
func figure1Paths() []Path {
	return []Path{
		{Beacon: 0, Dst: 2, Links: []int{1, 2}},
		{Beacon: 0, Dst: 4, Links: []int{1, 3, 4}},
		{Beacon: 0, Dst: 5, Links: []int{1, 3, 5}},
	}
}

func TestBuildFigure1(t *testing.T) {
	rm, err := Build(figure1Paths())
	if err != nil {
		t.Fatal(err)
	}
	if got := rm.NumPaths(); got != 3 {
		t.Fatalf("NumPaths = %d, want 3", got)
	}
	// All five links are distinguishable (distinct path sets).
	if got := rm.NumLinks(); got != 5 {
		t.Fatalf("NumLinks = %d, want 5", got)
	}
	// R must be rank deficient: rank 3 < 5 columns (the paper's point that
	// first moments cannot identify link loss rates).
	if got := rm.Rank(); got != 3 {
		t.Fatalf("rank(R) = %d, want 3", got)
	}
}

func TestBuildAliasReduction(t *testing.T) {
	// A chain B → x → y → D probed by one path: all three links are
	// indistinguishable and must merge into one virtual link.
	paths := []Path{{Beacon: 0, Dst: 3, Links: []int{10, 11, 12}}}
	rm, err := Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	if got := rm.NumLinks(); got != 1 {
		t.Fatalf("NumLinks = %d, want 1 after alias reduction", got)
	}
	if got := rm.Members(0); !reflect.DeepEqual(got, []int{10, 11, 12}) {
		t.Fatalf("Members(0) = %v, want [10 11 12]", got)
	}
	if k, ok := rm.VirtualOf(11); !ok || k != 0 {
		t.Fatalf("VirtualOf(11) = %d,%v want 0,true", k, ok)
	}
	if _, ok := rm.VirtualOf(99); ok {
		t.Fatal("VirtualOf(99) should report uncovered")
	}
}

func TestBuildMergesNonConsecutiveIndistinguishable(t *testing.T) {
	// Links 1 and 3 appear in exactly the same (single) path, separated by
	// link 2 which also appears in a second path: 1 and 3 merge, 2 stays
	// separate.
	paths := []Path{
		{Beacon: 0, Dst: 9, Links: []int{1, 2, 3}},
		{Beacon: 8, Dst: 9, Links: []int{4, 2}},
	}
	rm, err := Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	if got := rm.NumLinks(); got != 3 {
		t.Fatalf("NumLinks = %d, want 3 (merge {1,3}, keep {2}, {4})", got)
	}
	k1, _ := rm.VirtualOf(1)
	k3, _ := rm.VirtualOf(3)
	k2, _ := rm.VirtualOf(2)
	if k1 != k3 {
		t.Fatalf("links 1 and 3 should share a virtual link, got %d and %d", k1, k3)
	}
	if k2 == k1 {
		t.Fatal("link 2 should not merge with links 1/3")
	}
}

func TestBuildRejectsEmptyAndLoopedPaths(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("Build(nil) should fail")
	}
	if _, err := Build([]Path{{Beacon: 0, Dst: 1}}); err == nil {
		t.Error("Build with empty link list should fail")
	}
	if _, err := Build([]Path{{Beacon: 0, Dst: 1, Links: []int{5, 6, 5}}}); err == nil {
		t.Error("Build with a routing loop should fail")
	}
}

func TestRowsColumnsConsistent(t *testing.T) {
	rm, err := Build(figure1Paths())
	if err != nil {
		t.Fatal(err)
	}
	// Row/column cross-consistency: k ∈ Row(i) ⇔ i ∈ PathsThrough(k).
	for i := 0; i < rm.NumPaths(); i++ {
		for _, k := range rm.Row(i) {
			found := false
			for _, p := range rm.PathsThrough(k) {
				if p == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("link %d lists paths %v, missing %d", k, rm.PathsThrough(k), i)
			}
		}
	}
	for k := 0; k < rm.NumLinks(); k++ {
		for _, p := range rm.PathsThrough(k) {
			found := false
			for _, kk := range rm.Row(p) {
				if kk == k {
					found = true
				}
			}
			if !found {
				t.Fatalf("path %d row %v missing link %d", p, rm.Row(p), k)
			}
		}
	}
}

func TestIntersectRows(t *testing.T) {
	rm, err := Build(figure1Paths())
	if err != nil {
		t.Fatal(err)
	}
	// Paths 1 and 2 share links e1 and e3.
	got := rm.IntersectRows(1, 2, nil)
	if len(got) != 2 {
		t.Fatalf("IntersectRows(1,2) = %v, want 2 shared virtual links", got)
	}
	// Self intersection = own row.
	self := rm.IntersectRows(0, 0, nil)
	if !reflect.DeepEqual(self, rm.Row(0)) {
		t.Fatalf("self-intersection %v != row %v", self, rm.Row(0))
	}
}

func TestDenseMatchesRows(t *testing.T) {
	rm, err := Build(figure1Paths())
	if err != nil {
		t.Fatal(err)
	}
	d := rm.Dense()
	for i := 0; i < rm.NumPaths(); i++ {
		rowSum := 0.0
		for k := 0; k < rm.NumLinks(); k++ {
			rowSum += d.At(i, k)
		}
		if int(rowSum) != len(rm.Row(i)) {
			t.Fatalf("dense row %d sum %v != |row| %d", i, rowSum, len(rm.Row(i)))
		}
	}
}

func TestDenseColumnsSubset(t *testing.T) {
	check := func(rm *RoutingMatrix, cols []int) {
		t.Helper()
		all := rm.Dense()
		sub := rm.DenseColumns(cols)
		if r, c := sub.Dims(); r != rm.NumPaths() || c != len(cols) {
			t.Fatalf("DenseColumns(%v) is %dx%d, want %dx%d", cols, r, c, rm.NumPaths(), len(cols))
		}
		for i := 0; i < rm.NumPaths(); i++ {
			for j, k := range cols {
				if sub.At(i, j) != all.At(i, k) {
					t.Fatalf("DenseColumns(%v) mismatch at (%d,%d)", cols, i, j)
				}
			}
		}
	}
	rm, err := Build(figure1Paths())
	if err != nil {
		t.Fatal(err)
	}
	check(rm, []int{2, 0})
	// Shuffled subsets of a larger matrix, every entry compared.
	rng := rand.New(rand.NewPCG(47, 48))
	if rm, err = Build(randomPaths(rng, 40)); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		check(rm, rng.Perm(rm.NumLinks())[:rng.IntN(rm.NumLinks())+1])
	}
}

// TestRoutingMatrixRankMemo checks the memoised rank against a fresh
// pivoted-QR rank of the dense R, with the first calls racing on 8
// goroutines (run under -race).
func TestRoutingMatrixRankMemo(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 50))
	twoBeacons := append(starPaths(0, 0, 6), starPaths(0, 1, 6)...)
	for name, paths := range map[string][]Path{
		"figure1":    figure1Paths(),
		"random":     randomPaths(rng, 60),
		"twoBeacons": twoBeacons,
	} {
		rm, err := Build(paths)
		if err != nil {
			t.Fatal(err)
		}
		want := linalg.Rank(rm.Dense())
		got := make([]int, 8)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = rm.Rank()
			}(w)
		}
		wg.Wait()
		for w, r := range got {
			if r != want {
				t.Fatalf("%s: goroutine %d saw rank %d, want %d", name, w, r, want)
			}
		}
		if r := rm.Rank(); r != want {
			t.Fatalf("%s: memoised rank %d, want %d", name, r, want)
		}
	}
}

func TestVirtualRates(t *testing.T) {
	paths := []Path{{Beacon: 0, Dst: 3, Links: []int{10, 11}}}
	rm, err := Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	rates := rm.VirtualRates(map[int]float64{10: 0.1, 11: 0.2})
	// Merged virtual link loss = 1 − 0.9·0.8 = 0.28.
	if len(rates) != 1 || rates[0] < 0.2799 || rates[0] > 0.2801 {
		t.Fatalf("VirtualRates = %v, want [0.28]", rates)
	}
}

func TestFindFlutteringDetects(t *testing.T) {
	// P0 and P1 share links 1 and 3 but not the link in between: the
	// classic route-fluttering violation of T.2.
	paths := []Path{
		{Beacon: 0, Dst: 9, Links: []int{1, 2, 3}},
		{Beacon: 7, Dst: 9, Links: []int{0, 1, 4, 3}},
	}
	got := FindFluttering(paths)
	if len(got) != 1 || got[0].I != 0 || got[0].J != 1 {
		t.Fatalf("FindFluttering = %v, want [{0 1}]", got)
	}
}

func TestFindFlutteringAcceptsTreeAndSegments(t *testing.T) {
	// Shared contiguous segment (links 1,2) then divergence: legal.
	paths := []Path{
		{Beacon: 0, Dst: 5, Links: []int{1, 2, 3}},
		{Beacon: 0, Dst: 6, Links: []int{1, 2, 4}},
		{Beacon: 9, Dst: 6, Links: []int{8, 2, 4}},
	}
	if got := FindFluttering(paths); len(got) != 0 {
		t.Fatalf("FindFluttering = %v, want none", got)
	}
}

func TestFindFlutteringReversedSegment(t *testing.T) {
	// Shared links appear in opposite order: contiguous in positions but a
	// direction flip, which must be flagged.
	paths := []Path{
		{Beacon: 0, Dst: 5, Links: []int{1, 2}},
		{Beacon: 3, Dst: 6, Links: []int{2, 1}},
	}
	if got := FindFluttering(paths); len(got) != 1 {
		t.Fatalf("FindFluttering = %v, want one violation", got)
	}
}

func TestRemoveFluttering(t *testing.T) {
	paths := []Path{
		{Beacon: 0, Dst: 9, Links: []int{1, 2, 3}},
		{Beacon: 7, Dst: 9, Links: []int{0, 1, 4, 3}},
		{Beacon: 5, Dst: 6, Links: []int{7}},
	}
	kept, removed := RemoveFluttering(paths)
	if len(kept) != 2 || len(removed) != 1 {
		t.Fatalf("kept %d removed %v, want 2 kept 1 removed", len(kept), removed)
	}
	if got := FindFluttering(kept); len(got) != 0 {
		t.Fatalf("still fluttering after removal: %v", got)
	}
}

func TestRemoveFlutteringNoViolations(t *testing.T) {
	paths := figure1Paths()
	kept, removed := RemoveFluttering(paths)
	if len(kept) != len(paths) || len(removed) != 0 {
		t.Fatalf("expected no removals, got removed=%v", removed)
	}
}

// randomPaths builds a random single-beacon tree-ish path set for exercising
// the pair-support index: path p walks a shared prefix of links plus a
// private suffix, so intersections of every size occur.
func randomPaths(rng *rand.Rand, np int) []Path {
	paths := make([]Path, np)
	for p := 0; p < np; p++ {
		prefix := rng.IntN(6)
		links := make([]int, 0, prefix+3)
		for l := 1; l <= prefix; l++ {
			links = append(links, l) // shared prefix links 1..prefix
		}
		links = append(links, 100+p) // private leaf link
		paths[p] = Path{Beacon: 0, Dst: p + 1, Links: links}
	}
	return paths
}

// toInt32 widens an []int support to the pair index's packed width for
// comparisons.
func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

func TestPairSupportMatchesIntersectRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	rm, err := Build(randomPaths(rng, 40))
	if err != nil {
		t.Fatal(err)
	}
	np := rm.NumPaths()
	if want := np * (np + 1) / 2; rm.NumPairs() != want {
		t.Fatalf("NumPairs = %d, want %d", rm.NumPairs(), want)
	}
	for i := 0; i < np; i++ {
		for j := i; j < np; j++ {
			want := toInt32(rm.IntersectRows(i, j, nil))
			got := rm.PairSupport(i, j)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("PairSupport(%d,%d) = %v, want %v", i, j, got, want)
			}
			if sw := rm.PairSupport(j, i); len(sw) > 0 && !reflect.DeepEqual(sw, want) {
				t.Fatalf("PairSupport(%d,%d) (swapped) = %v, want %v", j, i, sw, want)
			}
		}
	}
}

func TestVisitPairSupportsRanges(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	rm, err := Build(randomPaths(rng, 23))
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ i, j int }
	var fullPairs []pair
	var fullSupports [][]int32
	rm.VisitPairSupports(0, rm.NumPairs(), func(i, j int, support []int32) {
		fullPairs = append(fullPairs, pair{i, j})
		fullSupports = append(fullSupports, support)
	})
	if len(fullPairs) != rm.NumPairs() {
		t.Fatalf("full walk visited %d pairs, want %d", len(fullPairs), rm.NumPairs())
	}
	// The canonical order must agree with PairIndexOf.
	for p, pr := range fullPairs {
		if rm.PairIndexOf(pr.i, pr.j) != p {
			t.Fatalf("pair (%d,%d) visited at position %d, PairIndexOf says %d",
				pr.i, pr.j, p, rm.PairIndexOf(pr.i, pr.j))
		}
	}
	// Any chunked partition must reproduce the full walk exactly.
	for _, chunk := range []int{1, 7, 64, rm.NumPairs()} {
		var pos int
		for lo := 0; lo < rm.NumPairs(); lo += chunk {
			hi := lo + chunk
			if hi > rm.NumPairs() {
				hi = rm.NumPairs()
			}
			rm.VisitPairSupports(lo, hi, func(i, j int, support []int32) {
				if fullPairs[pos] != (pair{i, j}) {
					t.Fatalf("chunk %d: position %d visited (%d,%d), want (%d,%d)",
						chunk, pos, i, j, fullPairs[pos].i, fullPairs[pos].j)
				}
				if !reflect.DeepEqual(support, fullSupports[pos]) {
					t.Fatalf("chunk %d: pair (%d,%d) support %v, want %v",
						chunk, i, j, support, fullSupports[pos])
				}
				pos++
			})
		}
		if pos != rm.NumPairs() {
			t.Fatalf("chunk %d: visited %d pairs, want %d", chunk, pos, rm.NumPairs())
		}
	}
}

func TestPairSupportConcurrentFirstUse(t *testing.T) {
	// The lazy index build must be safe when the first accesses race.
	rng := rand.New(rand.NewPCG(45, 46))
	rm, err := Build(randomPaths(rng, 30))
	if err != nil {
		t.Fatal(err)
	}
	want := toInt32(rm.IntersectRows(0, rm.NumPaths()-1, nil))
	var wg sync.WaitGroup
	got := make([][]int32, 8)
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = rm.PairSupport(0, rm.NumPaths()-1)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if len(want) == 0 && len(got[w]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("goroutine %d saw support %v, want %v", w, got[w], want)
		}
	}
}

func TestPairIndexOverflowGuard(t *testing.T) {
	// The int32-packed index must refuse to build silently-truncated
	// offsets. Lower the capacity to force the guard on a small matrix.
	defer func(old int64) { maxPairIndexEntries = old }(maxPairIndexEntries)
	maxPairIndexEntries = 3

	rng := rand.New(rand.NewPCG(47, 48))
	rm, err := Build(randomPaths(rng, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.PrecomputePairSupports(); !errors.Is(err, ErrPairIndexOverflow) {
		t.Fatalf("PrecomputePairSupports = %v, want ErrPairIndexOverflow", err)
	}
	// Bypassing the error-returning gate still fails loudly, never with a
	// truncated index.
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected PairSupport on an overflowed index to panic")
		}
	}()
	rm.PairSupport(0, 1)
}

func TestPairIndexInt32Width(t *testing.T) {
	// The packed supports must agree with the wide IntersectRows on every
	// pair — the int32 narrowing loses nothing.
	rng := rand.New(rand.NewPCG(49, 50))
	rm, err := Build(randomPaths(rng, 17))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	rm.VisitPairSupports(0, rm.NumPairs(), func(i, j int, support []int32) {
		want := rm.IntersectRows(i, j, nil)
		if len(want) != len(support) {
			t.Fatalf("pair (%d,%d): packed %d links, wide %d", i, j, len(support), len(want))
		}
		for x := range want {
			if int(support[x]) != want[x] {
				t.Fatalf("pair (%d,%d) entry %d: %d vs %d", i, j, x, support[x], want[x])
			}
		}
		total += len(support)
	})
	if total == 0 {
		t.Fatal("degenerate path set: no shared links at all")
	}
}
