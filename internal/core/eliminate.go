package core

import (
	"fmt"
	"math"
	"sort"

	"lia/internal/linalg"
	"lia/internal/topology"
)

// Elimination selects the Phase-2 strategy for shrinking R to a full-column-
// rank R*.
type Elimination int

const (
	// EliminatePaperSequential is the algorithm exactly as printed in the
	// paper: repeatedly remove the remaining column with the smallest
	// variance until R* has full column rank. Because independence of a
	// column suffix is monotone in the number of removals, the loop's end
	// state is the boundary of a binary search over the ascending-variance
	// order. One Gram–Schmidt walk from the highest variance down guesses
	// that boundary and two rank tests confirm it, in place of the about
	// log2(nc) rank tests of a plain bisection.
	EliminatePaperSequential Elimination = iota
	// EliminateGreedyBasis builds R* greedily from the highest-variance
	// column down, keeping a column only if it is linearly independent of
	// the columns already kept. This yields the maximum-variance basis (a
	// matroid-greedy optimum) and never discards an independent congested
	// link, unlike the sequential rule; it is evaluated as an ablation.
	EliminateGreedyBasis
)

func (e Elimination) String() string {
	switch e {
	case EliminateGreedyBasis:
		return "greedy-basis"
	default:
		return "paper-sequential"
	}
}

// Eliminate reduces the routing matrix to a full-column-rank set of columns,
// preferring to keep high-variance (congested) links. It returns the kept
// and removed virtual-link indices; kept is sorted ascending.
func Eliminate(rm *topology.RoutingMatrix, variances []float64, strategy Elimination) (kept, removed []int) {
	return EliminateWorkers(rm, variances, strategy, 1)
}

// EliminateWorkers is Eliminate with the rank tests of the paper-sequential
// strategy running the pivoted-QR factorization over a worker pool (0 sizes
// it to GOMAXPROCS, ≤ 1 runs serial). The Gram–Schmidt walk that guesses the
// boundary is serial; the rank tests confirming it (and any search a wrong
// guess leaves open) use the pool. The factorization's column updates are
// independent, so results are bitwise-identical across worker counts.
func EliminateWorkers(rm *topology.RoutingMatrix, variances []float64, strategy Elimination, workers int) (kept, removed []int) {
	nc := rm.NumLinks()
	if len(variances) != nc {
		panic(fmt.Sprintf("core: %d variances for %d links", len(variances), nc))
	}
	switch strategy {
	case EliminateGreedyBasis:
		kept = greedyBasis(rm, variances)
	default:
		kept = sequentialSuffix(rm, variances, workers)
	}
	keptSet := make(map[int]bool, len(kept))
	for _, k := range kept {
		keptSet[k] = true
	}
	for k := 0; k < nc; k++ {
		if !keptSet[k] {
			removed = append(removed, k)
		}
	}
	sort.Ints(kept)
	return kept, removed
}

// VarianceOrder returns the link indices sorted by (variance, index) —
// ascending, ties broken by index. Both elimination strategies are pure
// functions of this permutation and the routing matrix: both walk it in
// reverse through Gram–Schmidt, sequentialSuffix then confirming the walk's
// boundary with rank tests over suffixes of it; neither reads the variance
// values again. Callers (lia.Engine) exploit that to reuse a cached
// elimination across epochs whose orderings match.
func VarianceOrder(variances []float64) []int {
	return ascendingByVariance(variances)
}

// ascendingByVariance returns link indices sorted by (variance, index).
func ascendingByVariance(variances []float64) []int {
	order := make([]int, len(variances))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := variances[order[a]], variances[order[b]]
		if va != vb {
			return va < vb
		}
		return order[a] < order[b]
	})
	return order
}

// sequentialSuffix finds the smallest t such that the columns with the
// (nc−t) largest variances are linearly independent — exactly the state the
// paper's remove-smallest loop terminates in. One Gram–Schmidt walk down the
// descending-variance order guesses t from the length of its leading run of
// independent columns. The guess seeds the rank-test bisection, which
// confirms it with two rank tests and searches on only if they disagree.
func sequentialSuffix(rm *topology.RoutingMatrix, variances []float64, workers int) []int {
	order := ascendingByVariance(variances)
	guess := len(order) - len(descendingBasis(rm, order, true))
	t := suffixBoundary(rm, order, guess, workers)
	return append([]int(nil), order[t:]...)
}

// suffixBoundary returns the smallest t for which the columns order[t:] are
// linearly independent by the pivoted-QR rank test, searching [nc − rank(R),
// nc] from the seed guess (suffix independence is monotone in t). Any guess
// yields the same t; a good one costs two rank tests.
func suffixBoundary(rm *topology.RoutingMatrix, order []int, guess, workers int) int {
	nc := len(order)
	suffixIndependent := func(t int) bool {
		cols := order[t:]
		if len(cols) == 0 {
			return true
		}
		if len(cols) > rm.NumPaths() {
			return false
		}
		sub := rm.DenseColumns(cols)
		return linalg.RankWorkers(sub, workers) == len(cols)
	}
	// Lower bound: at least nc − rank(R) columns must go.
	return bisectSuffix(nc-rm.Rank(), nc, guess, suffixIndependent)
}

// bisectSuffix returns the smallest t in [lo, hi] with independent(t), for a
// predicate monotone in t that holds at hi. It first tests the guess
// (clamped into the bracket) and its predecessor: when the guess is the
// boundary those two tests settle the answer, otherwise their outcomes
// narrow [lo, hi] before the plain bisection finishes.
func bisectSuffix(lo, hi, guess int, independent func(t int) bool) int {
	g := min(max(guess, lo), hi)
	if g < hi {
		if independent(g) {
			hi = g
		} else {
			lo = g + 1
		}
	}
	if hi == g && lo < g {
		if independent(g - 1) {
			hi = g - 1
		} else {
			lo = g
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if independent(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi
}

// greedyBasis keeps every column that adds a new direction, walking the
// columns in descending variance order.
func greedyBasis(rm *topology.RoutingMatrix, variances []float64) []int {
	return descendingBasis(rm, ascendingByVariance(variances), false)
}

// descendingBasis walks the columns of R from the end of the ascending
// order (highest variance first) through two rounds of modified
// Gram–Schmidt and returns, in walk order, the columns that add a new
// direction to those kept before them. With untilDependent the walk stops
// at the first column that does not, so the result is the leading
// independent run. The orthonormal basis grows one np-vector at a time in
// a flat buffer, bounded by rank(R)·np.
func descendingBasis(rm *topology.RoutingMatrix, order []int, untilDependent bool) []int {
	np := rm.NumPaths()
	var basis []float64
	var kept []int
	col := make([]float64, np)
	tol := 1e-9 * math.Sqrt(float64(np))
	for w := len(order) - 1; w >= 0; w-- {
		k := order[w]
		clear(col)
		for _, p := range rm.PathsThrough(k) {
			col[p] = 1
		}
		if norm0 := linalg.Norm2(col); norm0 > 0 {
			// Two rounds of MGS for numerical safety.
			for round := 0; round < 2; round++ {
				for off := 0; off < len(basis); off += np {
					q := basis[off : off+np]
					d := linalg.Dot(q, col)
					for i := range col {
						col[i] -= d * q[i]
					}
				}
			}
			if n := linalg.Norm2(col); n > tol*norm0 {
				for _, v := range col {
					basis = append(basis, v/n)
				}
				kept = append(kept, k)
				continue
			}
		}
		if untilDependent {
			break
		}
	}
	return kept
}

// SolveReduced solves the reduced first-order system Y = R*·X* (eq. 9) for
// one snapshot's per-path log transmission rates y, returning the estimated
// per-link log transmission rates for the kept columns (aligned with kept).
func SolveReduced(rm *topology.RoutingMatrix, kept []int, y []float64) ([]float64, error) {
	if len(y) != rm.NumPaths() {
		return nil, fmt.Errorf("core: snapshot of %d paths, routing matrix has %d: %w",
			len(y), rm.NumPaths(), ErrDimensionMismatch)
	}
	sub := rm.DenseColumns(kept)
	x, err := linalg.SolveLeastSquares(sub, y)
	if err != nil {
		return nil, fmt.Errorf("core: reduced solve over %d links: %w", len(kept), err)
	}
	return x, nil
}
