package core

import (
	"fmt"
	"slices"
	"sync"

	"lia/internal/linalg"
	"lia/internal/par"
	"lia/internal/stats"
	"lia/internal/topology"
)

// Phase1 is a reusable Phase-1 solver bound to one routing matrix — the
// incremental-rebuild engine behind lia.Engine.
//
// Under the negative-covariance policies whose kept-equation set does not
// depend on the measured data (ClampNegativeCov and KeepNegativeCov — every
// equation survives, only its right-hand side is adjusted), the augmented
// matrix A — one row per path pair with a non-empty support, in canonical
// pair order — is a pure function of the topology, and so is every
// factorization of it. Phase1 therefore builds the topology-only factor of
// whichever method the options resolve to exactly once per routing matrix:
//
//   - normal equations: the Gram matrix G = AᵀA and its (regularized)
//     Cholesky factor. Every subsequent Estimate costs only the O(np²·s̄)
//     right-hand-side fold plus two O(nc²) triangular solves. The right-hand
//     side reuses the same shard-windowed reduction as the from-scratch
//     build, so a warm Estimate is bit-identical to EstimateVariances.
//   - dense QR: the Householder factor of A itself, with each class of
//     identical non-pivot rows stored and factored once
//     (linalg.NewQRSharedRows), or — when A is rank-deficient — the pivoted
//     minimum-norm fallback. Every subsequent Estimate gathers the
//     length-rows right-hand side, applies Qᵀ and back-substitutes:
//     O(rows·nc) instead of the O(rows·nc²) refactorization. The shared-row
//     factor does NewQR's arithmetic on the full A in the same order, and
//     EstimateVariances's dense path also factors before it solves, so a
//     warm Estimate is bitwise-identical.
//
// DropNegativeCov, whose row set depends on the data, transparently falls
// back to the full EstimateVariances path.
//
// On top of the cached Cholesky factorization, cacheable normal-equations
// Estimates against frozen *stats.CovSnapshot views maintain the right-hand
// side incrementally: the per-pair-shard partial sums of the previous fold
// are kept alongside the view they came from, and a new view whose divisor
// is bitwise-unchanged recomputes only the shards whose co-moment block
// moved (packed pair index and packed co-moment index coincide, so pair
// shards map onto contiguous co-moment blocks). Clean partials are reused
// verbatim and all partials re-fold in shard order — the identical
// additions, in the identical order, as the cold fold, so the delta path is
// bitwise-equal by construction. A divisor that moved (cumulative counts
// growing, decay weights rescaling) degrades gracefully to recomputing every
// shard.
//
// Estimate is safe for concurrent use: the cached factor is built once under
// an internal lock, the delta state is serialized under another, and solves
// run against per-call workspaces.
type Phase1 struct {
	rm   *topology.RoutingMatrix
	opts VarianceOptions

	mu     sync.Mutex
	built  bool
	chol   *linalg.Cholesky // normal-equations factor
	dense  *denseFactor     // dense-QR factor
	lambda float64          // ridge the Cholesky factorization needed (diagnostics)
	err    error            // sticky factorization failure (deterministic per topology)

	deltaMu sync.Mutex
	delta   rhsDelta
}

// denseFactor is the cached dense-QR form of A under clamp/keep: exactly one
// of qr (full column rank) and minNorm (rank-deficient) is set.
type denseFactor struct {
	// shardRow[s] is the equation row of the first non-empty pair of pair
	// shard s (length shards+1, the last entry the row count), so the
	// right-hand-side gather fans out over shards writing disjoint ranges.
	shardRow []int
	qr       *linalg.QR        // shared-row Householder factor
	minNorm  *linalg.PivotedQR // pivoted minimum-norm fallback
}

func (d *denseFactor) rows() int { return d.shardRow[len(d.shardRow)-1] }

// rhsDelta is the incremental right-hand-side state: the frozen view the
// cached partials were folded from and the per-shard partial sums themselves
// (shards × nc floats, bounded by maxDeltaPartialFloats).
type rhsDelta struct {
	view     *stats.CovSnapshot
	partials []float64

	deltaFolds uint64 // folds that reused at least the dirty-tracking machinery
	fullFolds  uint64 // folds that recomputed every shard
	lastDirty  int    // shards recomputed by the most recent fold
	lastShards int    // total shards at the most recent fold
}

// maxDeltaPartialFloats caps the memory the delta cache may hold
// (shards × nc float64s, 64 MiB worth); systems past the cap fall back to
// the plain windowed fold, which stages only rhsWindowShards slots at once.
const maxDeltaPartialFloats = 8 << 20

// DeltaStats reports the incremental right-hand-side counters: how many
// warm folds ran the delta path vs recomputed from scratch, and the dirty
// shard count of the most recent fold.
type DeltaStats struct {
	// DeltaFolds counts RHS folds that compared against a cached view and
	// recomputed only the dirty shards.
	DeltaFolds uint64
	// FullFolds counts RHS folds that recomputed every shard: the first fold,
	// views whose divisor moved, non-snapshot views, or systems past the
	// partial-cache budget.
	FullFolds uint64
	// LastDirtyShards and LastShards are the recomputed and total pair-shard
	// counts of the most recent fold.
	LastDirtyShards int
	LastShards      int
}

// DeltaStats returns the incremental-fold counters.
func (p *Phase1) DeltaStats() DeltaStats {
	p.deltaMu.Lock()
	defer p.deltaMu.Unlock()
	return DeltaStats{
		DeltaFolds:      p.delta.deltaFolds,
		FullFolds:       p.delta.fullFolds,
		LastDirtyShards: p.delta.lastDirty,
		LastShards:      p.delta.lastShards,
	}
}

// NewPhase1 creates a Phase-1 solver over the routing matrix with the given
// options. Construction is cheap; the factorization is built lazily on the
// first cacheable Estimate.
func NewPhase1(rm *topology.RoutingMatrix, opts VarianceOptions) *Phase1 {
	return &Phase1{rm: rm, opts: opts}
}

// Cacheable reports whether this solver's options admit the cached
// factorization: a data-independent kept-equation set (clamp or keep
// policy), under either solver method. Non-cacheable configurations still
// work — they run the full estimation on every call.
func (p *Phase1) Cacheable() bool {
	return p.opts.NegPolicy != DropNegativeCov
}

// Warm reports whether the factorization is already cached, i.e. whether the
// next Estimate pays only the right-hand side and the triangular solves.
func (p *Phase1) Warm() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built && p.err == nil
}

// Ridge returns the regularization λ the cached factorization needed (0 for
// a cleanly positive-definite system; meaningful only once Warm).
func (p *Phase1) Ridge() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lambda
}

// Estimate solves Σ* = A·v for the per-link variances against the given
// covariance view, reusing the cached topology-only factorization when the
// options allow it. Results are bitwise identical to
// EstimateVariances(rm, cov, opts).
func (p *Phase1) Estimate(cov stats.CovView) ([]float64, error) {
	if cov.Count() < 2 {
		return nil, ErrTooFewSnapshots
	}
	if cov.Dim() != p.rm.NumPaths() {
		return nil, fmt.Errorf("core: covariance over %d paths, routing matrix has %d: %w",
			cov.Dim(), p.rm.NumPaths(), ErrDimensionMismatch)
	}
	if !p.Cacheable() {
		return EstimateVariances(p.rm, cov, p.opts)
	}
	if err := p.rm.PrecomputePairSupports(); err != nil {
		return nil, fmt.Errorf("core: phase-1 equations: %w", err)
	}
	if p.opts.resolveMethod(p.rm) == VarianceDenseQR {
		return p.solveDense(cov)
	}
	ch, err := p.factorNormal()
	if err != nil {
		return nil, err
	}
	nc := p.rm.NumLinks()
	rhs := make([]float64, nc)
	p.foldRHS(rhs, cov, p.opts.shardWorkers(p.rm.NumPairs()))
	v := make([]float64, nc)
	ch.SolveWith(v, rhs, make([]float64, nc))
	return v, nil
}

// solveDense is the cached dense-QR solve: gather the adjusted
// covariances of A's rows in canonical pair order — the right-hand side
// collectEquations builds — and solve against the topology-only factor.
func (p *Phase1) solveDense(cov stats.CovView) ([]float64, error) {
	f, err := p.factorDense()
	if err != nil {
		return nil, err
	}
	rhs := make([]float64, f.rows())
	gatherRHS(rhs, p.rm, cov, p.opts, f.shardRow)
	if f.minNorm != nil {
		return f.minNorm.SolveMinNorm(rhs), nil
	}
	v := make([]float64, p.rm.NumLinks())
	// rhs doubles as the Qᵀ workspace: it is not needed after the solve.
	if err := f.qr.SolveWith(v, rhs, rhs); err != nil {
		return nil, fmt.Errorf("core: dense variance solve: %w", err)
	}
	return v, nil
}

// foldRHS computes the right-hand sides AᵀΣ* into dst (length nc, zeroed),
// through the incremental per-shard partial cache when the view admits it.
// The fold is bitwise-identical to accumulateRHSInto either way: every shard
// partial comes from accumulateRHSShard (cached or recomputed — a shard's
// partial depends only on its own co-moment block and the divisor, both
// certified bitwise-unchanged for clean shards), and the partials fold into
// dst in shard index order, exactly the cold reduction order.
func (p *Phase1) foldRHS(dst []float64, cov stats.CovView, workers int) {
	npairs := p.rm.NumPairs()
	nc := len(dst)
	shards := (npairs + pairsPerShard - 1) / pairsPerShard
	snap, ok := cov.(*stats.CovSnapshot)
	if !ok || npairs == 0 || shards*nc > maxDeltaPartialFloats {
		// Live accumulators (mutable between calls) and over-budget systems
		// cannot cache partials; run the plain windowed fold.
		accumulateRHSInto(dst, p.rm, cov, p.opts, workers, nil)
		p.deltaMu.Lock()
		p.delta.fullFolds++
		p.delta.lastDirty, p.delta.lastShards = shards, shards
		p.deltaMu.Unlock()
		return
	}
	p.deltaMu.Lock()
	defer p.deltaMu.Unlock()
	d := &p.delta
	if len(d.partials) != shards*nc {
		d.partials = make([]float64, shards*nc)
		d.view = nil
	}
	// Packed co-moment index and packed pair index share one formula
	// (stats.triIndex == topology.PairIndexOf, both over np), so co-moment
	// blocks of pairsPerShard entries are exactly the pair shards of the
	// equation stream. A nil dirty set means the views are not comparable
	// (first fold, or the divisor moved): every shard recomputes.
	var dirty []bool
	if d.view != nil {
		dirty = snap.DirtyBlocks(d.view, pairsPerShard)
	}
	work := make([]int, 0, shards)
	for s := 0; s < shards; s++ {
		if dirty == nil || dirty[s] {
			work = append(work, s)
		}
	}
	if len(work) > 0 {
		w := min(workers, len(work))
		par.Do(w, len(work), func(_, i int) {
			s := work[i]
			accumulateRHSShard(d.partials[s*nc:(s+1)*nc], p.rm, snap, p.opts,
				s*pairsPerShard, min(s*pairsPerShard+pairsPerShard, npairs), nil)
		})
	}
	for s := 0; s < shards; s++ {
		for k, v := range d.partials[s*nc : (s+1)*nc] {
			dst[k] += v
		}
	}
	d.view = snap
	if dirty == nil {
		d.fullFolds++
	} else {
		d.deltaFolds++
	}
	d.lastDirty, d.lastShards = len(work), shards
}

// factorNormal returns the cached Cholesky factor of the topology-only Gram
// matrix, building it on first use. The build is the one place Phase1 pays
// the cold price: the row-banded shared-matrix Gram accumulation followed by
// the O(nc³) factorization. Failures (an unidentifiable topology even after
// ridge regularization) are deterministic per topology and cached too.
func (p *Phase1) factorNormal() (*linalg.Cholesky, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.built {
		return p.chol, p.err
	}
	nc := p.rm.NumLinks()
	g := linalg.NewDense(nc, nc)
	// nil kept bitmap: under clamp/keep every equation survives, so G needs
	// no covariance data at all.
	accumulateGramInto(g, p.rm, nil, p.opts.shardWorkers(p.rm.NumPairs()))
	ch, lambda, err := linalg.NewCholeskyRegularized(g)
	p.built = true
	if err != nil {
		p.err = fmt.Errorf("core: normal-equations variance solve: %w: %w", ErrUnidentifiable, err)
		return nil, p.err
	}
	p.chol, p.lambda = ch, lambda
	return ch, nil
}

// factorDense returns the cached dense-QR factor of A, building it on first
// use from a single walk of the pair index. Rank is read off R's diagonal
// with the tolerance Solve applies, so a full-rank A never pays a trial
// solve, and the freshly materialized distinct rows of A are factored in
// place — never the full matrix, never a copy. A rank-deficient A (possible
// only where Theorem 1's routing assumptions fail) caches the pivoted
// minimum-norm fallback instead, on the same worker pool as
// EstimateVariances. Too few equations is a deterministic failure, cached
// too.
func (p *Phase1) factorDense() (*denseFactor, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.built {
		return p.dense, p.err
	}
	p.built = true
	rm := p.rm
	nc, npairs := rm.NumLinks(), rm.NumPairs()
	shards := (npairs + pairsPerShard - 1) / pairsPerShard
	f := &denseFactor{shardRow: make([]int, shards+1)}
	supports := make([][]int32, 0, npairs)
	pair := 0
	rm.VisitPairSupports(0, npairs, func(i, j int, support []int32) {
		if pair%pairsPerShard == 0 {
			f.shardRow[pair/pairsPerShard] = len(supports)
		}
		pair++
		if len(support) > 0 {
			supports = append(supports, support)
		}
	})
	f.shardRow[shards] = len(supports)
	if len(supports) < nc {
		p.err = fmt.Errorf("core: only %d usable covariance equations for %d links: %w",
			len(supports), nc, ErrUnidentifiable)
		return nil, p.err
	}
	// Rows of A are equal exactly when their supports are, so the classes
	// the shared-row factorization stores once are read off the topology:
	// the nc pivot rows individually, then each distinct later support once
	// (support hashes find the candidates, an exact comparison confirms).
	rowOf := make([]int32, len(supports))
	stored := make([][]int32, nc, 2*nc)
	copy(stored, supports[:nc])
	first := make(map[uint64]int32, nc)
	for r := range rowOf {
		if r < nc {
			rowOf[r] = int32(r)
			continue
		}
		h := supportHash(supports[r])
		u, seen := first[h]
		if !seen || !slices.Equal(stored[u], supports[r]) {
			u = int32(len(stored))
			stored = append(stored, supports[r])
			if !seen {
				first[h] = u
			}
		}
		rowOf[r] = u
	}
	qr := linalg.NewQRSharedRows(denseRows(stored, nc), rowOf)
	if qr.FullRank() {
		f.qr = qr
	} else {
		f.minNorm = linalg.NewPivotedQRWorkers(denseRows(supports, nc), p.opts.pivotWorkers())
	}
	p.dense = f
	return f, nil
}

// denseRows materializes the 0/1 augmented rows with the given supports.
func denseRows(supports [][]int32, nc int) *linalg.Dense {
	a := linalg.NewDense(len(supports), nc)
	for r, support := range supports {
		row := a.Row(r)
		for _, k := range support {
			row[k] = 1
		}
	}
	return a
}

// supportHash is the 64-bit FNV-1a hash of a support's link indices.
func supportHash(support []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, k := range support {
		for b := 0; b < 4; b++ {
			h ^= uint64(byte(uint32(k) >> (8 * b)))
			h *= 1099511628211
		}
	}
	return h
}
