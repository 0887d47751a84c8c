package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrRankDeficient is returned by least-squares solvers when the system
// matrix does not have full column rank (within tolerance), so a unique
// minimizer does not exist.
var ErrRankDeficient = errors.New("linalg: matrix is rank deficient")

// QR holds a Householder orthogonal-triangular factorization A = Q·R of an
// m×n matrix with m ≥ n. It is the factorization the paper prescribes for
// solving the moment equations (Section 5.1, citing Golub & Van Loan).
//
// The factor is read-only once built: SolveWith touches only caller-owned
// buffers, so one QR may be shared by any number of concurrent solvers.
// Row i of the packed m×n factor is stored at qr.Row(rowOf[i]). NewQR stores
// every row (rowOf nil, the identity); NewQRSharedRows stores each class of
// identical non-pivot rows once.
type QR struct {
	qr    *Dense    // stored packed rows: R in the upper triangle of rows [0,n), reflectors below the diagonal
	rowOf []int32   // packed row i lives at qr.Row(rowOf[i]); nil means the identity
	tau   []float64 // Householder scalar coefficients
	m, n  int
}

// NewQR computes the Householder QR factorization of a. The input matrix is
// not modified. It requires m ≥ n.
func NewQR(a *Dense) *QR {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("linalg: QR requires rows ≥ cols, got %d×%d", m, n))
	}
	return newQR(a.Clone(), nil, m)
}

// NewQRSharedRows computes the Householder QR factorization of the m×n
// matrix A whose row i is rows.Row(rowOf[i]), m = len(rowOf) ≥ n: each
// class of identical rows of A is stored, and factored, once. The first n
// rows — the pivots — must be stored individually and in order (rowOf[i] ==
// i for i < n); every later row must map to a stored row ≥ n. rows is
// factored in place and owned by the result.
//
// Why shared rows stay shared: Householder step k rewrites each row i > k as
// a function of that row's own entries and of quantities common to all rows
// (the reflector scalar τ, the pivot norm, the projection w = τ·vᵀA). Rows
// that enter a step identical therefore leave it identical, bit for bit, so
// updating their one stored copy is updating each of them. Only pivot row k
// is treated differently — it becomes a row of R — which is why rows [0, n)
// are never shared, while rows ≥ n are never pivots and stay identical
// through all n steps. The sums over rows (the pivot norm, vᵀA, and Qᵀ·b in
// SolveWith) still walk all m rows in order through rowOf, so the factor and
// every solve perform the same arithmetic in the same order as NewQR of the
// full matrix: the results are bitwise-identical, at a fraction of the
// memory and of the trailing-update work.
func NewQRSharedRows(rows *Dense, rowOf []int32) *QR {
	m, n := len(rowOf), rows.Cols()
	if m < n {
		panic(fmt.Sprintf("linalg: QR requires rows ≥ cols, got %d×%d", m, n))
	}
	for i, u := range rowOf {
		if (i < n && int(u) != i) || (i >= n && (int(u) < n || int(u) >= rows.Rows())) {
			panic(fmt.Sprintf("linalg: QR shared row %d maps to stored row %d of %d (n=%d)", i, u, rows.Rows(), n))
		}
	}
	return newQR(rows, rowOf, m)
}

// newQR factors the m logical rows of a (through rowOf) in place.
func newQR(a *Dense, rowOf []int32, m int) *QR {
	n := a.Cols()
	f := &QR{qr: a, rowOf: rowOf, tau: make([]float64, n), m: m, n: n}
	w := make([]float64, n) // reflector-application scratch, shared across steps
	for k := 0; k < n; k++ {
		f.tau[k] = houseColumn(a, rowOf, m, k, k)
		applyHouseLeftCols(a, rowOf, m, k, k, f.tau[k], k+1, n, w)
	}
	return f
}

// StoredRows returns how many packed rows the factorization holds: m for
// NewQR, n plus the distinct non-pivot rows for NewQRSharedRows.
func (f *QR) StoredRows() int { return f.qr.Rows() }

// storedRow maps logical row i to its stored row; a nil rowOf is the
// identity.
func storedRow(rowOf []int32, i int) int {
	if rowOf == nil {
		return i
	}
	return int(rowOf[i])
}

// houseColumn generates a Householder reflector that annihilates the entries
// of column col below row row, storing the reflector in place. It returns the
// scalar tau; after the call, qr[row,col] holds the resulting R entry and the
// entries below hold the reflector's essential part. The m logical rows of a
// map to stored rows through rowOf (see NewQRSharedRows): the norm sums over
// logical rows, the rescale touches each stored row once.
func houseColumn(a *Dense, rowOf []int32, m, row, col int) float64 {
	c, d := a.cols, a.data
	// norm of a[row:m, col]
	var normSq float64
	for i := row + 1; i < m; i++ {
		v := d[storedRow(rowOf, i)*c+col]
		normSq += v * v
	}
	alpha := d[row*c+col]
	if normSq == 0 {
		// Already triangular in this column; reflector is identity.
		return 0
	}
	beta := math.Sqrt(alpha*alpha + normSq)
	if alpha > 0 {
		beta = -beta
	}
	// v = x - beta·e1, normalized so v[0] = 1.
	v0 := alpha - beta
	for u := row + 1; u < a.rows; u++ {
		d[u*c+col] /= v0
	}
	d[row*c+col] = beta
	return (beta - alpha) / beta
}

// applyHouseLeftCols applies the reflector stored in column col (with pivot
// at row) to the column range [lo, hi) of a: A ← (I − τ·v·vᵀ)·A. It runs as
// two row-major sweeps through the scratch vector w (len ≥ hi): w ← τ·(vᵀ·A)
// over the m logical rows (through rowOf, as houseColumn), then A ← A − v·w
// over each stored row once. Streaming whole rows instead of walking
// columns keeps the trailing submatrix on sequential cache lines and needs
// one slice bounds check per row rather than one per element. Because every
// write lands inside [lo, hi), disjoint ranges can be updated concurrently —
// the parallel pivoted QR partitions the trailing matrix this way — and
// each column's arithmetic is independent of the ranging, so chunked
// application is bitwise-identical to one full sweep.
func applyHouseLeftCols(a *Dense, rowOf []int32, m, row, col int, tau float64, lo, hi int, w []float64) {
	if tau == 0 || lo >= hi {
		return
	}
	c, d := a.cols, a.data
	ws := w[lo:hi]
	prow := d[row*c+lo : row*c+hi]
	copy(ws, prow)
	for i := row + 1; i < m; i++ {
		u := storedRow(rowOf, i)
		vi := d[u*c+col]
		if vi == 0 {
			continue
		}
		for j, x := range d[u*c+lo : u*c+hi][:len(ws)] {
			ws[j] += vi * x
		}
	}
	for j := range ws {
		ws[j] *= tau
		prow[j] -= ws[j]
	}
	for u := row + 1; u < a.rows; u++ {
		vi := d[u*c+col]
		if vi == 0 {
			continue
		}
		ru := d[u*c+lo : u*c+hi]
		for j := range ru[:len(ws)] {
			ru[j] -= vi * ws[j]
		}
	}
}

// applyQT computes y ← Qᵀ·y in place using the stored reflectors.
func (f *QR) applyQT(y []float64) {
	d, n := f.qr.data, f.n
	for k := 0; k < n; k++ {
		tau := f.tau[k]
		if tau == 0 {
			continue
		}
		w := y[k]
		for i := k + 1; i < f.m; i++ {
			w += d[storedRow(f.rowOf, i)*n+k] * y[i]
		}
		w *= tau
		y[k] -= w
		for i := k + 1; i < f.m; i++ {
			y[i] -= w * d[storedRow(f.rowOf, i)*n+k]
		}
	}
}

// RCond crudely estimates the reciprocal condition of R via the ratio of the
// smallest to largest diagonal magnitude. Zero means numerically singular.
func (f *QR) RCond() float64 {
	if f.n == 0 {
		return 1
	}
	minD, maxD := math.Inf(1), 0.0
	for k := 0; k < f.n; k++ {
		d := math.Abs(f.qr.At(k, k))
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD == 0 {
		return 0
	}
	return minD / maxD
}

// FullRank reports whether every diagonal entry of R clears the pivot
// tolerance Solve applies, i.e. whether Solve succeeds for every right-hand
// side. It reads R only, so callers decide the rank without a trial solve.
func (f *QR) FullRank() bool {
	tol := f.pivotTol()
	for k := 0; k < f.n; k++ {
		if math.Abs(f.qr.At(k, k)) <= tol {
			return false
		}
	}
	return true
}

// Solve returns the least-squares solution x minimizing ‖A·x − b‖₂.
// It returns ErrRankDeficient when R has a (numerically) zero diagonal entry.
// It allocates its own buffers; see SolveWith to supply them.
func (f *QR) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveWith(x, b, make([]float64, f.m)); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveWith solves the least-squares problem for b into dst (length n),
// using the caller-provided workspace work (length m). It touches no state
// shared between calls, so one cached factorization may serve any number of
// concurrent solvers as long as each brings its own dst and work. work may
// alias b, in which case b is overwritten; dst must not alias either. It
// returns ErrRankDeficient, with dst partly written, when R has a
// (numerically) zero diagonal entry.
func (f *QR) SolveWith(dst, b, work []float64) error {
	if len(b) != f.m {
		panic(fmt.Sprintf("linalg: QR.Solve rhs length %d != rows %d", len(b), f.m))
	}
	if len(dst) != f.n {
		panic(fmt.Sprintf("linalg: QR.SolveWith dst length %d != cols %d", len(dst), f.n))
	}
	if len(work) != f.m {
		panic(fmt.Sprintf("linalg: QR.SolveWith workspace length %d != rows %d", len(work), f.m))
	}
	y := work
	copy(y, b)
	f.applyQT(y)
	// Back substitution on the n×n upper triangle.
	tol := f.pivotTol()
	for k := f.n - 1; k >= 0; k-- {
		d := f.qr.At(k, k)
		if math.Abs(d) <= tol {
			return fmt.Errorf("%w: zero pivot at column %d", ErrRankDeficient, k)
		}
		s := y[k]
		for j := k + 1; j < f.n; j++ {
			s -= f.qr.At(k, j) * dst[j]
		}
		dst[k] = s / d
	}
	return nil
}

// pivotTol is the magnitude at or below which a diagonal entry of R counts
// as a zero pivot.
func (f *QR) pivotTol() float64 {
	return float64(f.m) * eps * f.maxDiag()
}

func (f *QR) maxDiag() float64 {
	var mx float64
	for k := 0; k < f.n; k++ {
		if d := math.Abs(f.qr.At(k, k)); d > mx {
			mx = d
		}
	}
	if mx == 0 {
		return 1
	}
	return mx
}

const eps = 2.220446049250313e-16 // IEEE-754 double machine epsilon

// SolveLeastSquares is a convenience wrapper: QR-factorize a and solve for b.
func SolveLeastSquares(a *Dense, b []float64) ([]float64, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("linalg: under-determined system %d×%d: %w", m, n, ErrRankDeficient)
	}
	return NewQR(a).Solve(b)
}
