package core

import (
	"math/rand/v2"
	"testing"

	"lia/internal/stats"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// denseComponent builds component c of the root package's 24×25 delta
// workload: a 25-path topogen tree behind a shared root uplink, so every
// path pair shares at least one link.
func denseComponent(b testing.TB, c uint64) *topology.RoutingMatrix {
	b.Helper()
	rng := rand.New(rand.NewPCG(52, c))
	net := topogen.Tree(rng, 100, 4)
	var paths []topology.Path
	for _, p := range topogen.Routes(net, []int{0}, net.Hosts[:25]) {
		links := []int{0}
		for _, l := range p.Links {
			links = append(links, 1+l)
		}
		paths = append(paths, topology.Path{Beacon: p.Beacon, Dst: p.Dst + 1, Links: links})
	}
	rm, err := topology.Build(paths)
	if err != nil {
		b.Fatal(err)
	}
	return rm
}

// BenchmarkPhase1DenseQR measures the dense-QR Phase 1 of one 25-path
// component — the size VarianceAuto resolves to dense QR in a cluster node —
// over a 64-snapshot window:
//
//   - scratch: EstimateVariances, which materializes and factors A per call;
//   - cold: a fresh Phase1's first Estimate, factor build included;
//   - warm: a warm Phase1's Estimate — right-hand-side gather, Qᵀ and back
//     substitution against the cached factor.
//
// It reports the cached factor's size as factor_B (packed rows, row index
// and reflector scalars).
func BenchmarkPhase1DenseQR(b *testing.B) {
	rm := denseComponent(b, 0)
	if err := rm.PrecomputePairSupports(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(44, 9))
	acc := stats.NewWindowedCovAccumulator(rm.NumPaths(), 64)
	y := make([]float64, rm.NumPaths())
	for t := 0; t < 64; t++ {
		for i := range y {
			y[i] = -1e-4 * rng.Float64()
		}
		acc.Add(y)
	}
	view := acc.View()
	opts := VarianceOptions{}
	if opts.resolveMethod(rm) != VarianceDenseQR {
		b.Fatal("workload does not resolve to dense QR")
	}
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EstimateVariances(rm, view, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewPhase1(rm, opts).Estimate(view); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		p1 := NewPhase1(rm, opts)
		if _, err := p1.Estimate(view); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(factorBytes(p1)), "factor_B")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p1.Estimate(view); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// factorBytes is the memory a warm dense-QR Phase1 pins in its factor: the
// stored rows, the row index and the reflector scalars.
func factorBytes(p1 *Phase1) int {
	nc := p1.rm.NumLinks()
	return 8*p1.dense.qr.StoredRows()*nc + 4*p1.dense.rows() + 8*nc
}
