package pair_test

import (
	"fmt"
	"testing"

	"gomd/internal/core"
	"gomd/internal/neighbor"
	"gomd/internal/pair"
	"gomd/internal/par"
	"gomd/internal/workload"
)

// BenchmarkPairLJ times the LJ force kernel on a 32k-atom melt across
// intra-rank worker counts: workers=1 runs the single-pass serial loop,
// workers>1 the two-phase deterministic rows+gather path. Both produce
// bit-identical forces (TestWorkerDeterminism in internal/core); this
// measures what that guarantee costs and how it scales.
func BenchmarkPairLJ(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			st := benchStore(32000, 33.6) // LJ-melt density
			style := pair.NewLJCut(1, 1, 2.5, pair.Mixed)
			pool := par.NewPool(w)
			defer pool.Close()
			nl := neighbor.NewList(style.ListMode(), style.Cutoff(), 0.3)
			nl.Pool = pool
			nl.Build(st)
			ctx := &pair.Context{Store: st, List: nl, Sync: noSync{}, QQr2E: 1, Dt: 0.005, Pool: pool}
			b.ResetTimer()
			var pairs int64
			for i := 0; i < b.N; i++ {
				st.ZeroForces()
				pairs += style.Compute(ctx).Pairs
			}
			b.ReportMetric(float64(pairs)/float64(b.Elapsed().Nanoseconds()+1), "pairs/ns")
		})
	}
}

// BenchmarkPairCharmmRhodo times lj/charmm/coul/long where the benchmark
// runs it: rhodo-4000 (5,184 atoms, ≈ 240 in-cutoff pairs per row, r from
// 1 to 10 Å) after 10 steps, Mixed precision, serial loop.
// BenchmarkPairCharmm's σ = 1, cut 2.5 system covers one octave of the
// Coulomb table and a sixth of the neighbours.
func BenchmarkPairCharmmRhodo(b *testing.B) {
	cfg, st := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: 4000, Seed: 2022})
	s := core.New(cfg, st)
	defer s.Close()
	s.Run(10)
	ctx := s.PairContext()
	b.ResetTimer()
	var pairs int64
	for i := 0; i < b.N; i++ {
		pairs += cfg.Pair.Compute(ctx).Pairs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
}
