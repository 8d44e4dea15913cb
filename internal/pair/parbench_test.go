package pair_test

import (
	"fmt"
	"testing"

	"gomd/internal/core"
	"gomd/internal/pair"
	"gomd/internal/workload"
)

// BenchmarkPairLJ times the LJ force kernel where the benchmark runs it:
// the 32,000-atom LJ melt after 20 steps, Mixed precision, at one and two
// intra-rank workers. Both run the one row loop; at two workers the
// scatter into boundary targets (neighbor.Boundary) waits for the replay
// pass, and boundary/target and boundary/entry report their share of the
// owned atoms and of the list's entries. A random placement would time
// the worst case instead: with no index locality nearly every target past
// the first chunk is a boundary target.
func BenchmarkPairLJ(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg, st := workload.MustBuild(workload.LJ, workload.Options{Atoms: 32000, Seed: 7})
			cfg.Workers = w
			s := core.New(cfg, st)
			defer s.Close()
			s.Run(20)
			ctx := s.PairContext()
			bnd := s.NL.Boundary(w)
			b.ResetTimer()
			var pairs int64
			for i := 0; i < b.N; i++ {
				st.ZeroForces()
				pairs += cfg.Pair.Compute(ctx).Pairs
			}
			b.ReportMetric(float64(pairs)/float64(b.Elapsed().Nanoseconds()+1), "pairs/ns")
			b.ReportMetric(float64(len(bnd.Targets))/float64(st.N), "boundary/target")
			b.ReportMetric(float64(bnd.Ptr[len(bnd.Targets)])/float64(s.NL.RowPtr()[st.N]), "boundary/entry")
		})
	}
}

// BenchmarkPairCharmmRhodo times lj/charmm/coul/long where the benchmark
// runs it: rhodo-4000 (5,184 atoms, ≈ 240 in-cutoff pairs per row, r from
// 1 to 10 Å) after 10 steps, Mixed precision, at one and two workers.
// BenchmarkPairCharmm's σ = 1, cut 2.5 system covers one octave of the
// Coulomb table and a sixth of the neighbours.
//
// Two cases. surrogate is the workload as built: hydrogen has ε = 0, so
// only O–O pairs, 1 in 9, carry a Lennard-Jones term and the kernel skips
// it for the rest. alllj gives hydrogen CHARMM's modified-TIP3P LJ
// (ε_H = 0.046 kcal/mol, σ_H = 0.4 Å, mixed arithmetically as the style
// mixes) on the same configuration, so every pair carries one — the shape
// of the real rhodopsin topology, where there is nothing to skip.
func BenchmarkPairCharmmRhodo(b *testing.B) {
	for _, c := range []string{"surrogate", "alllj"} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", c, w), func(b *testing.B) {
				cfg, st := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: 4000, Seed: 2022})
				cfg.Workers = w
				s := core.New(cfg, st)
				defer s.Close()
				s.Run(10)
				if c == "alllj" {
					setLJ(cfg.Pair.(*pair.CharmmCoulLong), 1, 0.046, 0.4)
				}
				ctx := s.PairContext()
				b.ResetTimer()
				var pairs int64
				for i := 0; i < b.N; i++ {
					pairs += cfg.Pair.Compute(ctx).Pairs
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
			})
		}
	}
}
