package kspace_test

import (
	"math"
	"runtime"
	"testing"

	"gomd/internal/core"
	"gomd/internal/workload"
)

// TestPPPMCountersPinned pins what the performance model reads from a
// PPPM solve — it prices SpreadOps, InterpOps, MapOps, FFTOps and GridOps
// — on the benchmark's own system (rhodo, seed 2022, built by core.New),
// at the lattice start and after one step. The step-0 row of the
// 4,000-atom case carries the zero stencils of
// TestSplineWeightsHalfIntegerStencil: 1,216 of 5,184 charges sit on an
// exactly half-integer mesh coordinate and never reach the mesh, so
// SpreadOps reads 496,000 there and 648,000 one step later. A change to
// the B-spline weights that moves that number moves bench/golden.json.
//
// Energy and virial are the values recorded, as Float64bits, on the
// recursive FFT this package had before the Stockham passes, when every
// other PPPM change of that PR reproduced them bit for bit. The
// hard-coded butterflies round differently in the last place (the old
// transform multiplied by twiddle[N/2] = (-1, -1.2e-16) where a radix-2
// butterfly now subtracts), so those two are held to 1e-12 relative.
func TestPPPMCountersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("energy and virial recorded on amd64 (no fused multiply-add)")
	}
	type pin struct {
		spread, fft, grid, mapOps, points int64
	}
	type mesh struct{ energy, virial uint64 }
	cases := []struct {
		atoms int
		want  [2]pin  // step 0, step 1
		mesh  [2]mesh // likewise
	}{
		{1500,
			[2]pin{{192000, 81000, 3374, 1536, 3375}, {192000, 81000, 3374, 1536, 3375}},
			[2]mesh{{0xc0db92601c4ed29b, 0xc0287f7d2d3e5db7}, {0xc0db925a7d8c04ce, 0xc029105312e67b22}}},
		{4000,
			[2]pin{{496000, 288000, 7999, 5184, 8000}, {648000, 288000, 7999, 5184, 8000}},
			[2]mesh{{0xc0f5c5ddc20cd77f, 0xc0c8fe4e78e8e1f8}, {0xc0f742e1c9b66908, 0xc0604450703f7ce1}}},
	}
	near := func(got float64, want uint64) bool {
		w := math.Float64frombits(want)
		return math.Abs(got-w) <= 1e-12*math.Abs(w)
	}
	for _, tc := range cases {
		cfg, st := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: tc.atoms, Seed: 2022})
		s := core.New(cfg, st)
		for step, want := range tc.want {
			if step == 1 {
				s.Run(1)
			}
			res := cfg.Kspace.Compute(s.Store, s.Box, nil)
			if res.InterpOps != res.SpreadOps {
				t.Errorf("atoms=%d step=%d: InterpOps %d, SpreadOps %d: both walk the same stencils",
					tc.atoms, step, res.InterpOps, res.SpreadOps)
			}
			got := pin{res.SpreadOps, res.FFTOps, res.GridOps, res.MapOps, res.GridPoints}
			if got != want {
				t.Errorf("atoms=%d step=%d: spread/fft/grid/map/points %+v, want %+v", tc.atoms, step, got, want)
			}
			if m := tc.mesh[step]; !near(res.Energy, m.energy) || !near(res.Virial, m.virial) {
				t.Errorf("atoms=%d step=%d: mesh energy %v virial %v, want %v %v to 1e-12", tc.atoms, step,
					res.Energy, res.Virial, math.Float64frombits(m.energy), math.Float64frombits(m.virial))
			}
		}
		s.Close()
	}
}

// BenchmarkPPPMRhodo times one PPPM solve on the benchmark's system
// (rhodo-4000 → 5,184 atoms, 20³ mesh) after 10 steps, so the stencils
// are a melted state's and not the lattice's (ROADMAP 1a).
func BenchmarkPPPMRhodo(b *testing.B) {
	cfg, st := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: 4000, Seed: 2022})
	s := core.New(cfg, st)
	defer s.Close()
	s.Run(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Kspace.Compute(s.Store, s.Box, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/solve")
}
