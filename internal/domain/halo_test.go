package domain_test

import (
	"testing"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/mpi"
	"gomd/internal/workload"
)

// TestHaloSweepSteadyStateAllocs: the halo loops stage into the
// backend's own buffers and exchange float64 vectors, so once the
// buffers have grown to the largest face a ForwardPositions +
// ReverseForces + ForwardScalar sweep over a 2-rank channel world
// allocates nothing on either rank (it was three makes, a boxed payload
// and — over TCP — five buffers per message), and neither does a
// Rebuild that moves no atom: its border messages are packed into the
// same staging buffers (it was one []atom.Ghost per stage, plus growth).
func TestHaloSweepSteadyStateAllocs(t *testing.T) {
	eng, err := domain.New(func() (core.Config, *atom.Store, error) {
		return workload.Build(workload.LJ, workload.Options{Atoms: 2048, Seed: 7})
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Run(5); err != nil { // ghosts built, halo buffers grown
		t.Fatal(err)
	}
	const runs = 50
	for _, tc := range []struct {
		name string
		call func(be core.Backend, s *core.Simulation, scalar []float64)
	}{
		{"sweep", func(be core.Backend, s *core.Simulation, scalar []float64) {
			be.ForwardPositions(s)
			be.ReverseForces(s)
			be.ForwardScalar(s, scalar)
		}},
		{"rebuild", func(be core.Backend, s *core.Simulation, _ []float64) { be.Rebuild(s) }},
	} {
		var allocs float64
		err = eng.World.Parallel(func(c *mpi.Comm) {
			s := eng.Sims[c.Rank()]
			be := s.Backend()
			scalar := make([]float64, s.Store.Total())
			call := func() { tc.call(be, s, scalar) }
			call()
			if c.Rank() == 0 {
				allocs = testing.AllocsPerRun(runs, call)
			} else {
				for i := 0; i < runs+1; i++ { // AllocsPerRun makes one warm-up call
					call()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per call in steady state, want 0", tc.name, allocs)
		}
	}
}
