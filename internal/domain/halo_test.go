package domain_test

import (
	"testing"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/mpi"
	"gomd/internal/workload"
)

// TestHaloSweepSteadyStateAllocs: the three per-step halo loops stage
// into the backend's own buffers and exchange on the runtime's typed
// float64 lane, so once the buffers have grown to the largest face a
// ForwardPositions + ReverseForces + ForwardScalar sweep over a 2-rank
// channel world allocates nothing on either rank (it was three makes, a
// boxed payload and — over TCP — five buffers per message).
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
	var allocs float64
	err = eng.World.Parallel(func(c *mpi.Comm) {
		s := eng.Sims[c.Rank()]
		be := s.Backend()
		scalar := make([]float64, s.Store.Total())
		sweep := func() {
			be.ForwardPositions(s)
			be.ReverseForces(s)
			be.ForwardScalar(s, scalar)
		}
		sweep()
		if c.Rank() == 0 {
			allocs = testing.AllocsPerRun(runs, sweep)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun makes one warm-up call
				sweep()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations per halo sweep in steady state, want 0", allocs)
	}
}
