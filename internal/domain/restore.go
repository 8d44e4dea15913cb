package domain

import (
	"fmt"

	"gomd/internal/atom"
	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/mpi"
)

// Restore rebuilds a decomposed engine from a monolithic checkpoint on a
// fresh in-process world: RestoreOnWorld over the checkpoint's shard-set
// view. The factory must describe the same workload the checkpoint was
// taken from (same pair style, fixes, rank count, and CheckpointEvery —
// the checkpoint records per-rank atom ownership and store order, so
// re-decomposition is not supported). The returned engine continues the
// original trajectory bit-exactly from ck.Step.
func Restore(factory Factory, ck *ckpt.Checkpoint) (*Engine, error) {
	if g := ck.Grid[0] * ck.Grid[1] * ck.Grid[2]; g != ck.Ranks || g < 1 {
		return nil, fmt.Errorf("domain: checkpoint grid %v does not cover %d ranks", ck.Grid, ck.Ranks)
	}
	return RestoreOnWorld(factory, mpi.NewWorld(ck.Ranks), ck.ShardSet())
}

// RestoreOnWorld rebuilds a decomposed engine over an existing
// (possibly process-spanning) world from a checkpoint generation. ss
// must hold snapshots for every rank in world.LocalRanks() (ckpt.
// ReadNewestValidManifest loads exactly that set; Checkpoint.ShardSet
// holds them all). Snapshots are keyed by rank, not by process, so a
// re-rendezvoused world may place ranks on different processes than the
// run that wrote the generation and still continue the trajectory
// bit-exactly. Every process must restore the same generation — the
// first collective cross-checks the step and panics into the world's
// abort path (a recoverable *mpi.RankError) on a mismatch. The engine
// takes ownership of the world.
func RestoreOnWorld(factory Factory, world *mpi.World, ss *ckpt.ShardSet) (*Engine, error) {
	nranks := world.Size
	if ss.WorldSize != nranks {
		world.Close()
		return nil, fmt.Errorf("domain: shard set is for a %d-rank world; this world has %d ranks (re-decomposition is not supported)", ss.WorldSize, nranks)
	}
	if g := ss.Grid[0] * ss.Grid[1] * ss.Grid[2]; g != nranks {
		world.Close()
		return nil, fmt.Errorf("domain: shard-set grid %v does not cover %d ranks", ss.Grid, nranks)
	}
	for _, r := range world.LocalRanks() {
		if ss.Ranks[r] == nil {
			world.Close()
			return nil, fmt.Errorf("domain: shard set has no snapshot for local rank %d", r)
		}
	}
	cfg, global, err := factory()
	if err != nil {
		world.Close()
		return nil, err
	}
	// The snapshot records no workload identity, so a store resumed by
	// name alone could belong to another system. The atom count is the
	// check it does allow (two workloads of equal size still pass).
	if int64(global.N) != ss.NGlobal {
		world.Close()
		return nil, fmt.Errorf("domain: checkpoint holds %d atoms, the workload builds %d", ss.NGlobal, global.N)
	}
	return assemble(factory, cfg, world, ss.Grid, int(ss.NGlobal),
		func(cfg core.Config, be *Backend) (*core.Simulation, error) {
			// Generation agreement: every process scanned its own disk for
			// the newest complete generation; the commit protocol orders the
			// manifest before any restart rendezvous, but a divergent scan
			// (operator deleted files on one host) must fail loudly, not
			// integrate mismatched states.
			if max := int64(be.comm.AllreduceMax(float64(ss.Step))); max != ss.Step {
				return nil, fmt.Errorf("domain: checkpoint generation mismatch: this process restores step %d, a peer restores step %d", ss.Step, max)
			}
			rk := ss.Ranks[be.Rank()]
			st := atom.New(len(rk.Atoms))
			for _, a := range rk.Atoms {
				st.Add(a)
			}
			s, err := core.NewRestored(cfg, st, be, &core.RestoreState{
				Step:     ss.Step,
				Box:      ss.Box,
				SetupBox: ss.SetupBox,
				Q2Setup:  ss.Q2Setup,
				RNG:      rk.RNG,
				FixState: rk.FixState,
			})
			if err != nil {
				return nil, err
			}
			ckpt.ApplyHistory(s, rk.History)
			return s, s.PrimeRestored(rk.Force, rk.LastPE, rk.LastVirial)
		})
}

// Step returns the engine's current step counter (the first local
// rank's copy; all ranks advance in lockstep).
func (e *Engine) Step() int64 { return e.firstSim().Step }
