package domain_test

import (
	"math"
	"sort"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/box"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/mpi"
	"gomd/internal/vec"
	"gomd/internal/workload"
)

// snapshot captures positions by tag for trajectory comparison.
func snapshot(stores ...*atom.Store) map[int64][3]float64 {
	out := make(map[int64][3]float64)
	for _, st := range stores {
		for i := 0; i < st.N; i++ {
			out[st.Tag[i]] = [3]float64{st.Pos[i].X, st.Pos[i].Y, st.Pos[i].Z}
		}
	}
	return out
}

// maxDiff compares two tag->position maps modulo the periodic box length
// (wrapping may differ between backends by a whole box image).
func maxDiff(t *testing.T, a, b map[int64][3]float64, l [3]float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("atom count mismatch: %d vs %d", len(a), len(b))
	}
	var worst float64
	for tag, pa := range a {
		pb, ok := b[tag]
		if !ok {
			t.Fatalf("tag %d missing in second trajectory", tag)
		}
		for d := 0; d < 3; d++ {
			diff := pa[d] - pb[d]
			if l[d] > 0 {
				diff -= l[d] * math.Round(diff/l[d])
			}
			if math.Abs(diff) > worst {
				worst = math.Abs(diff)
			}
		}
	}
	return worst
}

// equivalenceCase runs a workload serially and decomposed and requires
// identical trajectories. Workloads with stochastic fixes (Langevin) or
// pressure coupling are excluded; they are validated statistically in
// their own tests.
func equivalenceCase(t *testing.T, name workload.Name, atoms, ranks, steps int) {
	t.Helper()
	o := workload.Options{Atoms: atoms, Seed: 7}

	cfgS, stS := workload.MustBuild(name, o)
	ser := core.New(cfgS, stS)
	ser.Run(steps)

	eng, err := domain.New(func() (core.Config, *atom.Store, error) {
		return workload.Build(name, o)
	}, ranks)
	if err != nil {
		t.Fatalf("domain.New: %v", err)
	}
	eng.Run(steps)

	l := cfgS.Box.Lengths()
	stores := make([]*atom.Store, 0, ranks)
	for _, s := range eng.Sims {
		stores = append(stores, s.Store)
	}
	diff := maxDiff(t, snapshot(stS), snapshot(stores...), [3]float64{l.X, l.Y, l.Z})
	t.Logf("%s: max trajectory divergence after %d steps on %d ranks: %g", name, steps, ranks, diff)
	if diff > 1e-9 {
		t.Errorf("%s: decomposed trajectory diverged: %g", name, diff)
	}

	// Energy cross-check.
	eSer := ser.ComputeThermo()
	ePar := eng.Thermo()
	if rel := math.Abs(eSer.TotalEnergy-ePar.TotalEnergy) / (1 + math.Abs(eSer.TotalEnergy)); rel > 1e-9 {
		t.Errorf("%s: energy mismatch serial %.10g vs decomposed %.10g", name, eSer.TotalEnergy, ePar.TotalEnergy)
	}
}

func TestEquivalenceLJ(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		equivalenceCase(t, workload.LJ, 2048, ranks, 25)
	}
}

func TestEquivalenceEAM(t *testing.T) {
	for _, ranks := range []int{1, 2, 8} {
		equivalenceCase(t, workload.EAM, 2048, ranks, 25)
	}
}

func TestEquivalenceChute(t *testing.T) {
	for _, ranks := range []int{1, 4} {
		equivalenceCase(t, workload.Chute, 1500, ranks, 25)
	}
}

// TestEquivalenceChainDeterministic strips the Langevin fix so the chain
// workload becomes deterministic, then requires trajectory equivalence —
// this exercises FENE bonds and reverse force communication.
func TestEquivalenceChainDeterministic(t *testing.T) {
	o := workload.Options{Atoms: 2000, Seed: 11}
	strip := func() (core.Config, *atom.Store, error) {
		cfg, st, err := workload.Build(workload.Chain, o)
		if err != nil {
			return cfg, st, err
		}
		cfg.Fixes = cfg.Fixes[:1] // keep NVE only
		return cfg, st, nil
	}

	cfgS, stS, _ := strip()
	ser := core.New(cfgS, stS)
	ser.Run(25)

	eng, err := domain.New(strip, 4)
	if err != nil {
		t.Fatalf("domain.New: %v", err)
	}
	eng.Run(25)

	l := cfgS.Box.Lengths()
	stores := make([]*atom.Store, 0, 4)
	for _, s := range eng.Sims {
		stores = append(stores, s.Store)
	}
	diff := maxDiff(t, snapshot(stS), snapshot(stores...), [3]float64{l.X, l.Y, l.Z})
	t.Logf("chain: max divergence %g", diff)
	if diff > 1e-9 {
		t.Errorf("chain decomposed trajectory diverged: %g", diff)
	}
}

// TestOwnershipPartition checks that every atom lands on exactly one rank.
func TestOwnershipPartition(t *testing.T) {
	o := workload.Options{Atoms: 4000, Seed: 3}
	eng, err := domain.New(func() (core.Config, *atom.Store, error) {
		return workload.Build(workload.LJ, o)
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(10)
	var tags []int64
	for _, s := range eng.Sims {
		for i := 0; i < s.Store.N; i++ {
			tags = append(tags, s.Store.Tag[i])
		}
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	if len(tags) != 4000 {
		t.Fatalf("global atom count %d != 4000", len(tags))
	}
	for i, tag := range tags {
		if tag != int64(i+1) {
			t.Fatalf("tag sequence broken at %d: %d", i, tag)
		}
	}
}

// TestEquivalenceRhodo exercises the full stack — CHARMM pair with
// special-pair k-space compensation, PPPM with the replicated-mesh
// reduction, SHAKE clusters with molecule-atomic migration, and NPT
// global reductions. FP summation order differs across backends (mesh
// Allreduce), so the tolerance is looser than the bitwise workloads.
func TestEquivalenceRhodo(t *testing.T) {
	if testing.Short() {
		t.Skip("rhodo equivalence is slow")
	}
	o := workload.Options{Atoms: 1550, Seed: 5}
	cfgS, stS := workload.MustBuild(workload.Rhodo, o)
	ser := core.New(cfgS, stS)
	ser.Run(20)

	l := cfgS.Box.Lengths()
	for _, ranks := range []int{1, 4} {
		eng, err := domain.New(func() (core.Config, *atom.Store, error) {
			return workload.Build(workload.Rhodo, o)
		}, ranks)
		if err != nil {
			t.Fatalf("domain.New: %v", err)
		}
		eng.Run(20)

		stores := make([]*atom.Store, 0, ranks)
		for _, s := range eng.Sims {
			stores = append(stores, s.Store)
		}
		diff := maxDiff(t, snapshot(stS), snapshot(stores...), [3]float64{l.X, l.Y, l.Z})
		t.Logf("rhodo: max divergence after 20 steps on %d ranks: %g", ranks, diff)
		if diff > 1e-6 {
			t.Errorf("rhodo decomposed trajectory diverged on %d ranks: %g", ranks, diff)
		}
	}
}

// TestChooseGrid: factorization must cover the rank count and prefer
// cube-ish bricks for cubic boxes.
func TestChooseGrid(t *testing.T) {
	cube := box.NewPeriodic(vec.V3{}, vec.Splat(10))
	for _, ranks := range []int{1, 2, 4, 6, 8, 16, 36, 64} {
		g := domain.ChooseGrid(cube, ranks)
		if g[0]*g[1]*g[2] != ranks {
			t.Errorf("ranks %d: grid %v does not multiply out", ranks, g)
		}
	}
	if g := domain.ChooseGrid(cube, 64); g != [3]int{4, 4, 4} {
		t.Errorf("cubic 64-rank grid %v, want 4x4x4", g)
	}
	// A wide flat slab (chute-like) should avoid cutting z.
	slab := box.NewSlab(vec.V3{}, vec.New(40, 40, 5))
	if g := domain.ChooseGrid(slab, 16); g[2] != 1 {
		t.Errorf("slab grid %v cuts the thin non-periodic dimension", g)
	}
}

// TestMigrationUnderDiffusion: a longer melt run on several ranks
// migrates atoms across sub-domain boundaries without losing any.
func TestMigrationUnderDiffusion(t *testing.T) {
	o := workload.Options{Atoms: 2048, Seed: 6}
	eng, err := domain.New(func() (core.Config, *atom.Store, error) {
		return workload.Build(workload.LJ, o)
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(500)
	total := 0
	migrated := int64(0)
	for _, s := range eng.Sims {
		total += s.Store.N
		migrated += s.Counters.MigratedAtoms
	}
	if total != eng.NGlobal() {
		t.Fatalf("atoms lost: %d of %d", total, eng.NGlobal())
	}
	if migrated == 0 {
		t.Error("no migration during 500 steps of a hot melt")
	}
	t.Logf("lj melt migrated %d atom-moves over 500 steps", migrated)
}

// TestMPIStatsExposed: the engine must expose per-rank MPI profiles with
// live sendrecv traffic.
func TestMPIStatsExposed(t *testing.T) {
	o := workload.Options{Atoms: 2048, Seed: 7}
	eng, err := domain.New(func() (core.Config, *atom.Store, error) {
		return workload.Build(workload.LJ, o)
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(10)
	stats := eng.MPIStats()
	if len(stats) != 4 {
		t.Fatalf("stats for %d ranks", len(stats))
	}
	for r, s := range stats {
		if s.Funcs[mpi.FuncSendrecv].Calls == 0 {
			t.Errorf("rank %d: no sendrecv traffic", r)
		}
		if s.Funcs[mpi.FuncSendrecv].Bytes == 0 {
			t.Errorf("rank %d: zero sendrecv bytes", r)
		}
	}
	c := eng.Counters()
	if c.CommBytes == 0 || c.GhostAtoms == 0 {
		t.Errorf("comm counters empty: %+v", c)
	}
}
