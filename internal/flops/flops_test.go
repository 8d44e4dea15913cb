package flops_test

import (
	"testing"

	"gomd/internal/core"
	"gomd/internal/flops"
	"gomd/internal/pair"
	"gomd/internal/workload"
)

func TestIntensityOrdering(t *testing.T) {
	lj := flops.Pair("lj/cut")
	ch := flops.Pair("lj/charmm/coul/long")
	eam := flops.Pair("eam")
	if ch.Intensity() <= lj.Intensity() {
		t.Errorf("charmm intensity %v should exceed lj %v", ch.Intensity(), lj.Intensity())
	}
	if eam.Flops <= 0 || eam.Bytes <= 0 {
		t.Errorf("eam cost degenerate: %+v", eam)
	}
	// Unknown styles fall back to the lj baseline instead of zeroing out.
	if got := flops.Pair("nonexistent/style"); got != lj {
		t.Errorf("unknown style cost %+v, want lj baseline %+v", got, lj)
	}
}

func TestScaleAndAdd(t *testing.T) {
	c := flops.Cost{Flops: 3, Bytes: 6}.Scale(10)
	if c.Flops != 30 || c.Bytes != 60 {
		t.Fatalf("Scale: %+v", c)
	}
	if c.Intensity() != 0.5 {
		t.Fatalf("Intensity: %v", c.Intensity())
	}
	s := c.Add(flops.Cost{Flops: 10, Bytes: 40})
	if s.Flops != 40 || s.Bytes != 100 {
		t.Fatalf("Add: %+v", s)
	}
	if (flops.Cost{Flops: 1}).Intensity() != 0 {
		t.Fatal("zero-byte intensity must be 0, not Inf")
	}
}

func TestKspaceCompose(t *testing.T) {
	ops := flops.KspaceOps{SpreadOps: 100, InterpOps: 100, MapOps: 10, FFTOps: 1000, GridOps: 50}
	c := flops.Kspace(ops)
	want := flops.KspaceSpread().Scale(100).
		Add(flops.KspaceInterp().Scale(100)).
		Add(flops.KspaceMap().Scale(10)).
		Add(flops.KspaceFFT().Scale(1000)).
		Add(flops.KspaceGrid().Scale(50))
	if c != want {
		t.Fatalf("Kspace compose %+v != %+v", c, want)
	}
	if c.Flops <= 0 || c.Intensity() <= 0 {
		t.Fatalf("degenerate kspace cost %+v", c)
	}
}

// TestCounterHookValidation runs a real (small) LJ step and prices the
// measured operation counters through the static models — the counter
// hook the roofline gauges rely on. The resulting intensities
// must land in the memory-bound band the paper's arithmetic-intensity
// argument (and MD-Bench's measurements) put MD kernels in.
func TestCounterHookValidation(t *testing.T) {
	cfg, st := workload.MustBuild(workload.LJ, workload.Options{
		Atoms: 1000, Precision: pair.Double, Seed: 7,
	})
	sim := core.New(cfg, st)
	defer sim.Close()
	sim.Run(5)

	c := sim.Counters
	if c.PairOps == 0 || c.NeighChecks == 0 {
		t.Fatalf("no measured ops: %+v", c)
	}
	pairTotal := flops.Pair("lj/cut").Scale(float64(c.PairOps))
	neighTotal := flops.NeighCheck().Scale(float64(c.NeighChecks))
	for name, tot := range map[string]flops.Cost{"pair": pairTotal, "neigh": neighTotal} {
		ai := tot.Intensity()
		if ai <= 0.05 || ai >= 5 {
			t.Errorf("%s intensity %v outside the plausible MD band (0.05, 5)", name, ai)
		}
		if tot.Flops < float64(c.Steps) { // far more than one flop per step
			t.Errorf("%s flops %v implausibly small", name, tot.Flops)
		}
	}
	// Per-op intensity is scale-invariant: totals keep the static ratio.
	if got, want := pairTotal.Intensity(), flops.Pair("lj/cut").Intensity(); got != want {
		t.Errorf("scaling changed intensity: %v != %v", got, want)
	}
}

// TestKernelCostsPinned pins, exactly, what one invocation of each
// threadable kernel costs on the 8000-atom workloads at seed 2022: the
// operation counts the kernel reports and the flops, bytes and intensity
// this package prices them at. Every number is a function of the
// deterministic workload and the cost tables, not of the host, so the
// comparison has no tolerance. Three kinds of change are meant to move
// it, and each re-records the rows it touches: an internal/flops
// constant, a kernel doing different work (a cutoff, a list, a mesh),
// and ROADMAP 4(b) — the half-integer stencil fix changes the primed
// rhodo SpreadOps, hence the pppm row.
func TestKernelCostsPinned(t *testing.T) {
	type row struct {
		kernel       string
		ops          int64           // pairs (eam: both passes) or distance checks
		kops         flops.KspaceOps // pppm only
		flops, bytes float64
		ai           float64
	}
	cases := []struct {
		wl    workload.Name
		prec  pair.Precision
		atoms int
		rows  []row
	}{
		{workload.LJ, pair.Mixed, 8788, []row{
			{kernel: "pair", ops: 266538, flops: 7996140, bytes: 10661520, ai: 0.75},
			{kernel: "neigh", ops: 1573792, flops: 15737920, bytes: 44066176, ai: 10.0 / 28.0},
		}},
		{workload.EAM, pair.Double, 8788, []row{
			{kernel: "pair", ops: 412020, flops: 9888480, bytes: 16480800, ai: 0.6},
		}},
		{workload.Rhodo, pair.Double, 8232, []row{
			{kernel: "pair", ops: 1887820, flops: 103830100, bytes: 75512800, ai: 1.375},
			{kernel: "pppm", kops: flops.KspaceOps{
				SpreadOps: 1029000, InterpOps: 1029000, MapOps: 8232, FFTOps: 663552, GridOps: 13823,
			}, flops: 19115850, bytes: 54801568, ai: 0.34881939874421114},
		}},
	}
	for _, tc := range cases {
		cfg, st := workload.MustBuild(tc.wl, workload.Options{
			Atoms: 8000, Precision: tc.prec, Seed: 2022,
		})
		sim := core.New(cfg, st)
		sim.Prime()
		if sim.Store.N != tc.atoms {
			t.Errorf("%s: %d atoms, want %d", tc.wl, sim.Store.N, tc.atoms)
		}
		for _, want := range tc.rows {
			got := row{kernel: want.kernel}
			var cost flops.Cost
			switch want.kernel {
			case "pair":
				sim.Store.ZeroForces()
				got.ops = sim.Cfg.Pair.Compute(sim.PairContext()).Pairs
				cost = flops.Pair(sim.Cfg.Pair.Name()).Scale(float64(got.ops))
			case "neigh":
				before := sim.NL.Stats.DistanceChecks
				sim.NL.Build(sim.Store)
				got.ops = sim.NL.Stats.DistanceChecks - before
				cost = flops.NeighCheck().Scale(float64(got.ops))
			case "pppm":
				k := sim.Cfg.Kspace.Compute(sim.Store, sim.Box, sim.KspaceReducer())
				got.kops = flops.KspaceOps{
					SpreadOps: k.SpreadOps, InterpOps: k.InterpOps,
					MapOps: k.MapOps, FFTOps: k.FFTOps, GridOps: k.GridOps,
				}
				cost = flops.Kspace(got.kops)
			}
			got.flops, got.bytes, got.ai = cost.Flops, cost.Bytes, cost.Intensity()
			if got != want {
				t.Errorf("%s:\n got %+v\nwant %+v", tc.wl, got, want)
			}
		}
		sim.Close()
	}
}
