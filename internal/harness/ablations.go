package harness

import (
	"fmt"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/kspace"
	"gomd/internal/mpi"
	"gomd/internal/perfmodel"
	"gomd/internal/workload"
)

// Ablations quantify design choices the paper's characterization turns
// on: the neighbor-skin bookkeeping tradeoff, the PPPM assignment-order
// vs mesh-size tradeoff, and GPU rank multiplexing. They are registered
// alongside the paper experiments (mdbench -exp abl-skin, ...).
func ablations() []Experiment {
	return []Experiment{
		{"abl-skin", "Ablation: neighbor skin distance (rebuild cadence vs list size)", runAblSkin},
		{"abl-order", "Ablation: PPPM assignment order (mesh size vs stencil cost)", runAblOrder},
		{"abl-gpuranks", "Ablation: MPI ranks per GPU (the paper's §6 multiplexing note)", runAblGPURanks},
		{"ext-weak", "Extension: weak scaling at fixed atoms per rank", runWeakScaling},
		{"ext-roofline", "Extension: roofline placement of dominant tasks", runRoofline},
	}
}

// runAblSkin sweeps the LJ skin distance: small skins rebuild constantly,
// large skins bloat the list; the bench default (0.3 sigma) sits near the
// optimum.
func runAblSkin(r *Runner, _ CampaignSpec) ([]Table, error) {
	t := Table{
		Title: "Ablation: LJ neighbor skin distance (serial engine measurement, CPU-instance pricing)",
		Header: []string{"Skin [sigma]", "Rebuild interval [steps]", "Pairs/atom in list",
			"Neigh share %", "TS/s (1 rank, 32k)"},
	}
	for _, skin := range []float64{0.1, 0.2, 0.3, 0.5, 0.8, 1.2} {
		cfg, st, err := workload.Build(workload.LJ, workload.Options{Atoms: 4000, Seed: 17})
		if err != nil {
			return nil, err
		}
		cfg.Skin = skin
		// Displacement-triggered rebuilds so the cadence reflects the skin.
		cfg.NeighEvery = 1
		cfg.NeighNoCheck = false
		steps := 60
		c, out := serialWindow(cfg, st, 10, steps)

		interval := float64(steps)
		if c.NeighBuilds > 0 {
			interval = float64(steps) / float64(c.NeighBuilds)
		}
		t.AddRow(fmt.Sprintf("%.1f", skin),
			fmt.Sprintf("%.1f", interval),
			fmt.Sprintf("%.1f", float64(c.NeighPairs)/float64(max(c.NeighBuilds, 1))/float64(st.N)*2),
			fmt.Sprintf("%.1f", taskPercentRow(out)[core.TaskNeigh]),
			fmt.Sprintf("%.1f", out.TSps))
	}
	t.Note = "The bench default (0.3 sigma) balances rebuild cadence against list size."
	return []Table{t}, nil
}

// runAblOrder sweeps the PPPM B-spline assignment order at fixed
// accuracy: higher orders permit coarser meshes (less FFT) at more
// spread/interp work per atom.
func runAblOrder(r *Runner, _ CampaignSpec) ([]Table, error) {
	t := Table{
		Title: "Ablation: PPPM assignment order at 1e-4 relative accuracy (rhodo surrogate)",
		Header: []string{"Order", "Mesh", "Spread ops/atom/step",
			"FFT Mops/step", "Kspace share % (1 rank, 32k)"},
	}
	for _, order := range []int{3, 5, 7} {
		cfg, st, err := workload.Build(workload.Rhodo, workload.Options{Atoms: 1500, Seed: 23})
		if err != nil {
			return nil, err
		}
		pp := cfg.Kspace.(*kspace.PPPM)
		pp.Order = order
		steps := 8
		c, out := serialWindow(cfg, st, 4, steps)
		nx, ny, nz := pp.Mesh()
		t.AddRow(order, fmt.Sprintf("%dx%dx%d", nx, ny, nz),
			fmt.Sprintf("%.0f", float64(c.KspaceSpreadOps)/float64(steps)/float64(st.N)),
			fmt.Sprintf("%.2f", float64(c.KspaceFFTOps)/float64(steps)/1e6),
			fmt.Sprintf("%.1f", taskPercentRow(out)[core.TaskKspace]))
	}
	t.Note = "LAMMPS defaults to order 5, trading mesh size against stencil width."
	return []Table{t}, nil
}

// runAblGPURanks sweeps MPI processes per device for LJ, reproducing the
// paper's observation that time-multiplexing several sub-domains on one
// GPU raises utilization up to a point.
func runAblGPURanks(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Ablation: MPI ranks per GPU device (lj, 256k atoms, 2 devices)",
		Header: []string{"Ranks/GPU", "Total ranks", "TS/s", "GPU util %"},
	}
	for _, rpg := range []int{1, 2, 4, 6, 8} {
		ranks := 2 * rpg
		m, err := r.Measure(Spec{Workload: workload.LJ, AtomsK: 256, Ranks: ranks})
		if err != nil {
			return nil, err
		}
		out, err := m.GPU(2, rpg)
		if err != nil {
			return nil, err
		}
		t.AddRow(rpg, ranks, fmt.Sprintf("%.1f", out.TSps),
			fmt.Sprintf("%.1f", 100*avg(out.DeviceUtil)))
	}
	t.Note = "The paper found no more than 48 total processes beneficial on the 52-core host."
	return []Table{t}, nil
}

// serialWindow runs a serial engine warm steps, then steps more, and
// prices that window's counters on the CPU instance as one rank of a
// 32k-atom system.
func serialWindow(cfg core.Config, st *atom.Store, warm, steps int) (core.Counters, perfmodel.Outcome) {
	sim := core.New(cfg, st)
	sim.Run(warm)
	base := sim.Counters
	sim.Run(steps)
	c := diffCounters(sim.Counters, base)
	return c, perfmodel.EvaluateCPU(perfmodel.Input{
		Instance:  perfmodel.CPUInstance(),
		Costs:     perfmodel.CPUCosts(),
		Ranks:     1,
		Steps:     steps,
		PairStyle: cfg.Pair.Name(),
		NGlobal:   32000,
		PerRank:   []core.Counters{perfmodel.ScaleCounters(c, perfmodel.ScaleSpec{Factor: 32000 / float64(st.N)})},
		MPI:       make([]mpi.Stats, 1),
	})
}

// runWeakScaling is an extension beyond the paper's strong-scaling focus:
// hold atoms-per-rank fixed and grow ranks, the regime prior LAMMPS
// studies (the paper's §4.1 citations) report. Efficiency is
// TS/s(n)/TS/s(1) since per-rank work is constant.
func runWeakScaling(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Extension: weak scaling at 32k atoms per rank (CPU instance)",
		Header: []string{"Bench", "Ranks", "Atoms[k]", "TS/s", "Weak efficiency %"},
	}
	for _, name := range []workload.Name{workload.LJ, workload.EAM} {
		var base float64
		for _, ranks := range []int{1, 2, 4, 8, 16, 32, 64} {
			size := 32 * ranks
			m, err := r.Measure(Spec{Workload: name, AtomsK: size, Ranks: ranks})
			if err != nil {
				return nil, err
			}
			out := m.CPU()
			if ranks == 1 {
				base = out.TSps
			}
			eff := 100.0
			if base > 0 {
				eff = 100 * out.TSps / base
			}
			t.AddRow(string(name), ranks, size,
				fmt.Sprintf("%.2f", out.TSps), fmt.Sprintf("%.1f", eff))
		}
	}
	t.Note = "Constant per-rank work: ideal weak scaling holds TS/s flat."
	return []Table{t}, nil
}

// runRoofline is an extension: place each workload's dominant tasks on
// the CPU instance's roofline from measured per-step counters.
func runRoofline(r *Runner, _ CampaignSpec) ([]Table, error) {
	rl := perfmodel.CPURoofline()
	t := Table{
		Title: "Extension: roofline placement of dominant tasks (CPU instance)",
		Note: fmt.Sprintf("peak %.0f GFLOP/s, %.0f GB/s, ridge at %.1f flops/byte",
			rl.PeakGflops, rl.PeakGBs, rl.Ridge()),
		Header: []string{"Bench", "Task", "Intensity [F/B]", "Attainable [GFLOP/s]", "Bound"},
	}
	for _, name := range workload.All() {
		m, err := r.Measure(Spec{Workload: name, AtomsK: 32, Ranks: 8})
		if err != nil {
			return nil, err
		}
		var sum core.Counters
		for _, c := range m.perRank {
			sum.Add(c)
		}
		sum.Steps = m.perRank[0].Steps
		for _, ti := range rl.Analyze(m.pairStyle, sum) {
			bound := "compute"
			if ti.MemoryBound {
				bound = "memory"
			}
			t.AddRow(string(name), ti.Task.String(),
				fmt.Sprintf("%.2f", ti.Intensity),
				fmt.Sprintf("%.0f", ti.AttainableGflops), bound)
		}
	}
	return []Table{t}, nil
}
