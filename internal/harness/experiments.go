package harness

import (
	"fmt"

	"gomd/internal/core"
	"gomd/internal/neighbor"
	"gomd/internal/pair"
	"gomd/internal/perfmodel"
	"gomd/internal/workload"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	run   func(r *Runner, c CampaignSpec) ([]Table, error)
}

// Run regenerates the experiment over c's sizes, rank and GPU counts;
// an empty axis sweeps the paper's full range (WithDefaults).
func (e Experiment) Run(r *Runner, c CampaignSpec) ([]Table, error) {
	return e.run(r, c.WithDefaults())
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table 1: LAMMPS task taxonomy", runTable1},
		{"table2", "Table 2: benchmark suite characteristics", runTable2},
		{"table3", "Table 3: CPU and GPU instance description", runTable3},
		{"fig3", "Figure 3: CPU task breakdown by benchmark/size/ranks", runFig3},
		{"fig4", "Figure 4: MPI overhead and imbalance", runFig4},
		{"fig5", "Figure 5: MPI function breakdown", runFig5},
		{"fig6", "Figure 6: CPU performance / energy / parallel efficiency", runFig6},
		{"fig7", "Figure 7: GPU task breakdown", runFig7},
		{"fig8", "Figure 8: GPU kernel and data-movement breakdown", runFig8},
		{"fig9", "Figure 9: GPU performance / energy / parallel efficiency", runFig9},
		{"fig10", "Figure 10: rhodo CPU performance vs kspace error threshold", runFig10},
		{"fig11", "Figure 11: rhodo CPU task breakdown vs kspace error threshold", runFig11},
		{"fig12", "Figure 12: rhodo MPI function breakdown vs kspace error threshold", runFig12},
		{"fig13", "Figure 13: rhodo GPU performance vs kspace error threshold", runFig13},
		{"fig14", "Figure 14: rhodo MPI overhead/imbalance vs kspace error threshold", runFig14},
		{"fig15", "Figure 15: CPU performance vs floating-point precision", runFig15},
		{"fig16", "Figure 16: GPU performance vs floating-point precision", runFig16},
		{"headline", "Section 10 headline numbers (anchors)", runHeadline},
	}
}

// FullRegistry is Registry plus the ablation studies.
func FullRegistry() []Experiment {
	return append(Registry(), ablations()...)
}

// Get finds an experiment by id.
func Get(id string) (Experiment, bool) {
	for _, e := range FullRegistry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- Tables -------------------------------------------------------------

func runTable1(*Runner, CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Table 1: computational tasks of a timestep",
		Header: []string{"Task", "Step", "Description"},
	}
	t.AddRow("Bond", "VII", "Computation of bonded forces")
	t.AddRow("Comm", "IV", "Inter-processor communication of atoms and their properties")
	t.AddRow("Kspace", "VI", "Computation of long-range interaction forces")
	t.AddRow("Modify", "II", "Fixes and computes invoked by fixes")
	t.AddRow("Neigh", "III", "Neighbor list construction")
	t.AddRow("Output", "VIII", "Output of thermodynamic info and dump files")
	t.AddRow("Pair", "V", "Computation of pairwise potential")
	t.AddRow("Other", "-", "All other tasks")
	return []Table{t}, nil
}

func runTable2(r *Runner, _ CampaignSpec) ([]Table, error) {
	t := Table{
		Title: "Table 2: benchmark suite (paper taxonomy + measured neighbors/atom)",
		Header: []string{"Benchmark", "Force field", "Cutoff", "Skin",
			"Neigh/atom (paper)", "Neigh/atom (measured)", "pair_modify",
			"kspace", "Kspace err", "Integration"},
	}
	for _, name := range workload.All() {
		d := workload.Describe(name)
		measured := measuredNeighborsPerAtom(name)
		kerr := "-"
		if d.KspaceError > 0 {
			kerr = fmt.Sprintf("%.0e", d.KspaceError)
		}
		dash := func(s string) string {
			if s == "" {
				return "-"
			}
			return s
		}
		t.AddRow(string(d.Name), d.ForceField, d.Cutoff, d.NeighborSkin,
			d.NeighPerAtom, fmt.Sprintf("%.0f", measured), dash(d.PairModify),
			dash(d.KspaceStyle), kerr, d.Integration)
	}
	return []Table{t}, nil
}

// measuredNeighborsPerAtom runs a short serial simulation and reads the
// neighbor density off the real list (at the force cutoff, not the
// cutoff+skin list range, to match the Table 2 convention).
func measuredNeighborsPerAtom(name workload.Name) float64 {
	cfg, st := workload.MustBuild(name, workload.Options{Atoms: 16000, Seed: 9})
	s := core.New(cfg, st)
	s.Run(2)
	if name == workload.Chute {
		// Granular "neighbors" are potential contacts tracked by the
		// list (in-cutoff pair counts would report only live overlaps).
		return s.NL.NeighborsPerAtom(st.N)
	}
	// Count in-cutoff pairs from the pair-ops counter: PairOps per step
	// = N * n/atom / 2 for half lists.
	per := float64(s.Counters.PairOps) / float64(s.Counters.Steps) / float64(st.N)
	if cfg.Pair.ListMode() == neighbor.Half {
		per *= 2
	}
	if name == workload.EAM {
		per /= 2 // the EAM style meters its two passes separately
	}
	return per
}

func runTable3(*Runner, CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Table 3: instances",
		Header: []string{"Instance", "Description"},
	}
	t.AddRow("CPU", perfmodel.CPUInstance().String())
	t.AddRow("GPU", perfmodel.GPUInstance().String())
	return []Table{t}, nil
}

// --- CPU figures ---------------------------------------------------------

// taskPercentRow renders a per-task percentage row averaged over ranks.
func taskPercentRow(out perfmodel.Outcome) []float64 {
	var sumT [core.NumTasks]float64
	var tot float64
	for _, t := range out.Tasks {
		for k, v := range t {
			sumT[k] += v
			tot += v
		}
	}
	row := make([]float64, core.NumTasks)
	if tot == 0 {
		return row
	}
	for k := range row {
		row[k] = 100 * sumT[k] / tot
	}
	return row
}

func taskHeader(prefix ...string) []string {
	h := append([]string{}, prefix...)
	for _, task := range core.Tasks() {
		h = append(h, task.String()+"%")
	}
	return h
}

func runFig3(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 3: CPU execution-time breakdown by task [%]",
		Header: taskHeader("Bench", "Size[k]", "Ranks"),
	}
	for _, name := range workload.All() {
		for _, size := range p.SizesK {
			for _, ranks := range p.Ranks {
				m, err := r.Measure(Spec{Workload: name, AtomsK: size, Ranks: ranks})
				if err != nil {
					return nil, err
				}
				out := m.CPU()
				cells := []any{string(name), size, ranks}
				for _, v := range taskPercentRow(out) {
					cells = append(cells, fmt.Sprintf("%.1f", v))
				}
				t.AddRow(cells...)
			}
		}
	}
	return []Table{t}, nil
}

func avg(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func runFig4(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 4: MPI time share and MPI imbalance, averaged over ranks [%]",
		Header: []string{"Bench", "Size[k]", "Ranks", "MPI time %", "MPI imbalance %"},
	}
	for _, name := range workload.All() {
		for _, size := range p.SizesK {
			for _, ranks := range p.Ranks {
				if ranks < 4 {
					continue // the paper plots 4..64
				}
				m, err := r.Measure(Spec{Workload: name, AtomsK: size, Ranks: ranks})
				if err != nil {
					return nil, err
				}
				out := m.CPU()
				t.AddRow(string(name), size, ranks,
					fmt.Sprintf("%.1f", avg(out.MPIPct)),
					fmt.Sprintf("%.2f", avg(out.ImbalancePct)))
			}
		}
	}
	return []Table{t}, nil
}

func mpiBreakdownRow(out perfmodel.Outcome) []float64 {
	var init, send, sr, wait, ar, oth, tot float64
	for _, m := range out.MPI {
		init += m.Init
		send += m.Send
		sr += m.Sendrecv
		wait += m.Wait
		ar += m.Allreduce
		oth += m.Others
	}
	tot = init + send + sr + wait + ar + oth
	if tot == 0 {
		return make([]float64, 6)
	}
	return []float64{
		100 * ar / tot, 100 * init / tot, 100 * send / tot,
		100 * sr / tot, 100 * wait / tot, 100 * oth / tot,
	}
}

var mpiHeader = []string{"Allreduce%", "Init%", "Send%", "Sendrecv%", "Wait%", "others%"}

func runFig5(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 5: MPI function breakdown (share of MPI time) [%]",
		Header: append([]string{"Bench", "Size[k]", "Ranks"}, mpiHeader...),
	}
	for _, name := range workload.All() {
		for _, size := range p.SizesK {
			for _, ranks := range p.Ranks {
				if ranks < 4 {
					continue
				}
				m, err := r.Measure(Spec{Workload: name, AtomsK: size, Ranks: ranks})
				if err != nil {
					return nil, err
				}
				cells := []any{string(name), size, ranks}
				for _, v := range mpiBreakdownRow(m.CPU()) {
					cells = append(cells, fmt.Sprintf("%.1f", v))
				}
				t.AddRow(cells...)
			}
		}
	}
	return []Table{t}, nil
}

func runFig6(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title: "Figure 6: CPU performance, energy efficiency, parallel efficiency",
		Header: []string{"Bench", "Size[k]", "Ranks", "TS/s",
			"TS/s/W", "Parallel eff %"},
	}
	for _, name := range workload.All() {
		for _, size := range p.SizesK {
			var base float64
			for _, ranks := range p.Ranks {
				m, err := r.Measure(Spec{Workload: name, AtomsK: size, Ranks: ranks})
				if err != nil {
					return nil, err
				}
				out := m.CPU()
				if ranks == 1 {
					base = out.TSps
				}
				eff := 100.0
				if base > 0 && ranks > 1 {
					eff = 100 * out.TSps / (base * float64(ranks))
				}
				t.AddRow(string(name), size, ranks,
					fmt.Sprintf("%.2f", out.TSps),
					fmt.Sprintf("%.4f", out.EnergyEff),
					fmt.Sprintf("%.1f", eff))
			}
		}
	}
	return []Table{t}, nil
}

// --- GPU figures ---------------------------------------------------------

// gpuBenchmarks excludes Chute, whose pair style has no GPU kernel.
func gpuBenchmarks() []workload.Name {
	var out []workload.Name
	for _, n := range workload.All() {
		if workload.Describe(n).GPUSupported {
			out = append(out, n)
		}
	}
	return out
}

func (r *Runner) gpuMeasure(name workload.Name, size, devices int, p CampaignSpec, prec pair.Precision, acc float64) (*Measurement, perfmodel.GPUOutcome, error) {
	ranks := devices * p.RanksPerGPU
	m, err := r.Measure(Spec{Workload: name, AtomsK: size, Ranks: ranks, Precision: prec, KspaceAcc: acc})
	if err != nil {
		return nil, perfmodel.GPUOutcome{}, err
	}
	out, err := m.GPU(devices, p.RanksPerGPU)
	return m, out, err
}

func runFig7(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 7: GPU execution-time breakdown by task [%]",
		Header: taskHeader("Bench", "Size[k]", "GPUs"),
	}
	for _, name := range gpuBenchmarks() {
		for _, size := range p.SizesK {
			for _, dev := range p.GPUs {
				_, out, err := r.gpuMeasure(name, size, dev, p, pair.Mixed, 0)
				if err != nil {
					return nil, err
				}
				cells := []any{string(name), size, dev}
				for _, v := range taskPercentRow(out.Outcome) {
					cells = append(cells, fmt.Sprintf("%.1f", v))
				}
				t.AddRow(cells...)
			}
		}
	}
	return []Table{t}, nil
}

func runFig8(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title: "Figure 8: GPU kernels and data movement (share of device-active time) [%]",
		Header: []string{"Bench", "Size[k]", "GPUs", "HtoD%", "DtoH%",
			"pair kernel", "pair%", "energy%", "neigh%", "make_rho%",
			"particle_map%", "interp%", "special%", "zero%"},
	}
	for _, name := range gpuBenchmarks() {
		for _, size := range p.SizesK {
			for _, dev := range p.GPUs {
				_, out, err := r.gpuMeasure(name, size, dev, p, pair.Mixed, 0)
				if err != nil {
					return nil, err
				}
				var k perfmodel.GPUKernelProfile
				for _, pr := range out.Kernels {
					k.MemcpyHtoD += pr.MemcpyHtoD
					k.MemcpyDtoH += pr.MemcpyDtoH
					k.PairSeconds += pr.PairSeconds
					k.PairEnergy += pr.PairEnergy
					k.NeighKernel += pr.NeighKernel
					k.MakeRho += pr.MakeRho
					k.ParticleMap += pr.ParticleMap
					k.Interp += pr.Interp
					k.KernelSpecial += pr.KernelSpecial
					k.KernelZero += pr.KernelZero
					k.PairKernel = pr.PairKernel
				}
				tot := k.Total()
				pc := func(v float64) string {
					if tot == 0 {
						return "0"
					}
					return fmt.Sprintf("%.1f", 100*v/tot)
				}
				t.AddRow(string(name), size, dev, pc(k.MemcpyHtoD), pc(k.MemcpyDtoH),
					k.PairKernel, pc(k.PairSeconds), pc(k.PairEnergy), pc(k.NeighKernel),
					pc(k.MakeRho), pc(k.ParticleMap), pc(k.Interp),
					pc(k.KernelSpecial), pc(k.KernelZero))
			}
		}
	}
	return []Table{t}, nil
}

func runFig9(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title: "Figure 9: GPU performance, energy efficiency, parallel efficiency",
		Header: []string{"Bench", "Size[k]", "GPUs", "TS/s", "TS/s/W",
			"Parallel eff %", "GPU util %"},
	}
	for _, name := range gpuBenchmarks() {
		for _, size := range p.SizesK {
			var base float64
			for _, dev := range p.GPUs {
				_, out, err := r.gpuMeasure(name, size, dev, p, pair.Mixed, 0)
				if err != nil {
					return nil, err
				}
				if dev == 1 {
					base = out.TSps
				}
				eff := 100.0
				if base > 0 && dev > 1 {
					eff = 100 * out.TSps / (base * float64(dev))
				}
				t.AddRow(string(name), size, dev,
					fmt.Sprintf("%.2f", out.TSps),
					fmt.Sprintf("%.4f", out.EnergyEff),
					fmt.Sprintf("%.1f", eff),
					fmt.Sprintf("%.1f", 100*avg(out.DeviceUtil)))
			}
		}
	}
	return []Table{t}, nil
}

// --- Sensitivity studies ---------------------------------------------------

var errThresholds = []float64{1e-4, 1e-5, 1e-6, 1e-7}

func accLabel(acc float64) string {
	switch acc {
	case 1e-4:
		return "rhodo"
	default:
		return fmt.Sprintf("rhodo-e-%.0f", -log10(acc))
	}
}

func log10(x float64) float64 {
	// Avoid importing math just for this tiny helper... but clarity wins:
	switch x {
	case 1e-4:
		return -4
	case 1e-5:
		return -5
	case 1e-6:
		return -6
	case 1e-7:
		return -7
	}
	return 0
}

func runFig10(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 10: rhodo CPU performance vs kspace relative error threshold",
		Header: []string{"Variant", "Size[k]", "Ranks", "TS/s", "Parallel eff %", "Mesh"},
	}
	for _, acc := range errThresholds {
		for _, size := range p.SizesK {
			var base float64
			for _, ranks := range p.Ranks {
				m, err := r.Measure(Spec{Workload: workload.Rhodo, AtomsK: size, Ranks: ranks, KspaceAcc: acc})
				if err != nil {
					return nil, err
				}
				out := m.CPU()
				if ranks == 1 {
					base = out.TSps
				}
				eff := 100.0
				if base > 0 && ranks > 1 {
					eff = 100 * out.TSps / (base * float64(ranks))
				}
				g := m.GridDims()
				t.AddRow(accLabel(acc), size, ranks,
					fmt.Sprintf("%.3f", out.TSps),
					fmt.Sprintf("%.1f", eff),
					fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2]))
			}
		}
	}
	return []Table{t}, nil
}

func runFig11(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 11: rhodo CPU task breakdown vs kspace error threshold [%]",
		Header: taskHeader("Variant", "Size[k]", "Ranks"),
	}
	for _, acc := range errThresholds {
		if acc == 1e-5 {
			continue // the paper omits e-5 here
		}
		for _, size := range p.SizesK {
			for _, ranks := range p.Ranks {
				if ranks < 2 {
					continue
				}
				m, err := r.Measure(Spec{Workload: workload.Rhodo, AtomsK: size, Ranks: ranks, KspaceAcc: acc})
				if err != nil {
					return nil, err
				}
				cells := []any{accLabel(acc), size, ranks}
				for _, v := range taskPercentRow(m.CPU()) {
					cells = append(cells, fmt.Sprintf("%.1f", v))
				}
				t.AddRow(cells...)
			}
		}
	}
	return []Table{t}, nil
}

func runFig12(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 12: rhodo MPI function breakdown vs kspace error threshold [%]",
		Header: append([]string{"Variant", "Size[k]", "Ranks"}, mpiHeader...),
	}
	for _, acc := range errThresholds {
		for _, size := range p.SizesK {
			for _, ranks := range p.Ranks {
				if ranks < 4 {
					continue
				}
				m, err := r.Measure(Spec{Workload: workload.Rhodo, AtomsK: size, Ranks: ranks, KspaceAcc: acc})
				if err != nil {
					return nil, err
				}
				cells := []any{accLabel(acc), size, ranks}
				for _, v := range mpiBreakdownRow(m.CPU()) {
					cells = append(cells, fmt.Sprintf("%.1f", v))
				}
				t.AddRow(cells...)
			}
		}
	}
	return []Table{t}, nil
}

func runFig13(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 13: rhodo GPU performance vs kspace error threshold",
		Header: []string{"Variant", "Size[k]", "GPUs", "TS/s", "Parallel eff %"},
	}
	for _, acc := range errThresholds {
		for _, size := range p.SizesK {
			var base float64
			for _, dev := range p.GPUs {
				_, out, err := r.gpuMeasure(workload.Rhodo, size, dev, p, pair.Mixed, acc)
				if err != nil {
					return nil, err
				}
				if dev == 1 {
					base = out.TSps
				}
				eff := 100.0
				if base > 0 && dev > 1 {
					eff = 100 * out.TSps / (base * float64(dev))
				}
				t.AddRow(accLabel(acc), size, dev,
					fmt.Sprintf("%.3f", out.TSps), fmt.Sprintf("%.1f", eff))
			}
		}
	}
	return []Table{t}, nil
}

func runFig14(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 14: rhodo MPI overhead and imbalance vs kspace error threshold [%]",
		Header: []string{"Variant", "Size[k]", "Ranks", "MPI time %", "MPI imbalance %"},
	}
	for _, acc := range []float64{1e-4, 1e-6, 1e-7} {
		for _, size := range p.SizesK {
			for _, ranks := range p.Ranks {
				if ranks < 4 {
					continue
				}
				m, err := r.Measure(Spec{Workload: workload.Rhodo, AtomsK: size, Ranks: ranks, KspaceAcc: acc})
				if err != nil {
					return nil, err
				}
				out := m.CPU()
				t.AddRow(accLabel(acc), size, ranks,
					fmt.Sprintf("%.1f", avg(out.MPIPct)),
					fmt.Sprintf("%.2f", avg(out.ImbalancePct)))
			}
		}
	}
	return []Table{t}, nil
}

var precisions = []pair.Precision{pair.Mixed, pair.Double, pair.Single}

func precLabel(base string, p pair.Precision) string {
	if p == pair.Mixed {
		return base
	}
	return base + "-" + p.String()
}

func runFig15(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 15: CPU performance vs floating-point precision [TS/s]",
		Header: []string{"Variant", "Size[k]", "Ranks", "TS/s"},
	}
	for _, name := range []workload.Name{workload.LJ, workload.Rhodo} {
		for _, prec := range precisions {
			for _, size := range p.SizesK {
				for _, ranks := range p.Ranks {
					m, err := r.Measure(Spec{Workload: name, AtomsK: size, Ranks: ranks, Precision: prec})
					if err != nil {
						return nil, err
					}
					t.AddRow(precLabel(string(name), prec), size, ranks,
						fmt.Sprintf("%.2f", m.CPU().TSps))
				}
			}
		}
	}
	return []Table{t}, nil
}

func runFig16(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Figure 16: GPU performance vs floating-point precision [TS/s]",
		Header: []string{"Variant", "Size[k]", "GPUs", "TS/s"},
	}
	for _, name := range []workload.Name{workload.LJ, workload.Rhodo} {
		for _, prec := range precisions {
			for _, size := range p.SizesK {
				for _, dev := range p.GPUs {
					_, out, err := r.gpuMeasure(name, size, dev, p, prec, 0)
					if err != nil {
						return nil, err
					}
					t.AddRow(precLabel(string(name), prec), size, dev,
						fmt.Sprintf("%.2f", out.TSps))
				}
			}
		}
	}
	return []Table{t}, nil
}

func runHeadline(r *Runner, p CampaignSpec) ([]Table, error) {
	t := Table{
		Title:  "Section 10 headline anchors: paper vs model",
		Header: []string{"Anchor", "Paper", "Model"},
		Note:   "rhodo ns/day = TS/s x 2 fs x 86400 s/day",
	}
	add := func(label, paper string, model float64, format string) {
		t.AddRow(label, paper, fmt.Sprintf(format, model))
	}

	// rhodo 2048k @ 64 ranks.
	m, err := r.Measure(Spec{Workload: workload.Rhodo, AtomsK: 2048, Ranks: 64})
	if err != nil {
		return nil, err
	}
	rh64 := m.CPU()
	add("rhodo 2048k, 64 ranks [TS/s]", "10.7", rh64.TSps, "%.2f")
	add("rhodo 2048k, CPU node [ns/day]", "2.0", rh64.TSps*2e-6*86400, "%.2f")

	m1, err := r.Measure(Spec{Workload: workload.Rhodo, AtomsK: 2048, Ranks: 1})
	if err != nil {
		return nil, err
	}
	eff := 100 * rh64.TSps / (m1.CPU().TSps * 64)
	add("rhodo 2048k parallel efficiency @64 [%]", "74.29", eff, "%.1f")

	// rhodo 2048k with 1e-7 threshold @ 64 ranks.
	m7, err := r.Measure(Spec{Workload: workload.Rhodo, AtomsK: 2048, Ranks: 64, KspaceAcc: 1e-7})
	if err != nil {
		return nil, err
	}
	add("rhodo-e-7 2048k, 64 ranks [TS/s]", "3.54", m7.CPU().TSps, "%.2f")

	// chute 32k best small-system performance.
	best := 0.0
	for _, ranks := range p.Ranks {
		mc, err := r.Measure(Spec{Workload: workload.Chute, AtomsK: 32, Ranks: ranks})
		if err != nil {
			return nil, err
		}
		if v := mc.CPU().TSps; v > best {
			best = v
		}
	}
	add("chute 32k best CPU [TS/s]", "10697", best, "%.0f")

	// lj 2048k precision extremes @ 64 ranks.
	mLJs, err := r.Measure(Spec{Workload: workload.LJ, AtomsK: 2048, Ranks: 64, Precision: pair.Single})
	if err != nil {
		return nil, err
	}
	add("lj-single 2048k, 64 ranks [TS/s]", "115.2", mLJs.CPU().TSps, "%.1f")
	mLJd, err := r.Measure(Spec{Workload: workload.LJ, AtomsK: 2048, Ranks: 64, Precision: pair.Double})
	if err != nil {
		return nil, err
	}
	add("lj-double 2048k, 64 ranks [TS/s]", "98.9", mLJd.CPU().TSps, "%.1f")

	// GPU anchors at 8 devices.
	_, g8, err := r.gpuMeasure(workload.Rhodo, 2048, 8, p, pair.Mixed, 0)
	if err != nil {
		return nil, err
	}
	add("rhodo 2048k, 8 GPUs [TS/s]", "16.09", g8.TSps, "%.2f")
	add("rhodo 2048k, GPU node [ns/day]", "2.8", g8.TSps*2e-6*86400, "%.2f")
	add("rhodo 2048k, 8 GPUs avg device util [%]", "~30", 100*avg(g8.DeviceUtil), "%.1f")

	_, g87, err := r.gpuMeasure(workload.Rhodo, 2048, 8, p, pair.Mixed, 1e-7)
	if err != nil {
		return nil, err
	}
	add("rhodo-e-7 2048k, 8 GPUs [TS/s]", "0.46", g87.TSps, "%.2f")

	_, gLJs, err := r.gpuMeasure(workload.LJ, 2048, 8, p, pair.Single, 0)
	if err != nil {
		return nil, err
	}
	add("lj-single 2048k, 8 GPUs [TS/s]", "170.0", gLJs.TSps, "%.1f")
	_, gLJd, err := r.gpuMeasure(workload.LJ, 2048, 8, p, pair.Double, 0)
	if err != nil {
		return nil, err
	}
	add("lj-double 2048k, 8 GPUs [TS/s]", "121.6", gLJd.TSps, "%.1f")

	// GPU parallel efficiency minimum across the suite and sizes.
	worst := 100.0
	for _, name := range gpuBenchmarks() {
		for _, size := range p.SizesK {
			var base float64
			for _, dev := range p.GPUs {
				_, out, err := r.gpuMeasure(name, size, dev, p, pair.Mixed, 0)
				if err != nil {
					return nil, err
				}
				if dev == 1 {
					base = out.TSps
					continue
				}
				if e := 100 * out.TSps / (base * float64(dev)); e < worst {
					worst = e
				}
			}
		}
	}
	add("worst GPU parallel efficiency [%]", "23.28", worst, "%.1f")

	return []Table{t}, nil
}
