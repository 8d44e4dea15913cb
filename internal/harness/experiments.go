package harness

import (
	"fmt"
	"math"

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
	reg := []Experiment{
		{"table1", "Table 1: LAMMPS task taxonomy", runTable1},
		{"table2", "Table 2: benchmark suite characteristics", runTable2},
		{"table3", "Table 3: CPU and GPU instance description", runTable3},
	}
	for _, f := range figures {
		reg = append(reg, Experiment{f.id, f.title, f.run})
	}
	return append(reg, Experiment{"headline", "Section 10 headline numbers (anchors)", runHeadline})
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

// --- Figures 3-16 ----------------------------------------------------------

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

// figure is one of the paper's Figs 3-16: a slice of the evaluation grid,
// its series × the campaign's sizes × its rank counts (or GPU counts on
// the GPU instance) from minCount up, one table row per cell. A row
// starts with the series label, the size and the count; cols names the
// rest, which row renders from the priced cell.
type figure struct {
	id, title string // registry id and title
	table     string // the rendered table's title
	series    axis
	gpu       bool
	minCount  int
	cols      []string
	row       func(pt point) []any
}

// axis is a figure's series in the paper's row order, and the header of
// the column that labels them.
type axis struct {
	col  string
	list []series
}

// series is one line of a figure: a spec with its size and rank count
// left for the sweep to fill.
type series struct {
	label string
	spec  Spec
}

func byWorkload(names ...workload.Name) axis {
	a := axis{col: "Bench"}
	for _, n := range names {
		a.list = append(a.list, series{string(n), Spec{Workload: n}})
	}
	return a
}

// byThreshold sweeps rhodo over PPPM error thresholds.
func byThreshold(accs ...float64) axis {
	a := axis{col: "Variant"}
	for _, acc := range accs {
		label := "rhodo"
		if acc != 1e-4 {
			label = fmt.Sprintf("rhodo-e-%.0f", -math.Log10(acc))
		}
		a.list = append(a.list, series{label, Spec{Workload: workload.Rhodo, KspaceAcc: acc}})
	}
	return a
}

// byPrecision sweeps lj and rhodo over the pairwise precisions.
func byPrecision() axis {
	a := axis{col: "Variant"}
	for _, n := range []workload.Name{workload.LJ, workload.Rhodo} {
		for _, prec := range []pair.Precision{pair.Mixed, pair.Double, pair.Single} {
			label := string(n)
			if prec != pair.Mixed {
				label += "-" + prec.String()
			}
			a.list = append(a.list, series{label, Spec{Workload: n, Precision: prec}})
		}
	}
	return a
}

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

var errThresholds = []float64{1e-4, 1e-5, 1e-6, 1e-7}

var figures = []figure{
	{id: "fig3", title: "Figure 3: CPU task breakdown by benchmark/size/ranks",
		table:  "Figure 3: CPU execution-time breakdown by task [%]",
		series: byWorkload(workload.All()...), cols: taskCols(), row: taskRow},
	{id: "fig4", title: "Figure 4: MPI overhead and imbalance",
		table:  "Figure 4: MPI time share and MPI imbalance, averaged over ranks [%]",
		series: byWorkload(workload.All()...), minCount: 4, // the paper plots 4..64
		cols: []string{"MPI time %", "MPI imbalance %"}, row: mpiShareRow},
	{id: "fig5", title: "Figure 5: MPI function breakdown",
		table:  "Figure 5: MPI function breakdown (share of MPI time) [%]",
		series: byWorkload(workload.All()...), minCount: 4, cols: mpiCols, row: mpiRow},
	{id: "fig6", title: "Figure 6: CPU performance / energy / parallel efficiency",
		table:  "Figure 6: CPU performance, energy efficiency, parallel efficiency",
		series: byWorkload(workload.All()...),
		cols:   []string{"TS/s", "TS/s/W", "Parallel eff %"},
		row: func(pt point) []any {
			return []any{fmt.Sprintf("%.2f", pt.TSps), fmt.Sprintf("%.4f", pt.EnergyEff), fmt.Sprintf("%.1f", pt.eff)}
		}},
	{id: "fig7", title: "Figure 7: GPU task breakdown",
		table:  "Figure 7: GPU execution-time breakdown by task [%]",
		series: byWorkload(gpuBenchmarks()...), gpu: true, cols: taskCols(), row: taskRow},
	{id: "fig8", title: "Figure 8: GPU kernel and data-movement breakdown",
		table:  "Figure 8: GPU kernels and data movement (share of device-active time) [%]",
		series: byWorkload(gpuBenchmarks()...), gpu: true,
		cols: []string{"HtoD%", "DtoH%", "pair kernel", "pair%", "energy%", "neigh%",
			"make_rho%", "particle_map%", "interp%", "special%", "zero%"},
		row: kernelRow},
	{id: "fig9", title: "Figure 9: GPU performance / energy / parallel efficiency",
		table:  "Figure 9: GPU performance, energy efficiency, parallel efficiency",
		series: byWorkload(gpuBenchmarks()...), gpu: true,
		cols: []string{"TS/s", "TS/s/W", "Parallel eff %", "GPU util %"},
		row: func(pt point) []any {
			return []any{fmt.Sprintf("%.2f", pt.TSps), fmt.Sprintf("%.4f", pt.EnergyEff),
				fmt.Sprintf("%.1f", pt.eff), fmt.Sprintf("%.1f", 100*avg(pt.DeviceUtil))}
		}},
	{id: "fig10", title: "Figure 10: rhodo CPU performance vs kspace error threshold",
		table:  "Figure 10: rhodo CPU performance vs kspace relative error threshold",
		series: byThreshold(errThresholds...),
		cols:   []string{"TS/s", "Parallel eff %", "Mesh"},
		row: func(pt point) []any {
			g := pt.m.GridDims()
			return []any{fmt.Sprintf("%.3f", pt.TSps), fmt.Sprintf("%.1f", pt.eff),
				fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2])}
		}},
	{id: "fig11", title: "Figure 11: rhodo CPU task breakdown vs kspace error threshold",
		table:  "Figure 11: rhodo CPU task breakdown vs kspace error threshold [%]",
		series: byThreshold(1e-4, 1e-6, 1e-7), minCount: 2, // the paper omits e-5 here
		cols: taskCols(), row: taskRow},
	{id: "fig12", title: "Figure 12: rhodo MPI function breakdown vs kspace error threshold",
		table:  "Figure 12: rhodo MPI function breakdown vs kspace error threshold [%]",
		series: byThreshold(errThresholds...), minCount: 4, cols: mpiCols, row: mpiRow},
	{id: "fig13", title: "Figure 13: rhodo GPU performance vs kspace error threshold",
		table:  "Figure 13: rhodo GPU performance vs kspace error threshold",
		series: byThreshold(errThresholds...), gpu: true,
		cols: []string{"TS/s", "Parallel eff %"},
		row: func(pt point) []any {
			return []any{fmt.Sprintf("%.3f", pt.TSps), fmt.Sprintf("%.1f", pt.eff)}
		}},
	{id: "fig14", title: "Figure 14: rhodo MPI overhead/imbalance vs kspace error threshold",
		table:  "Figure 14: rhodo MPI overhead and imbalance vs kspace error threshold [%]",
		series: byThreshold(1e-4, 1e-6, 1e-7), minCount: 4,
		cols: []string{"MPI time %", "MPI imbalance %"}, row: mpiShareRow},
	{id: "fig15", title: "Figure 15: CPU performance vs floating-point precision",
		table:  "Figure 15: CPU performance vs floating-point precision [TS/s]",
		series: byPrecision(), cols: []string{"TS/s"}, row: tspsRow},
	{id: "fig16", title: "Figure 16: GPU performance vs floating-point precision",
		table:  "Figure 16: GPU performance vs floating-point precision [TS/s]",
		series: byPrecision(), gpu: true, cols: []string{"TS/s"}, row: tspsRow},
}

// point is one priced cell of a sweep; a CPU cell fills only the
// embedded Outcome. eff is the parallel efficiency against the count-1
// point of the same series and size, 100 at count 1 or when the sweep
// has no count-1 point.
type point struct {
	perfmodel.GPUOutcome
	label       string
	size, count int
	m           *Measurement
	eff         float64
}

// sweep measures and prices the cells of ss × p.SizesK × the rank counts
// (the GPU counts when gpu) from minCount up, in that order, handing
// each to visit. Series outermost is the paper's row order;
// CampaignSpec.Cells puts thresholds and precisions innermost instead.
func sweep(r *Runner, p CampaignSpec, ss []series, gpu bool, minCount int, visit func(point)) error {
	counts := p.Ranks
	if gpu {
		counts = p.GPUs
	}
	for _, s := range ss {
		for _, size := range p.SizesK {
			var base float64
			for _, n := range counts {
				if n < minCount {
					continue
				}
				pt := point{label: s.label, size: size, count: n, eff: 100}
				spec := s.spec
				spec.AtomsK, spec.Ranks = size, n
				var err error
				if gpu {
					pt.m, pt.GPUOutcome, err = r.gpuMeasure(spec, n, p)
				} else if pt.m, err = r.Measure(spec); err == nil {
					pt.Outcome = pt.m.CPU()
				}
				if err != nil {
					return err
				}
				if n == 1 {
					base = pt.TSps
				}
				if base > 0 && n > 1 {
					pt.eff = 100 * pt.TSps / (base * float64(n))
				}
				visit(pt)
			}
		}
	}
	return nil
}

func (f figure) run(r *Runner, p CampaignSpec) ([]Table, error) {
	count := "Ranks"
	if f.gpu {
		count = "GPUs"
	}
	t := Table{Title: f.table, Header: append([]string{f.series.col, "Size[k]", count}, f.cols...)}
	err := sweep(r, p, f.series.list, f.gpu, f.minCount, func(pt point) {
		t.AddRow(append([]any{pt.label, pt.size, pt.count}, f.row(pt)...)...)
	})
	if err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// gpuMeasure measures spec on devices × p.RanksPerGPU ranks and prices it
// on that many GPUs.
func (r *Runner) gpuMeasure(spec Spec, devices int, p CampaignSpec) (*Measurement, perfmodel.GPUOutcome, error) {
	spec.Ranks = devices * p.RanksPerGPU
	m, err := r.Measure(spec)
	if err != nil {
		return nil, perfmodel.GPUOutcome{}, err
	}
	out, err := m.GPU(devices, p.RanksPerGPU)
	return m, out, err
}

func taskCols() []string {
	var h []string
	for _, task := range core.Tasks() {
		h = append(h, task.String()+"%")
	}
	return h
}

func taskRow(pt point) []any { return percents(taskPercentRow(pt.Outcome)) }

// percents formats shares to one decimal.
func percents(v []float64) []any {
	cells := make([]any, len(v))
	for i, x := range v {
		cells[i] = fmt.Sprintf("%.1f", x)
	}
	return cells
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

func mpiShareRow(pt point) []any {
	return []any{fmt.Sprintf("%.1f", avg(pt.MPIPct)), fmt.Sprintf("%.2f", avg(pt.ImbalancePct))}
}

var mpiCols = []string{"Allreduce%", "Init%", "Send%", "Sendrecv%", "Wait%", "others%"}

// mpiRow renders each MPI function's share of the ranks' MPI time.
func mpiRow(pt point) []any {
	var init, send, sr, wait, ar, oth, tot float64
	for _, m := range pt.MPI {
		init += m.Init
		send += m.Send
		sr += m.Sendrecv
		wait += m.Wait
		ar += m.Allreduce
		oth += m.Others
	}
	tot = init + send + sr + wait + ar + oth
	if tot == 0 {
		return percents(make([]float64, 6))
	}
	return percents([]float64{
		100 * ar / tot, 100 * init / tot, 100 * send / tot,
		100 * sr / tot, 100 * wait / tot, 100 * oth / tot,
	})
}

// kernelRow renders each GPU kernel's and copy direction's share of the
// devices' active time.
func kernelRow(pt point) []any {
	var k perfmodel.GPUKernelProfile
	for _, pr := range pt.Kernels {
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
	return []any{pc(k.MemcpyHtoD), pc(k.MemcpyDtoH), k.PairKernel, pc(k.PairSeconds),
		pc(k.PairEnergy), pc(k.NeighKernel), pc(k.MakeRho), pc(k.ParticleMap),
		pc(k.Interp), pc(k.KernelSpecial), pc(k.KernelZero)}
}

func tspsRow(pt point) []any { return []any{fmt.Sprintf("%.2f", pt.TSps)} }

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
	_, g8, err := r.gpuMeasure(Spec{Workload: workload.Rhodo, AtomsK: 2048}, 8, p)
	if err != nil {
		return nil, err
	}
	add("rhodo 2048k, 8 GPUs [TS/s]", "16.09", g8.TSps, "%.2f")
	add("rhodo 2048k, GPU node [ns/day]", "2.8", g8.TSps*2e-6*86400, "%.2f")
	add("rhodo 2048k, 8 GPUs avg device util [%]", "~30", 100*avg(g8.DeviceUtil), "%.1f")

	_, g87, err := r.gpuMeasure(Spec{Workload: workload.Rhodo, AtomsK: 2048, KspaceAcc: 1e-7}, 8, p)
	if err != nil {
		return nil, err
	}
	add("rhodo-e-7 2048k, 8 GPUs [TS/s]", "0.46", g87.TSps, "%.2f")

	_, gLJs, err := r.gpuMeasure(Spec{Workload: workload.LJ, AtomsK: 2048, Precision: pair.Single}, 8, p)
	if err != nil {
		return nil, err
	}
	add("lj-single 2048k, 8 GPUs [TS/s]", "170.0", gLJs.TSps, "%.1f")
	_, gLJd, err := r.gpuMeasure(Spec{Workload: workload.LJ, AtomsK: 2048, Precision: pair.Double}, 8, p)
	if err != nil {
		return nil, err
	}
	add("lj-double 2048k, 8 GPUs [TS/s]", "121.6", gLJd.TSps, "%.1f")

	// GPU parallel efficiency minimum across the suite and sizes: the
	// cells of Fig 9.
	worst := 100.0
	err = sweep(r, p, byWorkload(gpuBenchmarks()...).list, true, 0, func(pt point) {
		if pt.eff < worst {
			worst = pt.eff
		}
	})
	if err != nil {
		return nil, err
	}
	add("worst GPU parallel efficiency [%]", "23.28", worst, "%.1f")

	return []Table{t}, nil
}
