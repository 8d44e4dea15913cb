package harness

import (
	"fmt"
	"time"

	"gomd/internal/core"
	"gomd/internal/pair"
	"gomd/internal/trace"
	"gomd/internal/workload"
)

// CampaignSpec enumerates a sweep grid: the cross product of workload ×
// atoms × ranks × workers × precision × PPPM tolerance, each cell
// repeated Trials times. This is the paper's whole evaluation expressed
// as one object — Tables 1–3 and Figs 3–16 are slices of this grid — and
// the mdsweep command's core input.
type CampaignSpec struct {
	Workloads []workload.Name
	// SizesK are target system sizes in thousands of atoms.
	SizesK []int
	Ranks  []int
	// Workers are intra-rank worker-pool widths.
	Workers    []int
	Precisions []pair.Precision
	// KspaceAccs are PPPM relative-error thresholds; 0 means the workload
	// default. Non-PPPM workloads collapse the axis to a single cell.
	KspaceAccs []float64
	// Trials repeats every cell with a trial-varied RNG seed.
	Trials int
}

// WithDefaults returns the grid RunCampaign actually sweeps: every empty
// axis replaced by its default. mdsweep records this, not what was typed.
func (c CampaignSpec) WithDefaults() CampaignSpec {
	if len(c.Workloads) == 0 {
		c.Workloads = workload.All()
	}
	if len(c.SizesK) == 0 {
		c.SizesK = workload.Sizes()
	}
	if len(c.Ranks) == 0 {
		c.Ranks = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1}
	}
	if len(c.Precisions) == 0 {
		c.Precisions = []pair.Precision{pair.Mixed}
	}
	if len(c.KspaceAccs) == 0 {
		c.KspaceAccs = []float64{0}
	}
	if c.Trials <= 0 {
		c.Trials = 1
	}
	return c
}

// Cell is one grid point of a campaign.
type Cell struct {
	Spec    Spec
	Workers int
	Trial   int
}

// Label renders the cell compactly ("lj/32k/r4/w1/mixed/t0", with the
// PPPM threshold appended when overridden).
func (c Cell) Label() string {
	s := fmt.Sprintf("%s/%dk/r%d/w%d/%s",
		c.Spec.Workload, c.Spec.AtomsK, c.Spec.Ranks, c.Workers, c.Spec.Precision)
	if c.Spec.KspaceAcc != 0 {
		s += fmt.Sprintf("/acc%.0e", c.Spec.KspaceAcc)
	}
	return s + fmt.Sprintf("/t%d", c.Trial)
}

// Cells enumerates the grid in deterministic order (workload outermost,
// trial innermost). The kspace axis collapses for workloads without a
// long-range solver: sweeping a threshold they ignore would silently
// duplicate cells.
func (c CampaignSpec) Cells() []Cell {
	c = c.WithDefaults()
	var out []Cell
	for _, wl := range c.Workloads {
		accs := c.KspaceAccs
		if workload.Describe(wl).KspaceStyle == "" {
			accs = accs[:1]
		}
		for _, size := range c.SizesK {
			for _, ranks := range c.Ranks {
				for _, w := range c.Workers {
					for _, prec := range c.Precisions {
						for _, acc := range accs {
							if workload.Describe(wl).KspaceStyle == "" {
								acc = 0
							}
							for trial := 0; trial < c.Trials; trial++ {
								out = append(out, Cell{
									Spec: Spec{
										Workload:  wl,
										AtomsK:    size,
										Ranks:     ranks,
										Precision: prec,
										KspaceAcc: acc,
									},
									Workers: w,
									Trial:   trial,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// CellResult is one completed cell: the engine measurement scaled to the
// target size and priced on the CPU instance, plus the host wall time
// the cell took (near zero when the measurement came from the runner's
// cache — later cells sharing an engine run are effectively free).
type CellResult struct {
	Cell
	NMeasured int
	NTarget   int
	Steps     int

	TSps         float64
	EnergyEff    float64
	MPIPct       float64
	ImbalancePct float64
	// TaskPct is the per-task execution-time share in core.Tasks order.
	TaskPct  []float64
	GridDims [3]int

	Wall time.Duration
}

// TaskNames returns the column labels matching CellResult.TaskPct.
func TaskNames() []string {
	var out []string
	for _, t := range core.Tasks() {
		out = append(out, t.String())
	}
	return out
}

// RunCampaign executes every cell of spec under opts, invoking emit for
// each completed cell in grid order; an emit error aborts the campaign
// (writers that fail must stop the run, not truncate it silently).
//
// One Runner is created per (workers, trial) pair: worker width is a
// Runner-level option, and a fresh runner per trial defeats the
// measurement cache so repeat trials re-run the engine instead of
// replaying the first trial's counters. Trials > 0 perturb the seed, so
// trial t measures an independently initialized system.
func RunCampaign(spec CampaignSpec, opts Options, tr *trace.Logger, emit func(CellResult) error) error {
	spec = spec.WithDefaults()
	opts = opts.WithDefaults()
	type runnerKey struct{ workers, trial int }
	runners := map[runnerKey]*Runner{}
	runnerFor := func(k runnerKey) *Runner {
		if r, ok := runners[k]; ok {
			return r
		}
		o := opts
		o.Workers = k.workers
		o.Seed = opts.Seed + uint64(k.trial)
		r := NewRunner(o)
		r.Trace = tr
		runners[k] = r
		return r
	}
	for _, cell := range spec.Cells() {
		r := runnerFor(runnerKey{cell.Workers, cell.Trial})
		t0 := time.Now()
		m, err := r.Measure(cell.Spec)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", cell.Label(), err)
		}
		out := m.CPU()
		res := CellResult{
			Cell:         cell,
			NMeasured:    m.NMeasured,
			NTarget:      m.NTarget,
			Steps:        m.steps,
			TSps:         out.TSps,
			EnergyEff:    out.EnergyEff,
			MPIPct:       avg(out.MPIPct),
			ImbalancePct: avg(out.ImbalancePct),
			TaskPct:      taskPercentRow(out),
			GridDims:     m.GridDims(),
			Wall:         time.Since(t0),
		}
		if err := emit(res); err != nil {
			return fmt.Errorf("campaign %s: emit: %w", cell.Label(), err)
		}
	}
	return nil
}
