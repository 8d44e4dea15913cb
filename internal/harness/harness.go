// Package harness is the characterization framework of the paper's
// Figure 2: it runs benchmarking and profiling experiments over the
// workload suite, producing every table and figure of the evaluation.
//
// A measurement runs the real decomposed engine (internal/domain) at a
// tractable atom count, collects per-rank counters and MPI profiles,
// extrapolates them to the paper's target size with the scaling laws of
// perfmodel.ScaleCounters, and prices them on the CPU- and GPU-instance
// models. Measurements are cached: experiments that sweep model-side
// parameters (target size, precision) share engine runs.
package harness

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"sync"
	"time"

	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/kspace"
	"gomd/internal/mpi"
	"gomd/internal/obs"
	"gomd/internal/pair"
	"gomd/internal/perfmodel"
	"gomd/internal/trace"
	"gomd/internal/workload"
)

// Options tune the measurement fidelity (the JSON fields, which a
// measurement record carries); zero values select defaults suitable for
// the mdbench CLI. Benchmarks lower them for speed.
type Options struct {
	// MeasureCap bounds the atom count actually simulated (default 24k).
	MeasureCap int `json:"measure_cap"`
	// Steps is the measured step count after warmup (default 15).
	Steps int `json:"steps"`
	// Warmup steps excluded from counters (default 10).
	Warmup int `json:"warmup"`
	// CheckEvery runs the numerical guardrails every that many steps.
	CheckEvery int    `json:"check_every"`
	Seed       uint64 `json:"seed"`

	// Workers is the intra-rank worker-pool width for the engine's
	// kernels (0/1 = serial). Counters are worker-independent, so this
	// does not enter the measurement record; it is forwarded to the
	// performance model as threads-per-rank.
	Workers int `json:"-"`
	// HangTimeout arms a hang watchdog over every run. A measurement
	// never checkpoints, resumes or recovers: a rebuild inside the
	// measured window would rewind the counters it diffs.
	HangTimeout time.Duration `json:"-"`
}

// WithDefaults returns the options a Runner actually measures with:
// every zero fidelity field replaced by its default.
func (o Options) WithDefaults() Options {
	if o.MeasureCap == 0 {
		o.MeasureCap = 24000
	}
	if o.Steps == 0 {
		o.Steps = 15
	}
	if o.Warmup == 0 {
		// Skip the build-transient so neighbor-rebuild cadence and halo
		// traffic reflect quasi-equilibrium dynamics.
		o.Warmup = 10
	}
	if o.Seed == 0 {
		o.Seed = 2022
	}
	return o
}

// Validate reports a negative fidelity option or worker width (zero
// selects the default).
func (o Options) Validate() error {
	return errors.Join(nonNegative("measure cap", o.MeasureCap), nonNegative("steps", o.Steps),
		nonNegative("warmup", o.Warmup), nonNegative("workers", o.Workers))
}

// Spec identifies one experimental configuration.
type Spec struct {
	Workload  workload.Name
	AtomsK    int // target size, thousands of atoms
	Ranks     int
	Precision pair.Precision
	KspaceAcc float64 // 0 = workload default
}

// Validate reports what no measurement can run: a size or rank count
// below 1, or a PPPM threshold that is neither 0 nor in (0, 1).
func (s Spec) Validate() error {
	return errors.Join(atLeastOne("size", s.AtomsK), atLeastOne("ranks", s.Ranks),
		workload.CheckKspaceAccuracy(s.KspaceAcc))
}

func atLeastOne(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("harness: %s %d is below 1", name, v)
	}
	return nil
}

func nonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("harness: %s %d is negative", name, v)
	}
	return nil
}

// Measurement is a completed engine run plus target-scaled model input.
type Measurement struct {
	Spec      Spec
	NMeasured int
	NTarget   int

	run     *measured // the engine run, unscaled
	perRank []core.Counters
	workers int

	// Target-system kspace mesh (for rhodo).
	gridDims [3]int
}

// measureKey identifies reusable engine runs: the engine's counters do
// not depend on the target size, the arithmetic precision, or the kspace
// accuracy (see runEngine), only on the workload, the rank count and the
// size asked for (the target, capped at MeasureCap).
type measureKey struct {
	Workload workload.Name `json:"workload"`
	Ranks    int           `json:"ranks"`
	NRun     int           `json:"n_run"`
}

// measured is one engine run as the data log's "measurement" record
// carries it: everything the model prices, taken at Fidelity. MPI holds
// calls, bytes and hops, not wall times, so a rerun logs the same bytes.
type measured struct {
	measureKey
	Fidelity  Options         `json:"fidelity"`
	NMeasured int             `json:"n_measured"`
	Steps     int             `json:"steps"`
	BoxEdge   [3]float64      `json:"box_edge"`
	Q2Sum     float64         `json:"q2_sum"`
	PairStyle string          `json:"pair_style"`
	PerRank   []core.Counters `json:"per_rank"`
	MPI       []mpi.Stats     `json:"mpi"`
}

// Runner executes and caches measurements.
type Runner struct {
	Opts Options
	// Trace, when non-nil, receives the JSONL data log (the Figure 2 "Data
	// Log" stage): one "measurement" record per engine run (see Load).
	Trace *trace.Logger
	// SpanTrace, when non-nil, receives per-rank timeline spans from
	// every engine run for Perfetto export (internal/obs). Cached
	// measurements record nothing, so a one-measurement campaign yields
	// one run's timeline.
	SpanTrace *obs.Tracer
	// Metrics, when non-nil, receives every engine's live metrics: the
	// ranks publish their counters and MPI profile as they step, so a
	// rank's gauges hold the most recent measurement's totals.
	Metrics *obs.Registry

	mu    sync.Mutex
	cache map[measureKey]*measured
}

// NewRunner returns a Runner with the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts.WithDefaults(), cache: map[measureKey]*measured{}}
}

// Load fills the cache from a data log's "measurement" records (other
// kinds are skipped), so Measure prices their keys without running the
// engine. A malformed or inconsistent record, or one taken at other
// fidelity options than r's, refuses the whole log, naming its seq.
func (r *Runner) Load(log io.Reader) error {
	recs, err := trace.Read[json.RawMessage](log)
	if err != nil {
		return fmt.Errorf("harness: counters log: %w", err)
	}
	fid := r.Opts
	fid.Workers, fid.HangTimeout = 0, 0
	loaded := map[measureKey]*measured{}
	for _, rec := range recs {
		if rec.Kind != "measurement" {
			continue
		}
		m := new(measured)
		if err = json.Unmarshal(rec.Payload, m); err == nil {
			_, err = workload.Parse(string(m.Workload))
		}
		// A record Measure could not price as one taken at fid.
		switch {
		case err != nil:
		case m.Fidelity != fid:
			err = fmt.Errorf("taken at %+v, not at the runner's %+v", m.Fidelity, fid)
		case m.Ranks < 1 || len(m.PerRank) != m.Ranks || len(m.MPI) != m.Ranks:
			err = fmt.Errorf("%d ranks with %d per_rank and %d mpi entries", m.Ranks, len(m.PerRank), len(m.MPI))
		case m.NMeasured <= 0 || m.Steps <= 0:
			err = fmt.Errorf("n_measured %d and steps %d must be positive", m.NMeasured, m.Steps)
		}
		if err != nil {
			return fmt.Errorf("harness: counters record seq %d: %w", rec.Seq, err)
		}
		loaded[m.measureKey] = m
	}
	r.mu.Lock()
	maps.Copy(r.cache, loaded)
	r.mu.Unlock()
	return nil
}

// runEngine measures one key on a supervised engine, doubling the atom
// count until the decomposition constraint (sub-domain >= interaction
// range) holds for the rank count.
func (r *Runner) runEngine(key measureKey) (*measured, error) {
	o := r.Opts
	// The engine always measures at the workload's default kspace
	// accuracy: every accuracy-dependent quantity (mesh size, FFT work,
	// mesh traffic) is recomputed for the requested threshold by the
	// scaling stage, and the remaining counters (pair/bond/fix work,
	// spread and interpolation stencils) do not depend on it. This keeps
	// 1e-7-threshold studies tractable: the engine never has to allocate
	// or transform the gigantic target meshes it is pricing. Counters are
	// precision-independent too, so the run is double precision.
	rs := RunSpec{
		Workload:   string(key.Workload),
		Atoms:      key.NRun,
		Steps:      o.Warmup + o.Steps, // the least a measurement runs
		Ranks:      key.Ranks,
		Workers:    o.Workers,
		Seed:       o.Seed,
		CheckEvery: o.CheckEvery,
	}
	for attempt := 0; attempt < 8; attempt++ {
		sup, err := rs.Supervisor()
		if err != nil {
			return nil, err
		}
		// No data log: a measurement always starts from scratch.
		sup.HangTimeout, sup.Metrics, sup.Tracer = o.HangTimeout, r.Metrics, r.SpanTrace
		if err := sup.Start(); errors.Is(err, domain.ErrSubdomainTooSmall) {
			// Sub-domain too small for the halo: grow the measured size.
			rs.Atoms *= 2
			continue
		} else if err != nil {
			return nil, err
		}
		if err := sup.Run(o.Warmup); err != nil {
			sup.Close()
			return nil, err
		}
		eng := sup.Engine()
		base := make([]core.Counters, key.Ranks)
		baseMPI := make([]mpi.Stats, key.Ranks)
		for i, s := range eng.Sims {
			base[i] = s.Counters
			baseMPI[i] = eng.World.Comm(i).Stats
		}
		if err := sup.Run(o.Steps); err != nil {
			sup.Close()
			return nil, err
		}
		steps := o.Steps
		// The Neigh task only shows up when the window spans a rebuild;
		// workloads with generous skins (rhodo: 2 A) rebuild every few
		// tens of steps, so extend until one is captured (bounded).
		for ext := 0; ext < 10; ext++ {
			rebuilds := int64(0)
			for i, s := range eng.Sims {
				rebuilds += s.Counters.NeighBuilds - base[i].NeighBuilds
			}
			if rebuilds > 0 {
				break
			}
			if err := sup.Run(o.Steps); err != nil {
				sup.Close()
				return nil, err
			}
			steps += o.Steps
		}
		per := make([]core.Counters, key.Ranks)
		ms := make([]mpi.Stats, key.Ranks)
		for i, s := range eng.Sims {
			per[i] = diffCounters(s.Counters, base[i])
			ms[i] = diffStats(eng.World.Comm(i).Stats, baseMPI[i])
		}
		eng.Close()
		cfg := eng.Sims[0].Cfg
		l := eng.Sims[0].Box.Lengths()
		q2 := 0.0
		for _, s := range eng.Sims {
			st := s.Store
			for i := 0; i < st.N; i++ {
				q2 += st.Charge[i] * st.Charge[i]
			}
		}
		return &measured{
			measureKey: key,
			Fidelity:   o,
			NMeasured:  eng.NGlobal(),
			Steps:      steps,
			BoxEdge:    [3]float64{l.X, l.Y, l.Z},
			Q2Sum:      q2,
			PairStyle:  cfg.Pair.Name(),
			PerRank:    per,
			MPI:        ms,
		}, nil
	}
	return nil, fmt.Errorf("harness: could not satisfy decomposition for %v at %d ranks", key.Workload, key.Ranks)
}

// Measure produces (or reuses) the engine run for spec and scales it to
// the target size.
func (r *Runner) Measure(spec Spec) (*Measurement, error) {
	o := r.Opts
	if err := errors.Join(spec.Validate(), o.Validate()); err != nil {
		return nil, err
	}
	target := spec.AtomsK * 1000
	nrun := target
	if nrun > o.MeasureCap {
		nrun = o.MeasureCap
	}
	key := measureKey{Workload: spec.Workload, Ranks: spec.Ranks, NRun: nrun}

	r.mu.Lock()
	m := r.cache[key]
	r.mu.Unlock()
	if m == nil {
		var err error
		m, err = r.runEngine(key)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.cache[key] = m
		r.mu.Unlock()
		r.Trace.Log("measurement", m)
	}

	out := &Measurement{
		Spec:      spec,
		NMeasured: m.NMeasured,
		NTarget:   target,
		run:       m,
		workers:   o.Workers,
	}

	factor := float64(target) / float64(m.NMeasured)
	scale := perfmodel.ScaleSpec{Factor: factor}
	// Rhodo: replace mesh-dependent counters with the target system's
	// mesh at the requested accuracy (the engine measured at the default).
	if spec.Workload == workload.Rhodo {
		grow := math.Cbrt(factor) // of the box edge
		nx, ny, nz, err := kspace.MeshFor(cmp.Or(spec.KspaceAcc, 1e-4), 10.0, m.BoxEdge[0]*grow, m.BoxEdge[1]*grow,
			m.BoxEdge[2]*grow, target, m.Q2Sum*factor, 332.06371, 5)
		if err != nil {
			return nil, err
		}
		scale.TargetGridDims = [3]int{nx, ny, nz}
		scale.TargetGridPts = int64(nx) * int64(ny) * int64(nz)
		out.gridDims = scale.TargetGridDims
	}

	out.perRank = make([]core.Counters, len(m.PerRank))
	for i, c := range m.PerRank {
		out.perRank[i] = perfmodel.ScaleCounters(c, scale)
	}
	return out, nil
}

// CPU prices the measurement on the CPU instance.
func (m *Measurement) CPU() perfmodel.Outcome {
	return perfmodel.EvaluateCPU(m.modelInput())
}

// GPU prices the measurement on the GPU instance with the given device
// count; ranks must equal devices * ranks-per-device used in the Spec.
func (m *Measurement) GPU(devices, ranksPerDevice int) (perfmodel.GPUOutcome, error) {
	in := perfmodel.GPUInput{
		Input:          m.modelInput(),
		Devices:        devices,
		RanksPerDevice: ranksPerDevice,
		GPUCosts:       perfmodel.GPUCostsV100(),
	}
	in.Instance = perfmodel.GPUInstance()
	return perfmodel.EvaluateGPU(in)
}

func (m *Measurement) modelInput() perfmodel.Input {
	return perfmodel.Input{
		Instance:       perfmodel.CPUInstance(),
		Costs:          perfmodel.CPUCosts(),
		WorkersPerRank: m.workers,
		Ranks:          m.Spec.Ranks,
		Steps:          m.run.Steps,
		PairStyle:      m.run.PairStyle,
		Precision:      m.Spec.Precision,
		NGlobal:        m.NTarget,
		PerRank:        m.perRank,
		MPI:            m.run.MPI,
	}
}

// GridDims exposes the target-system PPPM mesh (rhodo only).
func (m *Measurement) GridDims() [3]int { return m.gridDims }

func diffCounters(a, b core.Counters) core.Counters {
	return core.Counters{
		Steps:           a.Steps - b.Steps,
		PairOps:         a.PairOps - b.PairOps,
		BondTerms:       a.BondTerms - b.BondTerms,
		KspaceSpreadOps: a.KspaceSpreadOps - b.KspaceSpreadOps,
		KspaceInterpOps: a.KspaceInterpOps - b.KspaceInterpOps,
		KspaceMapOps:    a.KspaceMapOps - b.KspaceMapOps,
		KspaceFFTOps:    a.KspaceFFTOps - b.KspaceFFTOps,
		KspaceGridOps:   a.KspaceGridOps - b.KspaceGridOps,
		KspaceGridPts:   a.KspaceGridPts - b.KspaceGridPts,
		NeighBuilds:     a.NeighBuilds - b.NeighBuilds,
		NeighPairs:      a.NeighPairs - b.NeighPairs,
		NeighChecks:     a.NeighChecks - b.NeighChecks,
		CommMsgs:        a.CommMsgs - b.CommMsgs,
		CommBytes:       a.CommBytes - b.CommBytes,
		KspaceCommMsgs:  a.KspaceCommMsgs - b.KspaceCommMsgs,
		KspaceCommBytes: a.KspaceCommBytes - b.KspaceCommBytes,
		KspaceCommHops:  a.KspaceCommHops - b.KspaceCommHops,
		GhostAtoms:      a.GhostAtoms - b.GhostAtoms,
		MigratedAtoms:   a.MigratedAtoms - b.MigratedAtoms,
		ModifyOps:       a.ModifyOps - b.ModifyOps,
		ThermoEvals:     a.ThermoEvals - b.ThermoEvals,
	}
}

// diffStats keeps calls, bytes and hops, all the model reads: with no
// wall times the same run logs the same record.
func diffStats(a, b mpi.Stats) mpi.Stats {
	var out mpi.Stats
	for f := range a.Funcs {
		out.Funcs[f] = mpi.FuncStats{
			Calls: a.Funcs[f].Calls - b.Funcs[f].Calls,
			Bytes: a.Funcs[f].Bytes - b.Funcs[f].Bytes,
			Hops:  a.Funcs[f].Hops - b.Funcs[f].Hops,
		}
	}
	return out
}
