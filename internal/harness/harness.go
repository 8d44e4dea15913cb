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
	"errors"
	"fmt"
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

// Options tune the measurement fidelity; zero values select defaults
// suitable for the mdbench CLI. Benchmarks lower them for speed.
type Options struct {
	// MeasureCap bounds the atom count actually simulated (default 24k).
	MeasureCap int
	// Steps is the measured step count after warmup (default 12).
	Steps int
	// Warmup steps excluded from counters (default 3).
	Warmup int
	Seed   uint64
	// Workers is the intra-rank worker-pool width for the engine's
	// kernels (0/1 = serial). Counters are worker-independent, so this
	// does not enter the measurement cache key; it is forwarded to the
	// performance model as threads-per-rank.
	Workers int

	// Safety checks, both off at zero. HangTimeout arms a hang watchdog
	// over every run; CheckEvery runs the engine's numerical guardrails
	// every that many steps. A measurement never checkpoints, resumes or
	// recovers: a rebuild inside the measured window would rewind the
	// counters it diffs, so a failed rank fails the measurement.
	HangTimeout time.Duration
	CheckEvery  int
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

	perRank []core.Counters
	mpiStat []mpi.Stats
	steps   int
	workers int

	// Target-system kspace mesh (for rhodo).
	gridDims [3]int
	gridPts  int64

	pairStyle string
}

// measureKey identifies reusable engine runs: the engine's counters do
// not depend on the target size, the arithmetic precision, or the kspace
// accuracy (see runEngine), only on the workload and rank count.
type measureKey struct {
	wl    workload.Name
	ranks int
	nrun  int
}

type measured struct {
	perRank   []core.Counters
	mpiStat   []mpi.Stats
	nMeasured int
	steps     int
	boxEdge   [3]float64
	q2sum     float64
	pairStyle string
}

// Runner executes and caches measurements.
type Runner struct {
	Opts Options
	// Trace, when non-nil, receives a JSONL data log of every engine
	// measurement (the Figure 2 "Data Log" stage).
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

// runEngine measures one spec on a supervised engine of nrun atoms,
// doubling nrun until the decomposition constraint (sub-domain >=
// interaction range) holds for the rank count.
func (r *Runner) runEngine(spec Spec, nrun int) (*measured, error) {
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
		Workload:   string(spec.Workload),
		Atoms:      nrun,
		Steps:      o.Warmup + o.Steps, // the least a measurement runs
		Ranks:      spec.Ranks,
		Workers:    o.Workers,
		Seed:       o.Seed,
		CheckEvery: o.CheckEvery,
	}
	for attempt := 0; attempt < 8; attempt++ {
		sup, err := rs.Supervisor()
		if err != nil {
			return nil, err
		}
		sup.HangTimeout, sup.Metrics, sup.Tracer, sup.Trace = o.HangTimeout, r.Metrics, r.SpanTrace, r.Trace
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
		base := make([]core.Counters, spec.Ranks)
		baseMPI := make([]mpi.Stats, spec.Ranks)
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
		per := make([]core.Counters, spec.Ranks)
		ms := make([]mpi.Stats, spec.Ranks)
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
			perRank:   per,
			mpiStat:   ms,
			nMeasured: eng.NGlobal(),
			steps:     steps,
			boxEdge:   [3]float64{l.X, l.Y, l.Z},
			q2sum:     q2,
			pairStyle: cfg.Pair.Name(),
		}, nil
	}
	return nil, fmt.Errorf("harness: could not satisfy decomposition for %v at %d ranks", spec.Workload, spec.Ranks)
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
	key := measureKey{wl: spec.Workload, ranks: spec.Ranks, nrun: nrun}

	r.mu.Lock()
	m := r.cache[key]
	r.mu.Unlock()
	if m == nil {
		var err error
		m, err = r.runEngine(spec, nrun)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.cache[key] = m
		r.mu.Unlock()
		r.Trace.Measurement(string(spec.Workload), spec.Ranks, m.nMeasured, target, m.steps)
	}

	out := &Measurement{
		Spec:      spec,
		NMeasured: m.nMeasured,
		NTarget:   target,
		steps:     m.steps,
		workers:   o.Workers,
		pairStyle: m.pairStyle,
	}

	factor := float64(target) / float64(m.nMeasured)
	var scale perfmodel.ScaleSpec
	scale.Factor = factor
	// Rhodo: replace mesh-dependent counters with the target system's
	// mesh at the requested accuracy (the engine measured at the default).
	if spec.Workload == workload.Rhodo {
		acc := spec.KspaceAcc
		if acc == 0 {
			acc = 1e-4
		}
		edge := [3]float64{}
		for d := 0; d < 3; d++ {
			edge[d] = m.boxEdge[d] * math.Cbrt(factor)
		}
		nx, ny, nz, err := kspace.MeshFor(acc, 10.0, edge[0], edge[1], edge[2],
			target, m.q2sum*factor, 332.06371, 5)
		if err != nil {
			return nil, err
		}
		scale.TargetGridDims = [3]int{nx, ny, nz}
		scale.TargetGridPts = int64(nx) * int64(ny) * int64(nz)
		out.gridDims = scale.TargetGridDims
		out.gridPts = scale.TargetGridPts
	}

	out.perRank = make([]core.Counters, len(m.perRank))
	for i, c := range m.perRank {
		out.perRank[i] = perfmodel.ScaleCounters(c, scale)
	}
	out.mpiStat = m.mpiStat
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
		Steps:          m.steps,
		PairStyle:      m.pairStyle,
		Precision:      m.Spec.Precision,
		NGlobal:        m.NTarget,
		PerRank:        m.perRank,
		MPI:            m.mpiStat,
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

func diffStats(a, b mpi.Stats) mpi.Stats {
	var out mpi.Stats
	for f := range a.Funcs {
		out.Funcs[f] = mpi.FuncStats{
			Calls:    a.Funcs[f].Calls - b.Funcs[f].Calls,
			Bytes:    a.Funcs[f].Bytes - b.Funcs[f].Bytes,
			Hops:     a.Funcs[f].Hops - b.Funcs[f].Hops,
			Time:     a.Funcs[f].Time - b.Funcs[f].Time,
			WaitTime: a.Funcs[f].WaitTime - b.Funcs[f].WaitTime,
		}
	}
	return out
}
