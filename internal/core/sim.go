// Package core orchestrates an MD simulation: it owns the timestep loop
// of Figure 1 of the paper (integrate, communicate, rebuild neighbor
// lists, compute forces, apply fixes, output), attributing every unit of
// work and wall time to the LAMMPS task taxonomy of Table 1.
package core

import (
	"fmt"
	"io"
	"time"

	"gomd/internal/atom"
	"gomd/internal/bond"
	"gomd/internal/box"
	"gomd/internal/compute"
	"gomd/internal/fault"
	"gomd/internal/fix"
	"gomd/internal/health"
	"gomd/internal/kspace"
	"gomd/internal/neighbor"
	"gomd/internal/obs"
	"gomd/internal/pair"
	"gomd/internal/par"
	"gomd/internal/rng"
	"gomd/internal/units"
	"gomd/internal/vec"
)

// Config assembles a simulation, playing the role of a LAMMPS input
// script.
type Config struct {
	Name  string
	Units units.System
	Box   box.Box
	// Mass holds per-type masses (index = type-1).
	Mass []float64
	Pair pair.Style
	// Bonds lists bonded styles (bond + angle) to evaluate each step.
	Bonds []bond.Style
	// Kspace, when non-nil, is the long-range electrostatics solver.
	Kspace kspace.Solver
	Fixes  []fix.Fix
	Dt     float64
	Skin   float64
	// GhostCutoff overrides the halo range (default: pair cutoff + skin).
	// Workloads whose bonded interactions can stretch beyond the pair
	// range (FENE) set it so bond partners always have halo copies.
	GhostCutoff float64
	// NeighEvery is how often (in steps) the rebuild trigger is
	// considered; NeighDelay suppresses rebuilds within that many steps
	// of the previous one; NeighNoCheck forces a rebuild whenever
	// considered instead of testing displacements — together these
	// mirror the LAMMPS neigh_modify every/delay/check settings the
	// bench inputs use.
	NeighEvery   int
	NeighDelay   int
	NeighNoCheck bool
	// ClusterMigrate makes migration keep molecules on one rank (needed
	// by SHAKE); see the domain package.
	ClusterMigrate bool
	// Workers is the intra-rank worker count for the threaded kernels
	// (pair forces, neighbor build, PPPM). 0 or 1 selects the serial
	// paths with no pool goroutines; results are bit-identical for any
	// value (see internal/par and DESIGN.md "Intra-rank threading").
	Workers int
	Seed    uint64
	// ThermoEvery is the thermo output interval (0 disables).
	ThermoEvery int
	// ThermoTo receives thermo lines (nil discards them).
	ThermoTo io.Writer
	// Trace, when non-nil, records per-rank timeline spans (one per
	// timestep, task phase, and MPI call) for Perfetto export. Decomposed
	// runs share one Tracer across all per-rank configs.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives live engine metrics (step-duration
	// and halo-message histograms, neighbor rebuild counts).
	Metrics *obs.Registry
	// CheckpointEvery, with a non-nil CheckpointSink, snapshots the rank
	// state into the sink every that many steps. Checkpoint steps force a
	// neighbor rebuild first (so the snapshot lands on migrated, wrapped,
	// freshly-ordered state a restart can replay bit-exactly); a restarted
	// run must therefore use the same CheckpointEvery. Decomposed runs
	// share one sink (internal/ckpt.Writer) across per-rank configs.
	CheckpointEvery int
	CheckpointSink  func(*Simulation) error
	// CheckEvery runs the numerical guardrails (NaN/Inf forces and
	// energy, lost atoms, global count conservation) every that many
	// steps; 0 disables. Part of the shared config: the count check is
	// collective, so all ranks must agree on it.
	CheckEvery int
	// Fault, when non-nil, is the deterministic fault injector driving
	// kill/NaN faults at step granularity (message faults install on the
	// mpi world separately). Nil costs one pointer check per step.
	Fault *fault.Injector
	// Health, when non-nil, receives this rank's heartbeat (step + phase)
	// at every stage of the timestep loop, feeding the hang watchdog.
	// Decomposed runs share one Monitor across per-rank configs.
	Health *health.Monitor
	// Flight, when non-nil, receives one flight-recorder record per
	// completed step (per-task durations, work-counter deltas, heartbeat
	// phase) into this rank's ring buffer; the retained tail is dumped on
	// rank failures, hang diagnoses, and guardrail trips. Decomposed runs
	// share one Flight across per-rank configs.
	Flight *obs.Flight
}

// Backend abstracts the communication substrate: the serial engine uses
// periodic-image ghosts; the decomposed engine (internal/domain) uses
// rank-to-rank messages over the simulated MPI runtime.
type Backend interface {
	// Setup is called once after atoms are loaded.
	Setup(s *Simulation)
	// Rebuild re-wraps positions, migrates atoms between owners, and
	// reconstructs ghost entries; called on neighbor-rebuild steps.
	Rebuild(s *Simulation)
	// ForwardPositions refreshes ghost positions (and velocities) from
	// owners; called on every other step.
	ForwardPositions(s *Simulation)
	// ReverseForces accumulates ghost forces back into owners; called
	// after force evaluation when bonded topology exists.
	ReverseForces(s *Simulation)
	// ForwardScalar implements pair.GhostSync for per-atom fields.
	ForwardScalar(s *Simulation, buf []float64)
	// ReduceScalar sums a scalar across ranks.
	ReduceScalar(v float64) float64
	// ReduceBool ORs a flag across ranks (the global neighbor-rebuild
	// decision must be collective).
	ReduceBool(v bool) bool
	// GridReducer returns the mesh reducer passed to kspace solvers
	// (nil in serial runs).
	GridReducer(s *Simulation) func([]float64)
	// NGlobal returns the global atom count.
	NGlobal(s *Simulation) int
	// Size returns the number of ranks sharing the run.
	Size() int
	// Rank returns this backend's rank index (0 in serial runs); it keys
	// the observability layer's per-rank timelines and metrics.
	Rank() int
}

// Thermo is one thermodynamic output sample.
type Thermo struct {
	Step        int64
	Temperature float64
	Pressure    float64
	PotEnergy   float64
	KinEnergy   float64
	TotalEnergy float64
	Volume      float64
}

// Simulation is a runnable MD system.
type Simulation struct {
	Cfg   Config
	Box   box.Box
	Store *atom.Store
	NL    *neighbor.List
	RNG   *rng.Source

	Times    TaskTimes
	Counters Counters

	Step        int64
	lastRebuild int64
	// LastPE/LastVirial hold the most recent force-evaluation results.
	LastPE     float64
	LastVirial float64
	LastThermo Thermo

	// SetupBox and Q2Setup record the box and global charge-square sum the
	// k-space solver was configured with. PPPM derives its mesh dimensions
	// and Ewald parameter from these once at setup, so a bit-exact restart
	// must replay the same inputs even if the box has since changed (NPT).
	SetupBox box.Box
	Q2Setup  float64

	backend Backend
	fixCtx  fix.Context
	pool    *par.Pool

	// Observability handles (all nil when disabled; recording through
	// them costs one nil check).
	span     *obs.Rank
	stepHist *obs.Histogram
	commHist *obs.Histogram
	beat     *health.Beat
	flight   *obs.FlightRing
	live     *liveObs

	// prevTimes/prev* snapshot the cumulative task times and counters at
	// the previous step boundary, so the flight recorder logs per-step
	// deltas.
	prevTimes     TaskTimes
	prevPairs     int64
	prevCommBytes int64
	prevFFTOps    int64
}

// ghostSync adapts the backend to pair.GhostSync.
type ghostSync struct{ s *Simulation }

// ForwardScalar implements pair.GhostSync.
func (g ghostSync) ForwardScalar(buf []float64) {
	g.s.backend.ForwardScalar(g.s, buf)
}

// New builds a simulation over a pre-populated store using the serial
// backend; it panics where NewWithBackend returns an error. Decomposed
// simulations are built by the domain package.
func New(cfg Config, st *atom.Store) *Simulation {
	s, err := NewWithBackend(cfg, st, &SerialBackend{})
	if err != nil {
		panic(err)
	}
	return s
}

// NewWithBackend builds a simulation with an explicit backend. A
// k-space grid the solver refuses to allocate is a kspace-grid
// *SimError.
func NewWithBackend(cfg Config, st *atom.Store, be Backend) (*Simulation, error) {
	return build(cfg, st, be, nil)
}

// RestoreState carries the non-store state a checkpoint must replay for
// a bit-exact restart: the step counter, the current box (NPT runs
// change it), the k-space setup inputs, the rank's RNG stream, and the
// state vectors of stateful fixes in Config.Fixes order.
type RestoreState struct {
	Step     int64
	Box      box.Box
	SetupBox box.Box
	Q2Setup  float64
	RNG      rng.State
	FixState [][]float64
}

// NewRestored builds a simulation resuming from a checkpoint: st must
// hold this rank's atoms in checkpointed order, and rs the matching
// non-store state. The returned simulation still needs PrimeRestored
// (after the caller re-injects any auxiliary pair state) before Run.
func NewRestored(cfg Config, st *atom.Store, be Backend, rs *RestoreState) (*Simulation, error) {
	return build(cfg, st, be, rs)
}

// build is the shared constructor; rs != nil selects the restore path.
func build(cfg Config, st *atom.Store, be Backend, rs *RestoreState) (*Simulation, error) {
	if cfg.Dt == 0 {
		cfg.Dt = cfg.Units.DefaultDt
	}
	if cfg.NeighEvery == 0 {
		cfg.NeighEvery = 1
	}
	s := &Simulation{
		Cfg:     cfg,
		Box:     cfg.Box,
		Store:   st,
		RNG:     rng.New(cfg.Seed + 0x5eed),
		backend: be,
	}
	if rs != nil {
		// Restore path: resume the checkpointed box (NPT may have scaled
		// it) and RNG stream before any construction-time work sees them.
		s.Box = rs.Box
		s.RNG.SetState(rs.RNG)
	}
	s.NL = neighbor.NewList(cfg.Pair.ListMode(), cfg.Pair.Cutoff(), cfg.Skin)
	// Intra-rank worker pool for the threaded kernels. Workers <= 1
	// yields an inline pool with no goroutines, so serial configurations
	// cost nothing. The pool is driven only from this simulation's
	// goroutine (its rank goroutine in decomposed runs).
	s.pool = par.NewPool(cfg.Workers)
	s.NL.Pool = s.pool
	if pc, ok := cfg.Kspace.(par.Carrier); ok {
		pc.SetPool(s.pool)
	}
	// Wire the observability layer before Setup so construction-time halo
	// traffic and neighbor builds are already visible.
	rank := be.Rank()
	s.span = cfg.Trace.Rank(rank)
	s.beat = cfg.Health.Rank(rank)
	s.NL.Span = s.span
	s.pool.SetSpan(s.span)
	if sc, ok := cfg.Kspace.(obs.SpanCarrier); ok {
		sc.SetSpan(s.span)
	}
	s.flight = cfg.Flight.Rank(rank)
	if cfg.Metrics != nil {
		s.stepHist = cfg.Metrics.Histogram(obs.RankMetric("step.seconds", rank), obs.StepSecondsBounds)
		s.commHist = cfg.Metrics.Histogram(obs.RankMetric("comm.msg_bytes", rank), obs.MsgBytesBounds)
		s.NL.Rebuilds = cfg.Metrics.Counter(obs.RankMetric("neigh.rebuilds", rank))
		s.initLive(cfg.Metrics, rank)
	}
	if _, isCharmm := cfg.Pair.(*pair.CharmmCoulLong); isCharmm {
		// coul/long keeps special pairs in the list (LJ weight 0, k-space
		// correction in the kernel).
		s.NL.SpecialWeight = func(atom.SpecialKind) (float64, bool) { return 0, true }
	}
	be.Setup(s)
	if cfg.Kspace != nil {
		// The solver derives mesh dimensions and the Ewald parameter from
		// its setup inputs once; record them so a restart replays the same
		// setup even after the box or atom distribution changed.
		s.SetupBox = s.Box
		q2 := 0.0
		if rs != nil {
			s.SetupBox = rs.SetupBox
			q2 = rs.Q2Setup
		} else {
			for i := 0; i < st.N; i++ {
				q2 += st.Charge[i] * st.Charge[i]
			}
			q2 = be.ReduceScalar(q2)
		}
		s.Q2Setup = q2
		if err := cfg.Kspace.Setup(s.SetupBox, be.NGlobal(s), q2, cfg.Units.QQr2E); err != nil {
			return nil, &SimError{Rank: be.Rank(), Step: s.Step, Kind: ErrKspaceGrid, Detail: err.Error()}
		}
		// Replicated-mesh decomposition: every rank evaluates the full
		// reciprocal sum, so each reports 1/ranks of energy and virial.
		cfg.Kspace.SetShare(1 / float64(be.Size()))
		if ch, ok := cfg.Pair.(*pair.CharmmCoulLong); ok {
			ch.GEwald = cfg.Kspace.GEwald()
		}
	}
	if rs != nil {
		var states [][]float64
		for _, f := range cfg.Fixes {
			if _, ok := f.(fix.Stateful); ok {
				states = append(states, nil)
			}
		}
		if len(rs.FixState) != len(states) {
			return nil, fmt.Errorf("core: checkpoint carries %d fix state vectors, config has %d stateful fixes",
				len(rs.FixState), len(states))
		}
		i := 0
		for _, f := range cfg.Fixes {
			if sf, ok := f.(fix.Stateful); ok {
				sf.SetStateVars(rs.FixState[i])
				i++
			}
		}
		s.Step = rs.Step
		// The checkpoint step forced a rebuild, so the restored run's
		// rebuild cadence (NeighDelay arithmetic) continues from it.
		s.lastRebuild = rs.Step - 1
	}
	return s, nil
}

// FixStates returns the state vectors of the stateful fixes in
// Config.Fixes order (checkpoint capture).
func (s *Simulation) FixStates() [][]float64 {
	var out [][]float64
	for _, f := range s.Cfg.Fixes {
		if sf, ok := f.(fix.Stateful); ok {
			out = append(out, sf.StateVars())
		}
	}
	return out
}

// NGlobal returns the global atom count.
func (s *Simulation) NGlobal() int { return s.backend.NGlobal(s) }

// Run advances the simulation by n timesteps.
func (s *Simulation) Run(n int) {
	for i := 0; i < n; i++ {
		s.step()
	}
}

// RunChecked advances n timesteps, converting guardrail violations
// (*SimError) and injected kills (*fault.Killed) into errors instead of
// panics — the serial-engine analogue of the per-rank supervision the
// mpi runtime applies to decomposed runs. Unrelated panics propagate.
func (s *Simulation) RunChecked(n int) (err error) {
	defer func() {
		rec := recover()
		switch e := rec.(type) {
		case nil:
		case *SimError:
			err = e
		case *fault.Killed:
			err = e
		default:
			panic(rec)
		}
	}()
	s.Run(n)
	return nil
}

func (s *Simulation) step() {
	st := s.Store
	cfg := &s.Cfg
	s.span.SetStep(s.Step)
	if cfg.Fault != nil {
		cfg.Fault.BeginStep(s.backend.Rank(), s.Step)
		if cfg.Fault.HangAt(s.backend.Rank(), s.Step) {
			s.parkHung()
		}
	}

	// --- Modify: initial integration (step I/II of Figure 1).
	s.beat.Mark(health.PhaseIntegrate, s.Step)
	t0 := time.Now()
	ctx := s.fixContext()
	for _, f := range cfg.Fixes {
		f.InitialIntegrate(ctx)
	}
	d := time.Since(t0)
	s.Times[TaskModify] += d
	s.span.Span(obs.CatTask, TaskModify.String(), t0, d)

	// --- Comm/Neigh: boundary conditions, exchange, list rebuild
	// (steps III/IV).
	// Checkpoint steps force a rebuild: the snapshot at the end of this
	// step then captures migrated, wrapped, freshly-ordered state whose
	// restore (which replays exactly one rebuild) is bit-exact. The
	// predicate depends only on shared config and the step counter, so
	// the decision stays collective.
	rebuild := cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil &&
		(s.Step+1)%int64(cfg.CheckpointEvery) == 0
	if !rebuild && s.Step%int64(cfg.NeighEvery) == 0 &&
		(s.Step == 0 || s.Step-s.lastRebuild >= int64(cfg.NeighDelay)) {
		tN := time.Now()
		if cfg.NeighNoCheck && s.Step > 0 {
			rebuild = true
		} else {
			rebuild = s.backend.ReduceBool(s.NL.NeedsRebuild(st))
		}
		d = time.Since(tN)
		s.Times[TaskNeigh] += d
		s.span.Span(obs.CatTask, TaskNeigh.String(), tN, d)
	}
	s.beat.Mark(health.PhaseComm, s.Step)
	tC := time.Now()
	if rebuild {
		s.backend.Rebuild(s)
	} else {
		s.backend.ForwardPositions(s)
	}
	d = time.Since(tC)
	s.Times[TaskComm] += d
	s.span.Span(obs.CatTask, TaskComm.String(), tC, d)
	if rebuild {
		s.lastRebuild = s.Step
		s.beat.Mark(health.PhaseNeigh, s.Step)
		tN := time.Now()
		if err := s.buildList(); err != nil {
			panic(err)
		}
		d = time.Since(tN)
		s.Times[TaskNeigh] += d
		s.span.Span(obs.CatTask, TaskNeigh.String(), tN, d)
	}

	// --- Forces (steps V/VI/VII).
	s.evaluateForces()
	if cfg.Fault != nil {
		cfg.Fault.CorruptForces(s.backend.Rank(), s.Step, st)
	}
	if cfg.CheckEvery > 0 && s.Step%int64(cfg.CheckEvery) == 0 {
		s.checkGuards()
	}

	// --- Modify: post-force, final integration, end-of-step.
	s.beat.Mark(health.PhaseModify, s.Step)
	tM := time.Now()
	ctx = s.fixContext()
	for _, f := range cfg.Fixes {
		f.PostForce(ctx)
	}
	for _, f := range cfg.Fixes {
		f.FinalIntegrate(ctx)
	}
	for _, f := range cfg.Fixes {
		f.EndOfStep(ctx)
	}
	s.Counters.ModifyOps = ctx.Ops
	d = time.Since(tM)
	s.Times[TaskModify] += d
	s.span.Span(obs.CatTask, TaskModify.String(), tM, d)

	s.Step++
	s.Counters.Steps++

	// --- Output (step VIII).
	if cfg.ThermoEvery > 0 && s.Step%int64(cfg.ThermoEvery) == 0 {
		s.beat.Mark(health.PhaseOutput, s.Step)
		tO := time.Now()
		s.LastThermo = s.ComputeThermo()
		s.Counters.ThermoEvals++
		if cfg.ThermoTo != nil {
			th := s.LastThermo
			fmt.Fprintf(cfg.ThermoTo,
				"step %8d  T %10.4f  P %12.5g  PE %14.6g  KE %14.6g  E %14.6g\n",
				th.Step, th.Temperature, th.Pressure, th.PotEnergy, th.KinEnergy, th.TotalEnergy)
		}
		d = time.Since(tO)
		s.Times[TaskOutput] += d
		s.span.Span(obs.CatTask, TaskOutput.String(), tO, d)
	}

	// --- Checkpoint: snapshot the completed step's state into the sink.
	// This step's rebuild already ran (forced above), so the stored order
	// is post-migration and a restart replays exactly one rebuild.
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil &&
		s.Step%int64(cfg.CheckpointEvery) == 0 {
		s.beat.Mark(health.PhaseCheckpoint, s.Step)
		if err := cfg.CheckpointSink(s); err != nil {
			panic(&SimError{
				Rank: s.backend.Rank(), Step: s.Step, Kind: ErrCkptWrite,
				Detail: err.Error(),
			})
		}
	}

	if s.span != nil || s.stepHist != nil || s.flight != nil {
		stepD := time.Since(t0)
		s.span.Span(obs.CatStep, "step", t0, stepD)
		s.stepHist.Observe(stepD.Seconds())
		s.recordFlight(stepD, rebuild)
	}
	s.publishLive()
}

// hangParker is implemented by backends that can park their rank inside
// the messaging layer (the domain backend delegates to
// mpi.Comm.ParkInjectedHang). The serial backend has no messaging layer
// — and no watchdog-recoverable world — so it cannot honor a hang fault.
type hangParker interface {
	ParkHung(s *Simulation)
}

// parkHung services an injected hang fault: the rank reports PhaseHung
// and then blocks forever, leaving the health watchdog as the only way
// the run ends. Serial runs fail fast instead of deadlocking the
// process.
func (s *Simulation) parkHung() {
	s.beat.Mark(health.PhaseHung, s.Step)
	hp, ok := s.backend.(hangParker)
	if !ok {
		panic(&SimError{
			Rank: s.backend.Rank(), Step: s.Step, Kind: ErrHangInjected,
			Detail: "hang injection requires a decomposed run (a serial rank parked forever would deadlock the process with no watchdog to recover it)",
		})
	}
	hp.ParkHung(s)
}

// evaluateForces runs the force pipeline (pair, bonded, k-space, reverse
// halo accumulation) at the current positions, updating LastPE and
// LastVirial.
func (s *Simulation) evaluateForces() {
	st := s.Store
	cfg := &s.Cfg

	s.beat.Mark(health.PhaseForce, s.Step)
	tF := time.Now()
	st.ZeroForces()
	d := time.Since(tF)
	s.Times[TaskOther] += d
	s.span.Span(obs.CatTask, TaskOther.String(), tF, d)

	pe := 0.0
	vir := 0.0

	tP := time.Now()
	pres := cfg.Pair.Compute(&pair.Context{
		Store: st,
		List:  s.NL,
		Sync:  ghostSync{s},
		QQr2E: cfg.Units.QQr2E,
		Dt:    cfg.Dt,
		Pool:  s.pool,
	})
	d = time.Since(tP)
	s.Times[TaskPair] += d
	s.span.Span(obs.CatTask, TaskPair.String(), tP, d)
	s.Counters.PairOps += pres.Pairs
	pe += pres.Energy
	vir += pres.Virial

	if len(cfg.Bonds) > 0 {
		tB := time.Now()
		for _, bs := range cfg.Bonds {
			bres := bs.Compute(st, s.Box)
			s.Counters.BondTerms += bres.Terms
			pe += bres.Energy
			vir += bres.Virial
		}
		d = time.Since(tB)
		s.Times[TaskBond] += d
		s.span.Span(obs.CatTask, TaskBond.String(), tB, d)
	}

	if cfg.Kspace != nil {
		tK := time.Now()
		kres := cfg.Kspace.Compute(st, s.Box, s.backend.GridReducer(s))
		d = time.Since(tK)
		s.Times[TaskKspace] += d
		s.span.Span(obs.CatTask, TaskKspace.String(), tK, d)
		s.Counters.KspaceSpreadOps += kres.SpreadOps
		s.Counters.KspaceInterpOps += kres.InterpOps
		s.Counters.KspaceMapOps += kres.MapOps
		s.Counters.KspaceFFTOps += kres.FFTOps
		s.Counters.KspaceGridOps += kres.GridOps
		s.Counters.KspaceGridPts += kres.GridPoints
		pe += kres.Energy
		vir += kres.Virial
	}

	if len(cfg.Bonds) > 0 || cfg.ClusterMigrate {
		tC2 := time.Now()
		s.backend.ReverseForces(s)
		d = time.Since(tC2)
		s.Times[TaskComm] += d
		s.span.Span(obs.CatTask, TaskComm.String(), tC2, d)
	}

	s.LastPE = pe
	s.LastVirial = vir
}

// PairContext returns a force-kernel context wired to this simulation's
// store, neighbor list, halo sync, and worker pool — the hook bench's
// kernel micro-runs use to drive pair Compute calls outside the step
// loop. Styles with ghost-synced per-atom state (EAM) work
// because the context carries the real backend sync.
func (s *Simulation) PairContext() *pair.Context {
	return &pair.Context{
		Store: s.Store,
		List:  s.NL,
		Sync:  ghostSync{s},
		QQr2E: s.Cfg.Units.QQr2E,
		Dt:    s.Cfg.Dt,
		Pool:  s.pool,
	}
}

// KspaceReducer exposes the backend's mesh reducer (nil in serial runs)
// for driving kspace solves outside the step loop.
func (s *Simulation) KspaceReducer() func([]float64) {
	return s.backend.GridReducer(s)
}

// Prime evaluates forces at the current positions without advancing time
// (LAMMPS "run 0"): required when resuming from a restart, whose state
// carries positions and velocities but not forces.
func (s *Simulation) Prime() {
	s.backend.Rebuild(s)
	if err := s.buildList(); err != nil {
		panic(err)
	}
	s.evaluateForces()
}

// buildList rebuilds the neighbor list and mirrors its counters. A bin
// grid the list refuses to allocate comes back as a too-many-bins
// *SimError; step and Prime fail the rank with it.
func (s *Simulation) buildList() error {
	if err := s.NL.Build(s.Store); err != nil {
		return &SimError{
			Rank: s.backend.Rank(), Step: s.Step, Kind: ErrTooManyBins,
			Detail: err.Error(),
		}
	}
	s.Counters.NeighBuilds = int64(s.NL.Stats.Builds)
	s.Counters.NeighPairs = s.NL.Stats.TotalPairs
	s.Counters.NeighChecks = s.NL.Stats.DistanceChecks
	return nil
}

// PrimeRestored readies a NewRestored simulation to run: it builds the
// neighbor list over the ghosts the constructor's Rebuild produced, then
// overwrites the owned forces and force-evaluation results with the
// checkpointed values. Forces are restored rather than recomputed
// because the checkpoint captures the post-PostForce state — fixes like
// Langevin add RNG-drawn noise there, and replaying the draws would
// advance the (also restored) RNG stream twice.
func (s *Simulation) PrimeRestored(force []vec.V3, pe, vir float64) error {
	st := s.Store
	if len(force) != st.N {
		return fmt.Errorf("core: checkpoint carries %d forces, rank owns %d atoms", len(force), st.N)
	}
	if err := s.buildList(); err != nil {
		return err
	}
	copy(st.Force[:st.N], force)
	s.LastPE = pe
	s.LastVirial = vir
	return nil
}

// fixContext refreshes the shared fix context with the current step
// state; the Ops counter persists across phases and steps and is mirrored
// into the simulation counters.
func (s *Simulation) fixContext() *fix.Context {
	ops := s.fixCtx.Ops
	s.fixCtx = fix.Context{
		Store:        s.Store,
		Box:          &s.Box,
		Mass:         s.Cfg.Mass,
		Dt:           s.Cfg.Dt,
		U:            s.Cfg.Units,
		RNG:          s.RNG,
		Step:         s.Step,
		Virial:       s.LastVirial,
		NAtomsGlobal: s.backend.NGlobal(s),
		ReduceScalar: s.backend.ReduceScalar,
		Ops:          ops,
	}
	return &s.fixCtx
}

// ObserveCommBytes feeds one communication payload size into the
// per-rank message-size histogram (no-op when metrics are disabled);
// communication backends call it alongside the CommBytes counter.
func (s *Simulation) ObserveCommBytes(n int) {
	s.commHist.Observe(float64(n))
}

// Workers returns the intra-rank worker count of the threaded kernels.
func (s *Simulation) Workers() int { return s.pool.Workers() }

// Rank returns this simulation's rank index (0 in serial runs).
func (s *Simulation) Rank() int { return s.backend.Rank() }

// Backend exposes the simulation's communication backend. Cross-layer
// consumers (the sharded checkpoint writer) type-assert optional
// capabilities on it — e.g. access to the underlying mpi communicator —
// without core importing the packages that implement them.
func (s *Simulation) Backend() Backend { return s.backend }

// Close releases the intra-rank worker pool's goroutines. The simulation
// must be idle; Run must not be called afterwards. Safe on 1-worker
// simulations (which hold no goroutines) and safe to call twice.
func (s *Simulation) Close() {
	s.pool.Close()
}

// WrapOwned folds owned positions into the primary cell. With cluster
// migration, molecules wrap rigidly — every member gets the image shift
// of the molecule's anchor (lowest-tag member) — so raw intra-molecular
// differences stay small, which SHAKE and the halo criteria rely on.
func (s *Simulation) WrapOwned() {
	st := s.Store
	if !s.Cfg.ClusterMigrate {
		for i := 0; i < st.N; i++ {
			st.Pos[i], _ = s.Box.Wrap(st.Pos[i])
		}
		return
	}
	type anch struct {
		tag int64
		idx int
	}
	anchors := make(map[int32]anch, st.N/3)
	for i := 0; i < st.N; i++ {
		m := st.Mol[i]
		if m == 0 {
			st.Pos[i], _ = s.Box.Wrap(st.Pos[i])
			continue
		}
		a, ok := anchors[m]
		if !ok || st.Tag[i] < a.tag {
			anchors[m] = anch{st.Tag[i], i}
		}
	}
	l := s.Box.Lengths()
	shifts := make(map[int32]vec.V3, len(anchors))
	for m, a := range anchors {
		_, sh := s.Box.Wrap(st.Pos[a.idx])
		shifts[m] = vec.New(l.X*float64(sh[0]), l.Y*float64(sh[1]), l.Z*float64(sh[2]))
	}
	for i := 0; i < st.N; i++ {
		if m := st.Mol[i]; m != 0 {
			st.Pos[i] = st.Pos[i].Add(shifts[m])
		}
	}
}

// ComputeThermo evaluates the current global thermodynamic state — a
// collective on decomposed runs — and then refreshes the live gauges,
// so the registry also counts the reductions it just made.
func (s *Simulation) ComputeThermo() Thermo {
	ke := s.backend.ReduceScalar(compute.KineticEnergy(s.Store, s.Cfg.Mass, s.Cfg.Units))
	pe := s.backend.ReduceScalar(s.LastPE)
	vir := s.backend.ReduceScalar(s.LastVirial)
	n := s.backend.NGlobal(s)
	t := compute.Temperature(ke, n, s.Cfg.Units)
	p := compute.Pressure(ke, vir, s.Box.Volume())
	s.publishLive()
	return Thermo{
		Step:        s.Step,
		Temperature: t,
		Pressure:    p,
		PotEnergy:   pe,
		KinEnergy:   ke,
		TotalEnergy: pe + ke,
		Volume:      s.Box.Volume(),
	}
}
