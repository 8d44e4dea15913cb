package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"gomd/internal/atom"
	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/harness"
	"gomd/internal/mpi"
	"gomd/internal/pair"
	"gomd/internal/workload"
)

// system is the simulated input of a workload: which generator, how
// many atoms are requested, and how the engine is laid over them. All
// workloads run double precision, the mdrun/mdserve default.
type system struct {
	wl      workload.Name
	atoms   int
	ranks   int  // 1 with !world = core.New serial backend
	world   bool // decomposed engine under harness.Supervisor
	tcp     bool // with world: the ranks live in two worlds joined over loopback TCP
	workers int
	// ckptEvery > 0 runs under Supervisor{CheckpointEvery, KeepCheckpoints: 2}.
	ckptEvery int
	// thermoEvery is the engine's thermo cadence; the first frame a user
	// sees arrives after that many steps.
	thermoEvery int
}

const keepCheckpoints = 2

func (s system) factory(seed uint64) domain.Factory {
	return func() (core.Config, *atom.Store, error) {
		cfg, st, err := workload.Build(s.wl, workload.Options{
			Atoms: s.atoms, Precision: pair.Double, Seed: seed, ThermoEvery: s.thermoEvery,
		})
		cfg.ThermoTo = nil
		cfg.Workers = s.workers
		return cfg, st, err
	}
}

// engine is the benchmark's view of a running simulation, whichever of
// the three ways the repo builds one: core.New, a Supervisor over a
// channel world, or two Supervisors over a TCP world.
type engine interface {
	Run(n int) error
	Thermo() (core.Thermo, error)
	Step() int64
	// Sims lists the per-rank simulations (one for a serial engine).
	Sims() []*core.Simulation
	MPIStats() []mpi.Stats
	// Grid is the decomposition a checkpoint of this engine records.
	Grid() [3]int
	Close()
}

type serialEngine struct{ sim *core.Simulation }

func (e serialEngine) Run(n int) error              { return e.sim.RunChecked(n) }
func (e serialEngine) Thermo() (core.Thermo, error) { return e.sim.ComputeThermo(), nil }
func (e serialEngine) Step() int64                  { return e.sim.Step }
func (e serialEngine) Sims() []*core.Simulation     { return []*core.Simulation{e.sim} }
func (e serialEngine) MPIStats() []mpi.Stats        { return nil }
func (e serialEngine) Grid() [3]int                 { return [3]int{1, 1, 1} }
func (e serialEngine) Close()                       { e.sim.Close() }

// worldEngine is a decomposed engine on one in-process world, driven
// through the Supervisor when there is one (the untraced passes) or
// directly (restored engines, and the traced lj_ckpt that wires its own
// checkpoint sink).
type worldEngine struct {
	sup *harness.Supervisor
	eng *domain.Engine
}

func (e worldEngine) engine() *domain.Engine {
	if e.sup != nil {
		return e.sup.Engine()
	}
	return e.eng
}

func (e worldEngine) Run(n int) error {
	if e.sup != nil {
		return e.sup.Run(n)
	}
	return e.eng.Run(n)
}

func (e worldEngine) Thermo() (core.Thermo, error) {
	if e.sup != nil {
		return e.sup.Thermo()
	}
	return e.eng.ThermoErr()
}

func (e worldEngine) Step() int64              { return e.engine().Step() }
func (e worldEngine) Sims() []*core.Simulation { return e.engine().Sims }
func (e worldEngine) MPIStats() []mpi.Stats    { return e.engine().MPIStats() }
func (e worldEngine) Grid() [3]int             { return e.engine().Grid }
func (e worldEngine) Close()                   { e.engine().Close() }

// tcpEngine holds the two halves of a process-spanning world in one
// process: each half is a Supervisor whose WorldBuilder runs its side of
// the rendezvous, exactly as `mdrun -listen` and `mdrun -join` do. Every
// call is collective, so both halves are driven at once.
type tcpEngine struct{ halves [2]*harness.Supervisor }

func (e tcpEngine) both(fn func(half int, h *harness.Supervisor) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(e.halves))
	for i, h := range e.halves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, h)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (e tcpEngine) Run(n int) error {
	return e.both(func(_ int, h *harness.Supervisor) error { return h.Run(n) })
}

func (e tcpEngine) Thermo() (core.Thermo, error) {
	var ths [2]core.Thermo
	err := e.both(func(half int, h *harness.Supervisor) (err error) {
		ths[half], err = h.Thermo()
		return err
	})
	if err == nil && ths[0] != ths[1] {
		err = fmt.Errorf("tcp halves disagree on thermo: %+v vs %+v", ths[0], ths[1])
	}
	return ths[0], err
}

func (e tcpEngine) Step() int64  { return e.halves[0].Step() }
func (e tcpEngine) Grid() [3]int { return e.halves[0].Engine().Grid }

func (e tcpEngine) Sims() []*core.Simulation {
	var out []*core.Simulation
	for _, h := range e.halves {
		for _, s := range h.Engine().Sims {
			if s != nil {
				out = append(out, s)
			}
		}
	}
	return out
}

// MPIStats keeps each rank's profile from the half that hosts it (the
// other half reports that rank zero-valued).
func (e tcpEngine) MPIStats() []mpi.Stats {
	out := make([]mpi.Stats, len(e.halves))
	for r, h := range e.halves {
		out[r] = h.Engine().MPIStats()[r]
	}
	return out
}

func (e tcpEngine) Close() {
	for _, h := range e.halves {
		h.Close()
	}
}

// startTCP builds the two-world engine. The coordinator listens on an
// ephemeral loopback port and hands the address to the joiner through a
// channel — the one thing two terminals would do by hand.
func startTCP(f domain.Factory) (engine, error) {
	addr := make(chan string, 1)
	e := tcpEngine{}
	e.halves[0] = &harness.Supervisor{Factory: f, Ranks: 2,
		WorldBuilder: func() (*mpi.World, error) {
			co, err := mpi.ListenTCP("127.0.0.1:0", 2)
			if err != nil {
				close(addr)
				return nil, err
			}
			addr <- co.Addr()
			return co.Host([]int{0}, mpi.WorldOptions{})
		}}
	e.halves[1] = &harness.Supervisor{Factory: f, Ranks: 2,
		WorldBuilder: func() (*mpi.World, error) {
			a, ok := <-addr
			if !ok {
				return nil, errors.New("coordinator failed to listen")
			}
			return mpi.JoinTCP(a, []int{1}, mpi.WorldOptions{})
		}}
	if err := e.both(func(_ int, h *harness.Supervisor) error { return h.Start() }); err != nil {
		for _, h := range e.halves {
			if h.Engine() != nil {
				h.Close()
			}
		}
		return nil, err
	}
	return e, nil
}

// start builds the workload's engine the way the repo's commands do.
// dir receives checkpoint files; sink, when set, replaces the
// Supervisor's checkpoint wiring with the benchmark's own (see
// ckptFactory) so a traced run can put a span around every sink call.
func (s system) start(seed uint64, dir string, sink *sinkWiring) (engine, error) {
	f := s.factory(seed)
	switch {
	case s.tcp:
		return startTCP(f)
	case s.world && sink != nil:
		eng, err := domain.New(sink.factory(f, s.ckptEvery), s.ranks)
		if err != nil {
			return nil, err
		}
		sink.writer.SetGrid(eng.Grid)
		return worldEngine{eng: eng}, nil
	case s.world:
		sup := &harness.Supervisor{Factory: f, Ranks: s.ranks}
		if s.ckptEvery > 0 {
			sup.CheckpointEvery = s.ckptEvery
			sup.CheckpointPath = ckptPath(dir)
			sup.KeepCheckpoints = keepCheckpoints
		}
		if err := sup.Start(); err != nil {
			return nil, err
		}
		return worldEngine{sup: sup}, nil
	default:
		cfg, st, err := f()
		if err != nil {
			return nil, err
		}
		sim := core.New(cfg, st)
		sim.Prime()
		return serialEngine{sim}, nil
	}
}

func ckptPath(dir string) string { return filepath.Join(dir, "run.ckpt") }

// sinkWiring is a ckpt.Writer installed on every rank's config the way
// Supervisor.wrapFactory installs it, with an optional wrapper around
// each sink call. The restored lj_ckpt engine uses it to keep the
// checkpoint cadence (without it the continuation is not bit-exact),
// and the traced lj_ckpt uses it to time the sink.
type sinkWiring struct {
	writer *ckpt.Writer
	wrap   func(rank int, call func() error) error
}

func newSinkWiring(path string, ranks int) *sinkWiring {
	w := ckpt.NewWriter(path, ranks)
	w.SetKeep(keepCheckpoints)
	return &sinkWiring{writer: w}
}

func (sw *sinkWiring) factory(f domain.Factory, every int) domain.Factory {
	sink := sw.writer.Sink()
	return func() (core.Config, *atom.Store, error) {
		cfg, st, err := f()
		cfg.CheckpointEvery = every
		cfg.CheckpointSink = sink
		if sw.wrap != nil {
			cfg.CheckpointSink = func(sim *core.Simulation) error {
				return sw.wrap(sim.Rank(), func() error { return sink(sim) })
			}
		}
		return cfg, st, err
	}
}

// capture snapshots a live engine into a checkpoint without going
// through a periodic sink: the one-off checkpoint the workloads that do
// not checkpoint restore from.
func capture(e engine) *ckpt.Checkpoint {
	sims := e.Sims()
	ck := &ckpt.Checkpoint{
		Step:     sims[0].Step,
		Ranks:    len(sims),
		Grid:     e.Grid(),
		Box:      sims[0].Box,
		SetupBox: sims[0].SetupBox,
		Q2Setup:  sims[0].Q2Setup,
		PerRank:  make([]ckpt.Rank, len(sims)),
	}
	for _, sim := range sims {
		ck.PerRank[sim.Rank()] = ckpt.CaptureRank(sim)
	}
	return ck
}

// restore rebuilds a steppable engine from a checkpoint, by the
// function the system's layout calls for.
func (s system) restore(seed uint64, ck *ckpt.Checkpoint, sink *sinkWiring) (engine, error) {
	f := s.factory(seed)
	if !s.world {
		cfg, _, err := f()
		if err != nil {
			return nil, err
		}
		sim, err := ckpt.RestoreSerial(cfg, ck)
		if err != nil {
			return nil, err
		}
		return serialEngine{sim}, nil
	}
	if sink != nil {
		f = sink.factory(f, s.ckptEvery)
	}
	eng, err := domain.Restore(f, ck)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		sink.writer.SetGrid(eng.Grid)
	}
	return worldEngine{eng: eng}, nil
}
