package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/mpi"
)

// runOpts is what one run of one workload is given.
type runOpts struct {
	seed    uint64
	seconds float64   // length of the timed window
	rec     *recorder // nil = untraced pass
	dir     string    // this run's own directory under bench/out
	size    sizing
	golden  map[string]goldenEntry // nil = no golden check
}

// goldenEntry is one workload's reference thermo at the default seed,
// taken at the end of the first timed segment (a fixed step count,
// whatever --seconds is).
type goldenEntry struct {
	Step        int64   `json:"step"`
	Atoms       int     `json:"atoms"`
	Temperature float64 `json:"temperature"`
	TotalEnergy float64 `json:"total_energy"`
}

const (
	goldenTol = 1e-6 // relative; a tolerance, so a legitimately reordered sum still passes
	// driftTol bounds the relative NVE energy change of the LJ runs over
	// the timed window. The melt is still equilibrating from its lattice
	// and the LAMMPS bench rebuilds lists every 20 steps without a check,
	// so ~1e-3 is what the physics does; a broken integrator is far beyond.
	driftTol = 5e-3
)

// stamp is the engine's public counters at one instant; the timed
// window's work is the difference of two stamps.
type stamp struct {
	times    core.TaskTimes // mean over ranks
	counters core.Counters  // summed over ranks
	mpi      []mpi.Stats
	mem      runtime.MemStats
}

func snap(e engine) stamp {
	var s stamp
	sims := e.Sims()
	for _, sim := range sims {
		for k := range s.times {
			s.times[k] += sim.Times[k]
		}
		s.counters.Add(sim.Counters)
	}
	for k := range s.times {
		s.times[k] /= time.Duration(len(sims))
	}
	// Steps is per rank, not a sum of work.
	s.counters.Steps = sims[0].Counters.Steps
	s.mpi = append(s.mpi, e.MPIStats()...)
	runtime.ReadMemStats(&s.mem)
	return s
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// engineRun carries one engine workload's state between its phases.
type engineRun struct {
	w    workloadSpec
	o    runOpts
	res  *runResult
	root int // root span

	eng    engine
	atoms  int         // realised atom count
	frame0 core.Thermo // first thermo frame of the kept engine
	dir    string      // the kept engine's checkpoint directory
	// curSeg is the span the traced checkpoint sink files itself under.
	curSeg atomic.Int64

	startMs        []float64 // engine start (core.New+Prime or Supervisor.Start) per set-up
	frameMs        []float64 // cold start → first thermo frame, per set-up
	restoreMs      []float64 // durable state → an engine that can step, per restore
	restoreBuildMs []float64 // checkpoint → engine, without the file read
	restoredFrom   *ckpt.Checkpoint

	segMs         []float64
	before, after stamp
	// fixed is the stamp after the first minOps segments: a step range
	// every run covers whatever --seconds is, so counts taken over it
	// repeat exactly.
	fixed         stamp
	golden, final core.Thermo
	warm          core.Thermo // thermo at the start of the timed window
	segSpread     float64     // IQR/median of the segment rates
	chanRate      float64     // lj_halo_tcp: ts_per_s of the channel reference run
}

func runEngineWorkload(w workloadSpec, o runOpts) (*runResult, error) {
	r := &engineRun{w: w, o: o, res: newResult(w, o)}
	r.root = o.rec.begin(w.name, -1, 0)
	defer func() {
		if r.eng != nil {
			r.eng.Close()
		}
	}()
	if err := r.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := r.timedWindow(); err != nil {
		return nil, err
	}
	if r.res.Failed == 0 {
		// A failed segment leaves a dead engine; the run is already
		// incorrect and there is nothing sound to restore or compare.
		if err := r.restorePhase(); err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		if err := r.checks(); err != nil {
			return nil, fmt.Errorf("checks: %w", err)
		}
		if o.rec != nil {
			if err := r.layerMetrics(); err != nil {
				return nil, fmt.Errorf("per-layer metrics: %w", err)
			}
		}
	}
	o.rec.end(r.root)
	r.res.Spans = o.rec.snapshot()
	return r.res, nil
}

// tracedSink returns the benchmark's own checkpoint wiring for a traced
// checkpointing run: the same ckpt.Writer the Supervisor would install,
// with a span around every sink call.
func (r *engineRun) tracedSink(dir string) *sinkWiring {
	if r.o.rec == nil || r.w.sys.ckptEvery == 0 {
		return nil
	}
	sw := newSinkWiring(ckptPath(dir), r.w.sys.ranks)
	sw.wrap = func(rank int, call func() error) error {
		id := r.o.rec.begin("ckpt.sink", int(r.curSeg.Load()), rank)
		err := call()
		r.o.rec.end(id)
		return err
	}
	return sw
}

// setUp performs the whole set-up several times — build, engine start,
// prime, first frame, warm-up — keeps the last engine, and reports the
// median, so one slow page-in does not set setup_s.
func (r *engineRun) setUp() error {
	sys := r.w.sys
	var setups []float64
	for i, t00 := 0, time.Now(); r.o.size.setups.more(i, time.Since(t00)); i++ {
		if r.eng != nil {
			r.eng.Close()
			r.eng = nil
		}
		r.dir = filepath.Join(r.o.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return err
		}
		sp := r.o.rec.begin("setup", r.root, 0)
		r.curSeg.Store(int64(sp))
		t0 := time.Now()
		var err error
		r.o.rec.do("start", sp, 0, func() {
			r.eng, err = sys.start(r.o.seed, r.dir, r.tracedSink(r.dir))
		})
		if err != nil {
			return err
		}
		r.startMs = append(r.startMs, time.Since(t0).Seconds()*1e3)
		r.o.rec.do("first-frame", sp, 0, func() {
			if err = r.eng.Run(sys.thermoEvery); err == nil {
				r.frame0, err = r.eng.Thermo()
			}
		})
		if err != nil {
			return err
		}
		r.frameMs = append(r.frameMs, time.Since(t0).Seconds()*1e3)
		r.o.rec.do("warm-up", sp, 0, func() {
			err = r.eng.Run(r.w.warmup - sys.thermoEvery)
		})
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.o.rec.end(sp)
	}
	r.res.EndToEnd["setup_s"] = median(setups)
	r.res.Samples["setup_s"] = len(setups)
	r.res.Info["setup_samples_s"] = setups
	r.res.Info["first_frame_samples_ms"] = r.frameMs
	for _, sim := range r.eng.Sims() {
		r.atoms += sim.Store.N
	}
	r.res.Info["atoms_requested"] = sys.atoms
	r.res.Info["atoms"] = r.atoms
	return nil
}

// timedWindow runs equal seg-step segments until --seconds have passed.
// ts_per_s is the median segment rate, so one noisy-neighbour burst
// cannot move it.
func (r *engineRun) timedWindow() error {
	var err error
	if r.warm, err = r.eng.Thermo(); err != nil {
		return err
	}
	win := r.o.rec.begin("timed", r.root, 0)
	r.before = snap(r.eng)
	start := time.Now()
	for len(r.segMs) < r.o.size.minOps || time.Since(start).Seconds() < r.o.seconds {
		id := r.o.rec.begin("segment", win, 0)
		r.curSeg.Store(int64(id))
		t0 := time.Now()
		err := r.eng.Run(r.w.seg)
		d := time.Since(t0)
		r.o.rec.end(id)
		r.res.Attempted++
		if err != nil {
			r.res.Failed++
			r.res.note("segment %d failed: %v", len(r.segMs), err)
			break
		}
		r.segMs = append(r.segMs, d.Seconds()*1e3)
		if len(r.segMs) == 1 {
			if r.golden, err = r.eng.Thermo(); err != nil {
				return err
			}
		}
		if len(r.segMs) == r.o.size.minOps {
			r.fixed = snap(r.eng)
		}
	}
	r.o.rec.end(win)
	if len(r.segMs) == 0 {
		return nil
	}
	r.after = snap(r.eng)
	if r.res.Failed == 0 {
		if r.final, err = r.eng.Thermo(); err != nil {
			return err
		}
	}
	rates := make([]float64, len(r.segMs))
	for i, ms := range r.segMs {
		rates[i] = float64(r.w.seg) / (ms / 1e3)
	}
	r.res.EndToEnd["ts_per_s"] = median(rates)
	r.res.EndToEnd["job_latency_p50_ms"] = median(r.segMs)
	for _, k := range []string{"ts_per_s", "job_latency_p50_ms"} {
		r.res.Samples[k] = len(r.segMs)
	}
	r.res.Info["job_latency_p90_ms"] = percentile(r.segMs, 90)
	r.res.Info["segment_ms"] = r.segMs
	r.res.Info["segment_steps"] = r.w.seg
	r.res.Info["steps_timed"] = r.w.seg * len(r.segMs)
	r.segSpread = iqrShare(rates)
	r.res.Info["segment_spread"] = r.segSpread
	if r.res.Failed == 0 {
		r.res.Counts = engineCounts(&r.before, &r.fixed, len(r.eng.Sims()))
	}
	r.res.Info["golden_step"] = r.golden.Step
	r.res.Info["golden_temperature"] = r.golden.Temperature
	r.res.Info["golden_total_energy"] = r.golden.TotalEnergy
	return nil
}

// engineCounts are the exact work counts of the step range between two
// stamps: the same inputs over the same steps give the same numbers on
// every run and every host.
func engineCounts(a, b *stamp, ranks int) map[string]float64 {
	steps := float64(b.counters.Steps - a.counters.Steps)
	c := map[string]float64{
		"core.pairs_per_step": ratio(float64(b.counters.PairOps-a.counters.PairOps), steps),
		"neighbor.rebuilds_per_100_steps": 100 * ratio(float64(b.counters.NeighBuilds-a.counters.NeighBuilds),
			steps*float64(ranks)),
		"domain.ghosts_per_step": ratio(float64(b.counters.GhostAtoms-a.counters.GhostAtoms), steps),
		"mpi.msgs_per_step":      0,
		"mpi.bytes_per_step":     0,
	}
	if n := float64(len(b.mpi)); n > 0 {
		var calls, bytes float64
		for rk := range b.mpi {
			for f := range b.mpi[rk].Funcs {
				calls += float64(b.mpi[rk].Funcs[f].Calls - a.mpi[rk].Funcs[f].Calls)
				bytes += float64(b.mpi[rk].Funcs[f].Bytes - a.mpi[rk].Funcs[f].Bytes)
			}
		}
		c["mpi.msgs_per_step"] = ratio(calls/n, steps)
		c["mpi.bytes_per_step"] = ratio(bytes/n, steps)
	}
	return c
}

func (r *engineRun) wallMs() float64 {
	var ms float64
	for _, s := range r.segMs {
		ms += s
	}
	return ms
}

// restorePhase times "durable state on disk → an engine that can step"
// several times (the traced run reports the median) and checks the
// first restored engine. What is restored depends on the
// layout: a checkpointing workload restores what its Supervisor wrote; a
// serial engine restores a one-off checkpoint captured after the timed
// window; a decomposed engine that does not checkpoint restores from a
// short checkpointing run of the same system (a capture off the
// checkpoint cadence lands between rebuilds, and ownership would not
// match); the TCP world, which has no mono-file checkpoint, takes the
// scratch path a Supervisor recovery takes without one: fresh rendezvous
// and a rebuilt engine.
func (r *engineRun) restorePhase() error {
	sys := r.w.sys
	sp := r.o.rec.begin("restore", r.root, 0)
	defer r.o.rec.end(sp)
	r.curSeg.Store(int64(sp)) // checkpoints written from here on are not the timed window's
	path := ckptPath(r.dir)
	live := r.eng // the engine the first restored one is checked against
	switch {
	case sys.tcp || sys.ckptEvery > 0:
	case !sys.world:
		path = filepath.Join(r.dir, "oneoff.ckpt")
		if err := ckpt.WriteFileAtomic(path, capture(r.eng)); err != nil {
			return err
		}
	default:
		src := sys
		src.ckptEvery = r.w.warmup
		dir := filepath.Join(r.dir, "restore-src")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		e, err := src.start(r.o.seed, dir, nil)
		if err != nil {
			return err
		}
		defer e.Close()
		if err := e.Run(r.w.warmup); err != nil {
			return err
		}
		path, live = ckptPath(dir), e
	}
	for i, t00 := 0, time.Now(); r.o.size.restores.more(i, time.Since(t00)); i++ {
		var e2 engine
		var err error
		t0 := time.Now()
		if sys.tcp {
			r.o.rec.do("restore.rendezvous+build", sp, 0, func() {
				e2, err = sys.start(r.o.seed, r.dir, nil)
			})
		} else {
			var ck *ckpt.Checkpoint
			r.o.rec.do("ckpt.ReadNewestValid", sp, 0, func() {
				ck, _, _, err = ckpt.ReadNewestValid(path, keepCheckpoints)
			})
			if err != nil {
				return err
			}
			var sink *sinkWiring
			if sys.ckptEvery > 0 {
				// The continuation keeps the checkpoint cadence (it is part
				// of the trajectory) but writes beside the live run's files.
				sink = newSinkWiring(filepath.Join(r.dir, fmt.Sprintf("restored-%d.ckpt", i)), sys.ranks)
			}
			tb := time.Now()
			r.o.rec.do("restore.build", sp, 0, func() {
				e2, err = sys.restore(r.o.seed, ck, sink)
			})
			r.restoreBuildMs = append(r.restoreBuildMs, time.Since(tb).Seconds()*1e3)
			r.restoredFrom = ck
		}
		if err != nil {
			return err
		}
		r.restoreMs = append(r.restoreMs, time.Since(t0).Seconds()*1e3)
		if i == 0 {
			err = r.checkRestored(e2, live)
		}
		e2.Close()
		if err != nil {
			return err
		}
	}
	r.res.Info["restore_samples_ms"] = r.restoreMs
	return nil
}

// checkRestored verifies the first restored engine against the live one
// it was restored beside.
func (r *engineRun) checkRestored(e2, live engine) error {
	sys := r.w.sys
	switch {
	case sys.tcp:
		// A rebuilt world starts over: its first frame must be the first
		// frame the original run produced, bit for bit.
		if err := e2.Run(sys.thermoEvery); err != nil {
			return err
		}
		th, err := e2.Thermo()
		if err != nil {
			return err
		}
		r.res.check("rebuilt-first-frame", th == r.frame0, "step %d: T %.12g vs %.12g", th.Step, th.Temperature, r.frame0.Temperature)
	case sys.ckptEvery > 0:
		// The restored engine and the uninterrupted one step on together
		// and must report the same thermo, bit for bit.
		if e2.Step() != live.Step() {
			r.res.check("restored-steps-on", false, "restored at step %d, live engine at %d", e2.Step(), live.Step())
			return nil
		}
		if err := live.Run(sys.ckptEvery); err != nil {
			return err
		}
		if err := e2.Run(sys.ckptEvery); err != nil {
			return err
		}
		a, err := live.Thermo()
		if err != nil {
			return err
		}
		b, err := e2.Thermo()
		if err != nil {
			return err
		}
		r.res.check("restored-steps-on", a == b, "step %d: E %.15g vs %.15g", a.Step, a.TotalEnergy, b.TotalEnergy)
	default:
		a, err := live.Thermo()
		if err != nil {
			return err
		}
		b, err := e2.Thermo()
		if err != nil {
			return err
		}
		ok := a.Step == b.Step && relDiff(a.Temperature, b.Temperature) < 1e-9 &&
			relDiff(a.TotalEnergy, b.TotalEnergy) < 1e-9
		r.res.check("restored-thermo", ok, "step %d/%d: E %.15g vs %.15g", a.Step, b.Step, a.TotalEnergy, b.TotalEnergy)
	}
	return nil
}

// reference runs the same system laid out another way (serial instead
// of decomposed, channel instead of TCP, one worker instead of two) with
// the same chunking, and returns its golden-step thermo and the median
// rate of nSeg segments.
func (r *engineRun) reference(name string, sys system, nSeg int) (core.Thermo, float64, error) {
	sp := r.o.rec.begin("reference."+name, r.root, 0)
	defer r.o.rec.end(sp)
	dir := filepath.Join(r.o.dir, "ref-"+name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return core.Thermo{}, 0, err
	}
	e, err := sys.start(r.o.seed, dir, nil)
	if err != nil {
		return core.Thermo{}, 0, err
	}
	defer e.Close()
	if err := e.Run(sys.thermoEvery); err != nil {
		return core.Thermo{}, 0, err
	}
	if err := e.Run(r.w.warmup - sys.thermoEvery); err != nil {
		return core.Thermo{}, 0, err
	}
	var th core.Thermo
	var rates []float64
	for i := 0; i < nSeg; i++ {
		t0 := time.Now()
		if err := e.Run(r.w.seg); err != nil {
			return core.Thermo{}, 0, err
		}
		rates = append(rates, float64(r.w.seg)/time.Since(t0).Seconds())
		if i == 0 {
			if th, err = e.Thermo(); err != nil {
				return core.Thermo{}, 0, err
			}
		}
	}
	return th, median(rates), nil
}

func (r *engineRun) checks() error {
	sys := r.w.sys
	// NVE drift: LJ runs conserve energy; rhodo is NPT and does not.
	if sys.wl == "lj" {
		drift := relDiff(r.final.TotalEnergy, r.warm.TotalEnergy)
		r.res.check("nve-drift", drift < driftTol, "|dE|/|E| = %.3g over %d steps (limit %g)",
			drift, r.final.Step-r.warm.Step, driftTol)
	}
	if g, ok := r.o.golden[r.w.name]; ok && r.o.seed == defaultSeed && !r.o.size.tiny {
		dT := relDiff(r.golden.Temperature, g.Temperature)
		dE := relDiff(r.golden.TotalEnergy, g.TotalEnergy)
		r.res.check("golden", r.golden.Step == g.Step && dT < goldenTol && dE < goldenTol,
			"step %d: T off by %.2g, E off by %.2g (limit %g)", r.golden.Step, dT, dE, goldenTol)
	}
	if sys.tcp {
		// The transport must not change the physics: a channel world over
		// the same inputs reaches the same thermo, bit for bit.
		chanSys := sys
		chanSys.tcp = false
		// One segment reaches the golden step; a traced run times a few
		// more for domain.tcp_vs_chan.
		nSeg := 1
		if r.o.rec != nil {
			nSeg = r.o.size.minOps
		}
		th, rate, err := r.reference("chan", chanSys, nSeg)
		if err != nil {
			return err
		}
		r.chanRate = rate
		r.res.check("tcp-equals-chan", th == r.golden, "step %d: E %.15g (tcp) vs %.15g (chan)",
			r.golden.Step, r.golden.TotalEnergy, th.TotalEnergy)
		r.res.Info["chan_reference_ts_per_s"] = rate
	}
	return nil
}
