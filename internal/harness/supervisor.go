package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"gomd/internal/atom"
	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/health"
	"gomd/internal/mpi"
	"gomd/internal/obs"
	"gomd/internal/trace"
)

// ErrRestarted reports that a recovery rebuilt the engine from scratch
// on a fresh world (WorldBuilder mode, no checkpoint generation to
// restore). It is a control signal, not a failure: reread Step() (now 0)
// and replay the same schedule of Run and Thermo calls, as every other
// process of the world does. Drive handles it; only code that calls
// Run/Thermo on a WorldBuilder supervisor directly has to (DESIGN.md
// "Run path" says why the supervisor cannot re-advance by itself).
var ErrRestarted = errors.New("harness: engine restarted from scratch on a fresh world")

// Supervisor runs a decomposed engine under fault tolerance: it wires
// the periodic checkpoint sink into every rank's config, and when a
// rank fails (panic, injected kill, guardrail violation) it rebuilds
// the engine from the last completed checkpoint and resumes, within a
// retry budget. Because checkpoints restart bit-exactly, a supervised
// run that recovers from a mid-run crash finishes with the same
// trajectory as an uninterrupted one.
type Supervisor struct {
	// Factory builds the workload; the supervisor injects the checkpoint
	// sink into every config it returns.
	Factory domain.Factory
	Ranks   int

	// CheckpointEvery/CheckpointPath enable periodic snapshots (both
	// must be set). They also make the run resumable: Start restores the
	// newest generation under CheckpointPath that verifies, so rerunning
	// an interrupted run continues it.
	CheckpointEvery int
	CheckpointPath  string

	// WorldBuilder, when set, supplies the message-passing world for
	// every engine build instead of the default in-process channel world
	// — the hook a process-spanning (TCP) deployment uses. Each build
	// attempt calls it afresh, so a recovery re-runs the rendezvous and
	// gets a clean socket mesh. Composes with CheckpointEvery/
	// CheckpointPath: each process writes GMCS shards of its local
	// ranks (ckpt.ShardWriter's two-phase commit), and a recovery
	// re-rendezvouses and restores every process from the newest
	// complete generation — even when the new rendezvous assigns ranks
	// to different processes, since shards are keyed by rank.
	WorldBuilder func() (*mpi.World, error)

	// KeepCheckpoints retains that many checkpoint generations (default
	// 1): each write rotates path -> path.1 -> ... so a corrupted newest
	// file still leaves older intact generations to recover from.
	KeepCheckpoints int

	// HangTimeout, when positive, arms a health watchdog over each run
	// attempt: ranks heartbeat from their timestep loops, and a rank that
	// makes no progress within the timeout triggers a diagnosed world
	// abort that recovers through the same path as a crash.
	HangTimeout time.Duration

	// Retries bounds recovery attempts over the supervisor's lifetime
	// (0 = fail on the first rank error). Backoff is slept before each
	// rebuild (default 50ms) plus up to 100% seeded-free jitter, so
	// co-scheduled supervised runs do not thunder back in lockstep.
	Retries int
	Backoff time.Duration

	// Observability: recoveries are counted in Metrics
	// (recover.attempts, recover.rank_errors{rank=r},
	// recover.ckpt_rejected), marked on the failed rank's span timeline,
	// and logged to Trace (recovery, checkpoint-verify,
	// checkpoint-restore events). All optional.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Trace   *trace.Logger

	// FlightPath, when set, arms the crash flight recorder: every rank
	// ring-buffers its last FlightDepth step records
	// (obs.DefaultFlightDepth when 0), and the retained tail is dumped as
	// JSONL — to FlightPath.attemptN on each recovery, and to FlightPath
	// itself when the run finally fails — so post-mortems show what every
	// rank was doing in the steps leading up to the death.
	FlightPath  string
	FlightDepth int

	eng         *domain.Engine
	writer      *ckpt.Writer
	shardWriter *ckpt.ShardWriter
	monitor     *health.Monitor
	flight      *obs.Flight
	attempts    int
	// lastRestore is the step the most recent build restored from
	// (-1 = built from scratch).
	lastRestore int64
}

// sharded reports whether the supervisor runs distributed (sharded)
// checkpoints: a process-spanning world with checkpointing enabled.
func (s *Supervisor) sharded() bool {
	return s.WorldBuilder != nil && s.CheckpointEvery > 0 && s.CheckpointPath != ""
}

// wrapFactory injects the supervisor's checkpoint sink and health
// monitor into the workload configs (no-op when neither is enabled).
func (s *Supervisor) wrapFactory() domain.Factory {
	var sink func(*core.Simulation) error
	switch {
	case s.sharded():
		if s.shardWriter == nil {
			s.shardWriter = ckpt.NewShardWriter(s.CheckpointPath, s.Ranks)
			if s.KeepCheckpoints > 1 {
				s.shardWriter.SetKeep(s.KeepCheckpoints)
			}
		}
		sink = s.shardWriter.Sink()
	case s.CheckpointEvery > 0 && s.CheckpointPath != "" && s.WorldBuilder == nil:
		if s.writer == nil {
			s.writer = ckpt.NewWriter(s.CheckpointPath, s.Ranks)
			if s.KeepCheckpoints > 1 {
				s.writer.SetKeep(s.KeepCheckpoints)
			}
		}
		sink = s.writer.Sink()
	}
	if (s.HangTimeout > 0 || s.Metrics != nil) && s.monitor == nil {
		// One monitor outlives engine rebuilds: recovery attempts keep
		// beating into the same instance. A metrics registry alone also
		// warrants one — the engine mirrors heartbeats into live gauges, so
		// scrapes see per-rank liveness even without a hang watchdog.
		s.monitor = health.NewMonitor(s.Ranks)
	}
	if s.FlightPath != "" && s.flight == nil {
		// Like the monitor, one flight recorder outlives rebuilds so the
		// retained tail spans recovery attempts.
		s.flight = obs.NewFlight(s.Ranks, s.FlightDepth)
	}
	if sink == nil && s.monitor == nil && s.flight == nil {
		return s.Factory
	}
	return func() (core.Config, *atom.Store, error) {
		cfg, st, err := s.Factory()
		if sink != nil {
			cfg.CheckpointEvery = s.CheckpointEvery
			cfg.CheckpointSink = sink
		}
		if inj := cfg.Fault; inj != nil {
			// The workload's injector also damages what the checkpoint
			// writer just wrote (truncate-ckpt, flip-ckpt, shard faults)
			// and kills a process mid-commit.
			if s.shardWriter != nil {
				s.shardWriter.SetCorruptor(inj.CorruptShard)
				s.shardWriter.SetKillCommit(inj.KillDuringCommit)
			}
			if s.writer != nil {
				s.writer.SetCorruptor(inj.CorruptCheckpoint)
			}
		}
		cfg.Health = s.monitor
		cfg.Flight = s.flight
		return cfg, st, err
	}
}

// Start builds the engine the way a recovery rebuilds it: from the
// newest generation under CheckpointPath that verifies (mono files
// in-process, shards on a WorldBuilder world), or from scratch when
// there is none. A rerun of an interrupted run therefore continues it,
// and a re-launched process rejoins an interrupted multi-process job.
func (s *Supervisor) Start() error {
	return s.build()
}

// restorePoint is what one build found to restore from.
type restorePoint struct {
	set  *ckpt.ShardSet // nil: nothing restorable, build from scratch
	gen  int64          // logged "generation": a mono file's rotation index, a shard generation's step
	path string         // the mono file, "" for a shard generation
}

// find looks for the newest restorable state in the run's own store,
// on first start and on every recovery alike; the checkpoint format
// picks the scan: the shard store of a WorldBuilder world, the mono
// generations of an in-process one, nothing without checkpointing.
// Every generation it had to reject is returned for logging. A non-nil
// error is fatal; scratch is not an error.
func (s *Supervisor) find(w *mpi.World) (rp restorePoint, rejected []ckpt.GenError, err error) {
	switch {
	case s.shardWriter != nil:
		rp.set, rejected, err = ckpt.ReadNewestValidManifest(ckpt.ShardDir(s.CheckpointPath), w.LocalRanks(), w.Size)
		if err == nil {
			rp.gen = rp.set.Step
		}
	case s.writer != nil:
		var ck *ckpt.Checkpoint
		var gen int
		ck, gen, rejected, err = ckpt.ReadNewestValid(s.CheckpointPath, s.KeepCheckpoints)
		if err == nil {
			rp = restorePoint{set: ck.ShardSet(), gen: int64(gen), path: ckpt.GenerationPath(s.CheckpointPath, gen)}
		}
	default:
		return rp, nil, nil
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) && len(rejected) == 0 {
		return rp, nil, err
	}
	// Found one, or every generation is missing (none written yet) or
	// rejected: restarting from step 0 is then the only build left.
	return rp, rejected, nil
}

// build is the one way an engine comes to be, on first start and on
// every recovery: get the world, find the newest restorable state,
// restore it or build from scratch, log which. Every rejected
// generation is logged too — a silent fallback would hide corruption.
// s.eng is replaced only on success.
func (s *Supervisor) build() error {
	f := s.wrapFactory()
	var w *mpi.World
	if s.WorldBuilder == nil {
		w = mpi.NewWorld(s.Ranks)
	} else {
		// Each build re-runs the rendezvous: a recovery gets a clean mesh.
		var err error
		if w, err = s.WorldBuilder(); err != nil {
			return fmt.Errorf("harness: building world: %w", err)
		}
		if w.Size != s.Ranks {
			w.Close()
			return fmt.Errorf("harness: WorldBuilder produced a %d-rank world, supervisor configured for %d", w.Size, s.Ranks)
		}
	}
	if s.writer != nil {
		s.writer.Reset() // drop shares from assemblies a crash interrupted
	}
	if s.shardWriter != nil {
		// A re-rendezvous may assign different ranks to this process.
		s.shardWriter.Bind(w)
	}
	// The engine closes w with itself; read what the log needs first.
	event := map[string]any{
		"transport": w.Transport(),
		"world_id":  fmt.Sprintf("%016x", w.ID()),
		"attempt":   s.attempts,
	}

	rp, rejected, err := s.find(w)
	for _, ge := range rejected {
		if s.Metrics != nil {
			s.Metrics.Counter("recover.ckpt_rejected").Inc()
		}
		s.Trace.Log("checkpoint-verify", map[string]any{
			"generation": ge.Gen,
			"path":       ge.Path,
			"ok":         false,
			"error":      ge.Err.Error(),
		})
	}
	if err != nil {
		w.Close()
		return err
	}

	var eng *domain.Engine
	restored := int64(-1)
	if rp.set != nil {
		eng, err = domain.RestoreOnWorld(f, w, rp.set)
		restored = rp.set.Step
		event["generation"], event["step"], event["verified"] = rp.gen, restored, true
		if rp.path != "" {
			event["path"] = rp.path
		}
	} else {
		eng, err = domain.NewOnWorld(f, w)
		event["generation"], event["scratch"] = -1, true
	}
	if err != nil {
		return err
	}
	s.lastRestore = restored
	if s.writer != nil {
		s.writer.SetGrid(eng.Grid)
	}
	if s.shardWriter != nil {
		s.shardWriter.SetGrid(eng.Grid)
	}
	s.Trace.Log("checkpoint-restore", event)
	s.eng = eng
	return nil
}

// Engine exposes the current engine (it changes identity across
// recoveries).
func (s *Supervisor) Engine() *domain.Engine { return s.eng }

// Step returns the engine's absolute step position.
func (s *Supervisor) Step() int64 { return s.eng.Step() }

// Close releases the current engine.
func (s *Supervisor) Close() {
	if s.eng != nil {
		s.eng.Close()
	}
}

// Run advances the run to absolute step start+n, recovering from rank
// failures along the way. Each recovery closes the dead engine, backs
// off, and rebuilds from the last completed checkpoint (or from scratch
// when none was written yet); the retry budget spans the supervisor's
// lifetime, so a fault that re-fires on every attempt eventually
// surfaces as an error. In WorldBuilder mode a recovery returns
// ErrRestarted instead of re-advancing — the caller replays its own
// schedule from Step()==0 (see ErrRestarted).
func (s *Supervisor) Run(n int) error {
	return s.RunContext(context.Background(), n)
}

// RunContext is Run with cooperative cancellation: the context is
// checked before each run attempt and between recovery attempts (the
// backoff sleep wakes early on cancellation), so a cancelled caller —
// a job cancel or a daemon drain — stops paying for rebuilds instead
// of riding out the whole retry budget. A healthy attempt itself is
// not preempted: cancellation lands at the next attempt boundary, which
// keeps the engine in a coherent, checkpointable state. Returns the
// context's error (errors.Is context.Canceled / DeadlineExceeded) when
// cancellation won.
func (s *Supervisor) RunContext(ctx context.Context, n int) error {
	if s.eng == nil {
		return errors.New("harness: supervisor not started")
	}
	target := s.eng.Step() + int64(n)
	for {
		remaining := target - s.eng.Step()
		if remaining <= 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		err := s.runOnce(int(remaining))
		if err == nil {
			return nil
		}
		if rerr := s.recoverFrom(ctx, err); rerr != nil {
			return rerr
		}
	}
}

// Thermo computes the global thermodynamic state under the same
// recovery envelope as Run. On an in-process world the collective
// cannot fail between Run calls, but on a spanning world a peer
// process can abort at any wall-clock moment — including mid-Thermo —
// and that failure recovers here: rebuild, re-advance to the step the
// run had reached, retry. Collective: every process of a spanning
// world must call it at the same point.
func (s *Supervisor) Thermo() (core.Thermo, error) {
	if s.eng == nil {
		return core.Thermo{}, errors.New("harness: supervisor not started")
	}
	for {
		target := s.eng.Step()
		th, err := s.eng.ThermoErr()
		if err == nil {
			return th, nil
		}
		if rerr := s.recoverFrom(context.Background(), err); rerr != nil {
			return core.Thermo{}, rerr
		}
		if n := target - s.eng.Step(); n > 0 {
			if rerr := s.Run(int(n)); rerr != nil {
				return core.Thermo{}, rerr
			}
		}
	}
}

// recoverFrom converts one failed attempt into a rebuilt engine, or
// returns the terminal error when the failure is not a rank error, the
// retry budget is spent, or the context was cancelled (rebuilding a
// world nobody will run is wasted rendezvous and sockets).
func (s *Supervisor) recoverFrom(ctx context.Context, err error) error {
	var re *mpi.RankError
	if !errors.As(err, &re) {
		if p := s.dumpFlight(s.FlightPath); p != "" {
			return fmt.Errorf("harness: %w (flight dump: %s)", err, p)
		}
		return err
	}
	if s.attempts >= s.Retries {
		if p := s.dumpFlight(s.FlightPath); p != "" {
			return fmt.Errorf("harness: retry budget (%d) exhausted (flight dump: %s): %w",
				s.Retries, p, err)
		}
		return fmt.Errorf("harness: retry budget (%d) exhausted: %w", s.Retries, err)
	}
	s.attempts++
	s.recordRecovery(re)

	backoff := s.Backoff
	if backoff == 0 {
		backoff = 50 * time.Millisecond
	}
	// Full jitter: co-scheduled supervised runs sharing a failure
	// cause should not retry in lockstep. Trajectory bits are
	// unaffected — restarts are bit-exact regardless of when they run.
	backoff += time.Duration(rand.Int63n(int64(backoff) + 1))
	t := time.NewTimer(backoff)
	select {
	case <-ctx.Done():
		// The dead engine is closed but left in place (Close is
		// idempotent), so Step()/Engine() stay readable for the caller's
		// post-mortem.
		t.Stop()
		s.eng.Close()
		return ctx.Err()
	case <-t.C:
	}

	s.eng.Close()
	if rerr := s.build(); rerr != nil {
		return fmt.Errorf("harness: rebuilding after %v: %w", re, rerr)
	}
	if s.WorldBuilder != nil && s.lastRestore < 0 {
		// Rebuilt from scratch on a fresh world: the caller replays; see
		// ErrRestarted. Re-advancing here would desynchronize the
		// processes' collective schedules: each would replay from its own
		// interruption point instead of the shared one. A sharded restore
		// returns nil instead — every process resumed the same generation,
		// so the interrupted calls' own re-advances stay aligned.
		return ErrRestarted
	}
	return nil
}

// runOnce advances the current engine n steps with a hang watchdog
// armed for the duration of the attempt (heartbeats legitimately pause
// across rebuilds, so each attempt gets a fresh watchdog baseline).
func (s *Supervisor) runOnce(n int) error {
	if s.HangTimeout > 0 {
		wd := &health.Watchdog{
			Mon:      s.monitor,
			Deadline: s.HangTimeout,
			World:    s.eng.World,
			Metrics:  s.Metrics,
		}
		wd.Start()
		defer wd.Stop()
	}
	return s.eng.Run(n)
}

// recordRecovery publishes one recovery event to the metrics registry,
// the failed rank's span timeline, and the JSONL data log.
func (s *Supervisor) recordRecovery(re *mpi.RankError) {
	if s.Metrics != nil {
		s.Metrics.Counter("recover.attempts").Inc()
		s.Metrics.Counter(obs.RankMetric("recover.rank_errors", re.Rank)).Inc()
	}
	s.Tracer.Rank(re.Rank).Span(obs.CatStep, "recover", time.Now(), 0)
	payload := map[string]any{
		"rank":    re.Rank,
		"attempt": s.attempts,
		"cause":   fmt.Sprint(re.Cause),
	}
	if s.eng != nil {
		// Which fabric failed matters for the post-mortem: the transport
		// kind and the TCP world's rendezvous identity tie this recovery
		// to the peers' logs of the same incident (the follow-up
		// checkpoint-restore event carries the replacement world's id and
		// the generation chosen).
		payload["transport"] = s.eng.World.Transport()
		payload["world_id"] = fmt.Sprintf("%016x", s.eng.World.ID())
	}
	if s.flight != nil {
		// Attach the flight-recorder tail: each recovery gets its own dump
		// file (the final failure reuses the bare FlightPath), plus the
		// where-was-everyone summary inline in the log entry.
		payload["last_steps"] = s.flight.LastSteps()
		if p := s.dumpFlight(fmt.Sprintf("%s.attempt%d", s.FlightPath, s.attempts)); p != "" {
			payload["flight_dump"] = p
		}
	}
	var he *health.HangError
	if errors.As(re, &he) {
		// Hang recoveries carry the watchdog's diagnosis: which ranks
		// went silent and what primitive each rank was parked in.
		payload["hang"] = true
		payload["hang_deadline"] = he.Deadline.String()
		parked := map[string]string{}
		for _, rs := range he.Ranks {
			if rs.Parked != "" {
				parked[strconv.Itoa(rs.Rank)] = rs.Parked
			}
		}
		payload["parked"] = parked
	}
	s.Trace.Log("recovery", payload)
}

// Attempts returns how many recoveries have been performed.
func (s *Supervisor) Attempts() int { return s.attempts }

// LastRestore returns the step the most recent build (first start or
// recovery) restored from, or -1 when it built from scratch.
func (s *Supervisor) LastRestore() int64 { return s.lastRestore }

// DumpFlight writes the flight recorder's tail to FlightPath outside a
// failure — mdrun's interrupted exit — and returns the path ("" when the
// recorder is off or the write failed).
func (s *Supervisor) DumpFlight() string { return s.dumpFlight(s.FlightPath) }

// dumpFlight writes the flight recorder's retained records to path,
// returning the path on success and "" when there is nothing to dump or
// the write failed (a post-mortem artifact must never mask the primary
// error; failures are logged instead).
func (s *Supervisor) dumpFlight(path string) string {
	if s.flight == nil || path == "" {
		return ""
	}
	fh, err := os.Create(path)
	if err == nil {
		err = s.flight.WriteJSONL(fh)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.Trace.Log("flight-dump", map[string]any{"path": path, "error": err.Error()})
		return ""
	}
	s.Trace.Log("flight-dump", map[string]any{"path": path, "last_steps": s.flight.LastSteps()})
	return path
}
