package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gomd/internal/core"
	"gomd/internal/fault"
	"gomd/internal/harness"
	"gomd/internal/obs"
	"gomd/internal/script"
)

// errHardKill marks a job loop ended by the kill-daemon drill: the
// "daemon" is dead, so nothing downstream may touch the journal.
var errHardKill = errors.New("serve: daemon hard-killed")

// errDrained marks a job loop ended by a graceful drain after reaching
// a checkpoint boundary: the job stays "running" in the journal so the
// next daemon resumes it.
var errDrained = errors.New("serve: drained at checkpoint boundary")

// Server is the simulation service: a durable queue (Journal), an
// admission-controlled scheduler, and the run loops for both job
// kinds. Configure the exported fields, then call Start (which replays
// the journal and begins dispatching); mount Handler on an HTTP
// server for the API.
type Server struct {
	// DataDir holds the journal, per-job checkpoint generations, and
	// per-job frames files. Created if missing.
	DataDir string
	// Limits is the admission/quota policy (zero = unlimited).
	Limits Limits
	// Metrics, when set, receives serve.* counters and gauges and is
	// exposed at /metrics by Handler.
	Metrics *obs.Registry
	// Fault, when set, arms daemon-level drills: kill-daemon (hard
	// process death at a job step) and tear-journal (journal tail damage
	// after an append). Per-job fault plans ride in JobSpec.Fault.
	Fault *fault.Injector
	// OnDaemonKill, when set, runs when a kill-daemon fault fires —
	// cmd/mdserve installs os.Exit here so the drill kills the real
	// process. Tests leave it nil: the server then emulates the crash
	// in-process (every job loop halts with no journal transition, and
	// Killed() closes).
	OnDaemonKill func()

	mu        sync.Mutex
	jr        *Journal
	jobs      map[string]*Job
	order     []*Job
	nextID    int64
	usedSlots int
	draining  bool
	wg        sync.WaitGroup
	hardCtx   context.Context
	hardStop  context.CancelFunc
	killed    chan struct{}
}

// Job is one admitted job. All mutable fields are guarded by the
// server's lock — scheduling granularity is a thermo chunk, so the
// lock is uncontended in practice.
type Job struct {
	ID   string
	Spec JobSpec

	state      State
	detail     string
	step       int64
	recoveries int
	result     *Result
	cancelled  bool
	stop       context.CancelFunc
	hub        *hub
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID         string `json:"id"`
	Tenant     string `json:"tenant"`
	Name       string `json:"name,omitempty"`
	State      State  `json:"state"`
	Detail     string `json:"detail,omitempty"`
	Step       int64  `json:"step"`
	Steps      int    `json:"steps,omitempty"`
	Slots      int    `json:"slots"`
	Recoveries int    `json:"recoveries,omitempty"`
}

// Start opens (creating if needed) the data directory and journal,
// replays prior state — terminal jobs keep their results, queued jobs
// re-enter the queue, jobs that were running when the last daemon died
// are requeued (they resume from their newest valid checkpoint
// generation when they reach the front) — and begins dispatching.
func (s *Server) Start() error {
	if err := os.MkdirAll(s.DataDir, 0o755); err != nil {
		return fmt.Errorf("serve: data dir %s: %w", s.DataDir, err)
	}
	jr, replayed, err := OpenJournal(filepath.Join(s.DataDir, "serve.journal"))
	if err != nil {
		return err
	}
	if s.Fault != nil {
		jr.SetCorruptor(s.Fault.CorruptJournal)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jr = jr
	s.jobs = map[string]*Job{}
	s.killed = make(chan struct{})
	s.hardCtx, s.hardStop = context.WithCancel(context.Background())
	for _, js := range replayed {
		job := &Job{ID: js.ID, Spec: js.Spec, state: js.State,
			detail: js.Detail, step: js.Step, result: js.Result, hub: newHub()}
		if n, perr := strconv.ParseInt(strings.TrimPrefix(js.ID, "j-"), 10, 64); perr == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		if js.State == StateRunning {
			// The last daemon died with this job in flight; requeue it. The
			// checkpoint store under DataDir still holds its generations, so
			// the run loop resumes instead of restarting where it can.
			if err := jr.Append(js.ID, StateQueued, nil, "requeued after daemon restart", js.Step, nil); err != nil {
				return err
			}
			job.state = StateQueued
			job.detail = "requeued after daemon restart"
			s.count("serve.requeued")
		}
		if job.state.Terminal() {
			job.hub.close()
		}
		s.jobs[js.ID] = job
		s.order = append(s.order, job)
	}
	s.dispatch()
	return nil
}

// Submit admits one job: validation errors and structurally impossible
// jobs come back as 400 rejections, capacity refusals as 429, a
// draining server as 503. An accepted job is journaled (fsync'd)
// before its ID is returned — an acknowledged submission survives a
// crash.
func (s *Server) Submit(spec JobSpec) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.count("serve.rejected")
		return "", &rejection{Code: 503, Reason: "server is draining"}
	}
	if err := spec.normalize(); err != nil {
		s.count("serve.rejected")
		return "", &rejection{Code: 400, Reason: err.Error()}
	}
	pending, tenantPending := 0, 0
	for _, j := range s.jobs {
		if j.state.Terminal() {
			continue
		}
		pending++
		if j.Spec.Tenant == spec.Tenant {
			tenantPending++
		}
	}
	if rej := s.Limits.admit(&spec, pending, tenantPending); rej != nil {
		s.count("serve.rejected")
		return "", rej
	}
	id := fmt.Sprintf("j-%d", s.nextID)
	s.nextID++
	if err := s.jr.Append(id, StateQueued, &spec, "", 0, nil); err != nil {
		return "", err
	}
	job := &Job{ID: id, Spec: spec, state: StateQueued, hub: newHub()}
	s.jobs[id] = job
	s.order = append(s.order, job)
	s.count("serve.submitted")
	s.dispatch()
	return id, nil
}

// Cancel cancels a job: a queued job transitions immediately, a
// running one is interrupted at its next chunk boundary. Terminal jobs
// return an error (nothing to cancel).
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return &rejection{Code: 404, Reason: "no such job"}
	}
	switch job.state {
	case StateQueued:
		if err := s.jr.Append(id, StateCancelled, nil, "cancelled while queued", job.step, nil); err != nil {
			return err
		}
		job.state = StateCancelled
		job.detail = "cancelled while queued"
		s.finishHub(job)
		s.count("serve.cancelled")
		return nil
	case StateRunning:
		job.cancelled = true
		job.stop()
		return nil
	default:
		return &rejection{Code: 409, Reason: fmt.Sprintf("job is %s", job.state)}
	}
}

// Drain performs the graceful-shutdown protocol: stop admitting (503),
// interrupt every running job (each runs on to its next checkpoint
// boundary so a fresh checkpoint generation is on disk, then parks as
// "running" in the journal for the next daemon to resume), and wait up
// to timeout for the loops to finish. Queued jobs simply stay queued.
// The journal stays open — Close flushes and closes it.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	if s.Metrics != nil {
		s.Metrics.Gauge("serve.draining").Set(1)
	}
	var stops []context.CancelFunc
	for _, job := range s.order {
		if job.state == StateRunning {
			job.hub.publish(Event{Name: "drain", Data: `{"draining":true}`})
			stops = append(stops, job.stop)
		}
	}
	s.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("serve: drain timed out after %s", timeout)
	}
}

// Close flushes and closes the journal. Call after Drain (or after
// Killed() and Wait() in crash drills).
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jr.Close()
}

// Wait blocks until every job loop has returned. Used by tests and the
// crash drill; Drain already waits with a deadline.
func (s *Server) Wait() { s.wg.Wait() }

// Killed returns a channel closed when a kill-daemon drill fires —
// the in-process observer tests use to know the "crash" happened.
func (s *Server) Killed() <-chan struct{} { return s.killed }

// Draining reports whether the drain protocol has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Status returns the API view of one job.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(job), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, job := range s.order {
		out = append(out, s.statusLocked(job))
	}
	return out
}

// Result returns a job's result when it has one (done jobs always do;
// failed/cancelled return state with a nil result).
func (s *Server) Result(id string) (*Result, State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, "", false
	}
	return job.result, job.state, true
}

// Events subscribes to a job's SSE stream: the history so far plus a
// live channel (nil when the stream has ended).
func (s *Server) Events(id string) ([]Event, chan Event, bool) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	hist, ch := job.hub.subscribe()
	return hist, ch, true
}

// Unsubscribe detaches an Events channel.
func (s *Server) Unsubscribe(id string, ch chan Event) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if ok && ch != nil {
		job.hub.unsubscribe(ch)
	}
}

func (s *Server) statusLocked(job *Job) JobStatus {
	return JobStatus{
		ID: job.ID, Tenant: job.Spec.Tenant, Name: job.Spec.Name,
		State: job.state, Detail: job.detail, Step: job.step,
		Steps: job.Spec.Steps, Slots: job.Spec.Slots(),
		Recoveries: job.recoveries,
	}
}

// count bumps a serve.* counter (nil-safe).
func (s *Server) count(name string) {
	if s.Metrics != nil {
		s.Metrics.Counter(name).Inc()
	}
}

// publishGauges refreshes the queue/slot gauges. Caller holds s.mu.
func (s *Server) publishGauges() {
	if s.Metrics == nil {
		return
	}
	queued, running := 0, 0
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	s.Metrics.Gauge("serve.queue_depth").Set(float64(queued))
	s.Metrics.Gauge("serve.running").Set(float64(running))
	s.Metrics.Gauge("serve.slots_used").Set(float64(s.usedSlots))
}

// dispatch starts every queued job that fits the slot budget and its
// tenant's quota, in submission order (FIFO with backfill: a large job
// at the head does not starve a small one behind it, but order is
// otherwise preserved). Caller holds s.mu.
func (s *Server) dispatch() {
	defer s.publishGauges()
	if s.draining || s.hardCtx.Err() != nil {
		return
	}
	tenantSlots := map[string]int{}
	for _, job := range s.order {
		if job.state == StateRunning {
			tenantSlots[job.Spec.Tenant] += job.Spec.Slots()
		}
	}
	for _, job := range s.order {
		if job.state != StateQueued {
			continue
		}
		if !s.Limits.fits(&job.Spec, s.usedSlots, tenantSlots[job.Spec.Tenant]) {
			continue
		}
		if err := s.jr.Append(job.ID, StateRunning, nil, "", job.step, nil); err != nil {
			// The WAL is the durability contract: a job whose start cannot
			// be journaled must not run invisibly. Leave it queued; the next
			// dispatch retries.
			job.detail = fmt.Sprintf("start deferred: %v", err)
			continue
		}
		job.state = StateRunning
		job.detail = ""
		job.cancelled = false
		ctx, stop := context.WithCancel(s.hardCtx)
		job.stop = stop
		s.usedSlots += job.Spec.Slots()
		tenantSlots[job.Spec.Tenant] += job.Spec.Slots()
		s.wg.Add(1)
		go s.runJob(job, ctx)
	}
}

// runJob runs one job to an outcome and journals the transition. The
// hard-kill path journals nothing: the drill models a daemon that
// died, and the whole point is that the journal already on disk is
// enough to recover.
func (s *Server) runJob(job *Job, ctx context.Context) {
	defer s.wg.Done()
	var res *Result
	var err error
	if job.Spec.Script != "" {
		res, err = s.runScript(job, ctx)
	} else {
		res, err = s.runWorkload(job, ctx)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.usedSlots -= job.Spec.Slots()
	switch {
	case errors.Is(err, errHardKill) || (s.hardCtx.Err() != nil && !s.draining):
		// Daemon "crashed": no journal transition, no events. The job is
		// still "running" on disk; the next daemon requeues and resumes it.
		return
	case err == nil:
		if jerr := s.jr.Append(job.ID, StateDone, nil, "", res.Steps, res); jerr != nil {
			err = jerr
			break
		}
		job.state = StateDone
		job.step = res.Steps
		job.result = res
		s.finishHub(job)
		s.count("serve.done")
	case job.cancelled && ctx.Err() != nil:
		if jerr := s.jr.Append(job.ID, StateCancelled, nil, "cancelled", job.step, nil); jerr == nil {
			job.state = StateCancelled
			job.detail = "cancelled"
			s.finishHub(job)
			s.count("serve.cancelled")
		}
	case errors.Is(err, errDrained) || (s.draining && ctx.Err() != nil):
		// Graceful drain: the loop already ran to a checkpoint boundary
		// (or the job kind has nothing to checkpoint). Journal state stays
		// "running" so the next daemon resumes it.
		job.detail = fmt.Sprintf("parked by drain at step %d", job.step)
	}
	if err != nil && job.state == StateRunning && !s.draining {
		if jerr := s.jr.Append(job.ID, StateFailed, nil, err.Error(), job.step, nil); jerr == nil {
			job.state = StateFailed
			job.detail = err.Error()
			s.finishHub(job)
			s.count("serve.failed")
		}
	}
	s.dispatch()
}

// finishHub publishes the terminal "done" event (carrying the final
// status) and closes the job's stream. Caller holds s.mu.
func (s *Server) finishHub(job *Job) {
	data, _ := json.Marshal(s.statusLocked(job))
	job.hub.publish(Event{Name: "done", Data: string(data)})
	job.hub.close()
}

// ckptPath/framesPath are the job's durable artifacts under DataDir;
// filesDir is the directory a script job's own files are confined to.
func (s *Server) ckptPath(job *Job) string {
	return filepath.Join(s.DataDir, job.ID+".ckpt")
}
func (s *Server) framesPath(job *Job) string {
	return filepath.Join(s.DataDir, job.ID+".frames.jsonl")
}
func (s *Server) filesDir(job *Job) string {
	return filepath.Join(s.DataDir, job.ID+".files")
}

// runWorkload runs a workload job under a Supervisor: checkpointed,
// recovery-supervised, resumable. harness.Drive aligns the chunks to
// the absolute thermo grid, so frames land on the same steps whether
// the run was interrupted or not, and every frame is appended to the
// job's frames file — across daemon lifetimes the file accumulates
// the complete trajectory, deduped by step.
func (s *Server) runWorkload(job *Job, ctx context.Context) (*Result, error) {
	spec := job.Spec
	rs := spec.runSpec()
	// Journals written before negative retries were refused at admission
	// may hold one; it always meant no recovery.
	rs.Retries = max(rs.Retries, 0)
	sup, err := rs.Supervisor()
	if err != nil {
		return nil, err
	}
	sup.CheckpointPath = s.ckptPath(job)
	// A requeued job resumes: with checkpointing on, Start restores its
	// newest generation that verifies. The restored run keeps the
	// checkpoint cadence (and so the neighbor-rebuild schedule) of the
	// uninterrupted one, which is what makes the resumed trajectory
	// bit-identical.
	if err := sup.Start(); err != nil {
		return nil, err
	}
	defer sup.Close()
	if step := sup.LastRestore(); step >= 0 {
		s.mu.Lock()
		job.detail = fmt.Sprintf("resumed from checkpoint at step %d", step)
		s.mu.Unlock()
	}

	// Reload frames persisted by previous daemon lifetimes: they seed
	// the SSE history and tell the loop which steps are already durable.
	frames := loadFrames(s.framesPath(job))
	var lastFrame int64 = -1
	for _, fr := range frames {
		data, _ := json.Marshal(fr)
		job.hub.publish(Event{Name: "thermo", Data: string(data)})
		if fr.Step > lastFrame {
			lastFrame = fr.Step
		}
	}
	ff, err := os.OpenFile(s.framesPath(job), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer ff.Close()

	start := time.Now()
	var final *Frame
	if len(frames) > 0 {
		f := frames[len(frames)-1]
		final = &f
	}
	// The job context is the stop request, the daemon's hard context the
	// kill: a drain runs on to the next checkpoint boundary so a fresh
	// generation is durable before the daemon exits.
	stopped, err := sup.Drive(ctx, s.hardCtx, harness.Drive{
		Target: int64(spec.Steps),
		Every:  spec.ThermoEvery,
		Boundary: func(step int64, recoveries int) error {
			s.mu.Lock()
			job.step, job.recoveries = step, recoveries
			cancelled := job.cancelled
			s.mu.Unlock()
			if s.Fault.KillDaemonAt(step) {
				s.daemonKill()
				return errHardKill
			}
			if cancelled && ctx.Err() != nil {
				return ctx.Err() // a cancel stops here; only a drain runs on
			}
			return nil
		},
		Frame: func(th core.Thermo) error {
			if th.Step <= lastFrame {
				return nil // durable since an earlier daemon lifetime
			}
			fr := Frame{Step: th.Step, Temp: th.Temperature, Prs: th.Pressure,
				PE: th.PotEnergy, KE: th.KinEnergy, Etot: th.TotalEnergy}
			line, _ := json.Marshal(fr)
			if _, werr := ff.Write(append(line, '\n')); werr != nil {
				return werr
			}
			job.hub.publish(Event{Name: "thermo", Data: string(line)})
			final = &fr
			return nil
		},
	})
	switch {
	case s.hardCtx.Err() != nil && (err != nil || stopped):
		return nil, errHardKill
	case err != nil:
		return nil, err
	case stopped:
		return nil, errDrained
	}
	return &Result{
		Steps:      sup.Step(),
		Recoveries: sup.Attempts(),
		WallMillis: time.Since(start).Milliseconds(),
		Final:      final,
	}, nil
}

// daemonKill fires the kill-daemon drill: cmd/mdserve's hook exits the
// process (a real crash); in-process the hard context drops every job
// loop with no journal writes and Killed() observers wake.
func (s *Server) daemonKill() {
	if s.OnDaemonKill != nil {
		s.OnDaemonKill()
	}
	s.mu.Lock()
	select {
	case <-s.killed:
	default:
		close(s.killed)
	}
	s.mu.Unlock()
	s.hardStop()
}

// logWriter splits interpreter output into lines published as "log"
// SSE events while accumulating the full transcript. Safe for use
// after the job ended (the hub drops events once closed).
type logWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
	cur bytes.Buffer
	hub *hub
}

func (w *logWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for _, b := range p {
		if b == '\n' {
			data, _ := json.Marshal(w.cur.String())
			w.hub.publish(Event{Name: "log", Data: data2line(data)})
			w.cur.Reset()
			continue
		}
		w.cur.WriteByte(b)
	}
	return len(p), nil
}

// data2line wraps a JSON string into the {"line": ...} payload.
func data2line(data []byte) string { return `{"line":` + string(data) + `}` }

func (w *logWriter) output() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// runScript runs a script job through the LAMMPS-style interpreter.
// The interpreter is serial and has no checkpoint surface: cancellation
// and drain stop it before its next step, and runScript returns
// only once it has stopped, so nothing writes into the job directory
// after the job's slots are freed; a daemon restart re-runs the script
// from scratch. Every file the script names lives in the job's own
// directory: a tenant can neither reach the daemon's files nor collide
// with another job's.
func (s *Server) runScript(job *Job, ctx context.Context) (*Result, error) {
	w := &logWriter{hub: job.hub}
	interp := script.New(w)
	interp.Root = s.filesDir(job)
	if err := os.MkdirAll(interp.Root, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := interp.Run(ctx, strings.NewReader(job.Spec.Script)); err != nil {
		if s.hardCtx.Err() != nil {
			return nil, errHardKill
		}
		return nil, err
	}
	res := &Result{WallMillis: time.Since(start).Milliseconds(), Output: w.output()}
	if sim := interp.Sim(); sim != nil {
		res.Steps = sim.Step
		th := sim.ComputeThermo()
		res.Final = &Frame{Step: th.Step, Temp: th.Temperature, Prs: th.Pressure,
			PE: th.PotEnergy, KE: th.KinEnergy, Etot: th.TotalEnergy}
	}
	return res, nil
}

// loadFrames reads a frames file tolerant of a torn tail (the file is
// append-only with no fsync; a crash can lose or tear the last line —
// the journal and checkpoints carry the durability contract, frames
// are the replayable stream).
func loadFrames(path string) []Frame {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var out []Frame
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			break
		}
		var fr Frame
		if json.Unmarshal(raw[:nl], &fr) != nil {
			break
		}
		out = append(out, fr)
		raw = raw[nl+1:]
	}
	return out
}
