package serve

import (
	"cmp"
	"errors"
	"fmt"
	"strings"
	"sync"

	"gomd/internal/harness"
	"gomd/internal/script"
)

// JobSpec is one submitted simulation. Exactly one of Workload or
// Script must be set: workload jobs run decomposed under a Supervisor
// (checkpointed, crash-resumable), script jobs run the LAMMPS-style
// interpreter serially (validated at admission, restarted from scratch
// if the daemon dies mid-run — the interpreter has no checkpoint
// surface).
type JobSpec struct {
	Tenant string `json:"tenant,omitempty"`
	Name   string `json:"name,omitempty"`

	// Workload jobs.
	Workload        string `json:"workload,omitempty"`
	Atoms           int    `json:"atoms,omitempty"`
	Steps           int    `json:"steps,omitempty"`
	Ranks           int    `json:"ranks,omitempty"`
	Workers         int    `json:"workers,omitempty"`
	Seed            uint64 `json:"seed,omitempty"`
	ThermoEvery     int    `json:"thermo_every,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	KeepCheckpoints int    `json:"keep_checkpoints,omitempty"`
	Retries         int    `json:"retries,omitempty"`
	Precision       string `json:"precision,omitempty"`
	// Fault is a deterministic fault-injection plan (internal/fault
	// syntax) scoped to this job — the drill hook the kill-daemon and
	// recovery tests use.
	Fault string `json:"fault,omitempty"`

	// Script jobs.
	Script string `json:"script,omitempty"`
}

// Slots is the job's admission cost against the server's shared slot
// budget: ranks x workers for a workload job (every rank is a
// goroutine, every worker a pool thread), 1 for a serial script job.
func (s *JobSpec) Slots() int {
	if s.Script != "" {
		return 1
	}
	return max(s.Ranks, 1) * max(s.Workers, 1)
}

// normalize fills defaults and validates the spec, returning an error
// that maps to a 400 (the job could never run, no point queueing it).
// A zero field takes its default; a workload job is then held to
// harness.RunSpec's rule, so a negative count is refused, not replaced.
func (s *JobSpec) normalize() error {
	if (s.Workload == "") == (s.Script == "") {
		return errors.New("exactly one of workload or script must be set")
	}
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Script != "" {
		if err := script.Validate(strings.NewReader(s.Script)); err != nil {
			return fmt.Errorf("script: %v", err)
		}
		return nil
	}
	s.Ranks = cmp.Or(s.Ranks, 1)
	s.Workers = cmp.Or(s.Workers, 1)
	s.Atoms = cmp.Or(s.Atoms, 4000)
	s.Seed = cmp.Or(s.Seed, 42)
	s.ThermoEvery = cmp.Or(s.ThermoEvery, 10)
	s.KeepCheckpoints = cmp.Or(s.KeepCheckpoints, 2)
	return s.runSpec().Validate()
}

// runSpec is the run recipe a workload job pins down; every resume
// rebuilds from the identical recipe.
func (s *JobSpec) runSpec() harness.RunSpec {
	return harness.RunSpec{
		Workload:        s.Workload,
		Atoms:           s.Atoms,
		Steps:           s.Steps,
		Ranks:           s.Ranks,
		Workers:         s.Workers,
		Seed:            s.Seed,
		Precision:       s.Precision,
		Thermo:          s.ThermoEvery,
		CheckpointEvery: s.CheckpointEvery,
		KeepCheckpoints: s.KeepCheckpoints,
		Retries:         s.Retries,
		Fault:           s.Fault,
	}
}

// Frame is one thermo sample streamed over SSE and persisted to the
// job's frames file.
type Frame struct {
	Step int64   `json:"step"`
	Temp float64 `json:"temp"`
	Prs  float64 `json:"press"`
	PE   float64 `json:"pe"`
	KE   float64 `json:"ke"`
	Etot float64 `json:"etot"`
}

// Result is a finished job's summary, journaled with the terminal
// transition so it survives the daemon.
type Result struct {
	Steps      int64  `json:"steps"`
	Recoveries int    `json:"recoveries"`
	WallMillis int64  `json:"wall_ms"`
	Final      *Frame `json:"final,omitempty"`
	Output     string `json:"output,omitempty"` // script jobs: interpreter output
}

// Event is one SSE event: Name is the SSE event type (thermo, log,
// state, done), Data its JSON payload.
type Event struct {
	Name string
	Data string
}

// hub fans a job's event stream out to SSE subscribers. History is
// retained so a late subscriber replays the stream from the start; a
// slow subscriber that fills its buffer drops live events (it still
// holds the history it got at subscribe time — SSE is a monitoring
// surface, the durable record is the frames file and the journal).
type hub struct {
	mu      sync.Mutex
	history []Event
	subs    map[chan Event]struct{}
	closed  bool
}

func newHub() *hub {
	return &hub{subs: map[chan Event]struct{}{}}
}

// publish appends to history and offers the event to every subscriber.
func (h *hub) publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.history = append(h.history, ev)
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// close ends the stream: subscribers' channels are closed after the
// history they already hold.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}

// subscribe returns the history so far plus a live channel (nil when
// the stream already ended — the history is complete).
func (h *hub) subscribe() ([]Event, chan Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist := append([]Event(nil), h.history...)
	if h.closed {
		return hist, nil
	}
	ch := make(chan Event, 256)
	h.subs[ch] = struct{}{}
	return hist, ch
}

// unsubscribe detaches a live channel.
func (h *hub) unsubscribe(ch chan Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
}
