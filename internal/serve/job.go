package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"gomd/internal/atom"
	"gomd/internal/fault"
	"gomd/internal/pair"
	"gomd/internal/script"
	"gomd/internal/workload"
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
	r, w := s.Ranks, s.Workers
	if r < 1 {
		r = 1
	}
	if w < 1 {
		w = 1
	}
	return r * w
}

// normalize fills defaults and validates the spec, returning an error
// that maps to a 400 (the job could never run, no point queueing it).
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
	if _, err := workload.Parse(s.Workload); err != nil {
		return err
	}
	if s.Steps <= 0 {
		return errors.New("steps must be > 0")
	}
	if s.Ranks < 1 {
		s.Ranks = 1
	}
	if s.Workers < 1 {
		s.Workers = 1
	}
	if s.Atoms < 0 || s.Atoms > atom.MaxAtoms {
		return fmt.Errorf("atoms must be in 0..%d (0: the default)", atom.MaxAtoms)
	}
	if s.Atoms == 0 {
		s.Atoms = 4000
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.ThermoEvery <= 0 {
		s.ThermoEvery = 10
	}
	if s.CheckpointEvery < 0 {
		return errors.New("checkpoint_every must be >= 0")
	}
	if s.KeepCheckpoints < 1 {
		s.KeepCheckpoints = 2
	}
	if _, err := pair.ParsePrecision(s.Precision); err != nil && s.Precision != "" {
		return err
	}
	if s.Fault != "" {
		if _, err := fault.Parse(s.Fault, s.Seed); err != nil {
			return err
		}
	}
	return nil
}

// options is the workload build recipe the spec pins down; every
// resume rebuilds from the identical recipe, which is what makes a
// restored run bit-identical to an uninterrupted one.
func (s *JobSpec) options() workload.Options {
	prec, err := pair.ParsePrecision(s.Precision)
	if err != nil {
		prec = pair.Double // "": normalize rejected every other unknown name
	}
	return workload.Options{
		Atoms:       s.Atoms,
		Precision:   prec,
		Seed:        s.Seed,
		ThermoEvery: s.ThermoEvery,
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
