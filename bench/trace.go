package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the engine are a later issue). Parent is the
// index of the span that caused it, -1 for a root.
type span struct {
	Name     string
	Workload string
	Lane     int // rank, client or job lane; one timeline row each
	Parent   int
	Start    time.Duration // since the recorder's origin
	End      time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced pass: every method is a no-op, so call sites need no
// branches and the untraced pass pays one nil check per call.
type recorder struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{origin: time.Now(), workload: workload}
}

// begin opens a span and returns its index (-1 when untraced).
func (r *recorder) begin(name string, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Workload: r.workload,
		Lane: lane, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose ends were measured by the caller (the serve
// clients stamp milestones first and file the spans afterwards).
func (r *recorder) add(name string, parent, lane int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Workload: r.workload,
		Lane: lane, Parent: parent, Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return len(r.spans) - 1
}

// do runs fn inside a span.
func (r *recorder) do(name string, parent, lane int, fn func()) {
	id := r.begin(name, parent, lane)
	fn()
	r.end(id)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanTotals is one row of the per-name summary: total time inside
// spans of that name and their self time — the duration minus the part
// of the interval their child spans cover.
type spanTotals struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

func summarizeSpans(spans []span) []spanTotals {
	childCover := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			childCover[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanTotals{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		d := s.End - s.Start
		t.Count++
		t.Total += d
		if self := d - childCover[i]; self > 0 {
			t.Self += self
		}
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

func printSpanSummary(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-22s %7s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, t := range summarizeSpans(spans) {
		fmt.Fprintf(w, "  %-22s %7d %12.2f %12.2f\n", t.Name, t.Count,
			t.Total.Seconds()*1e3, t.Self.Seconds()*1e3)
	}
}

// chromeEvent is one Chrome trace-event "complete" record; load the
// file in chrome://tracing or ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes every workload's spans as one trace: pid is
// the workload's position in the pass, tid the lane, and args carry the
// span's own index and its parent's so causality survives the export.
func writeChromeTrace(path string, perWorkload [][]span) error {
	var events []chromeEvent
	for pid, spans := range perWorkload {
		for i, s := range spans {
			if s.End < 0 {
				continue
			}
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Workload, Ph: "X",
				Ts:  float64(s.Start) / 1e3,
				Dur: float64(s.End-s.Start) / 1e3,
				Pid: pid, Tid: s.Lane,
				Args: map[string]any{"id": i, "parent": s.Parent, "workload": s.Workload},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
