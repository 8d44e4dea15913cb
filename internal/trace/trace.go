// Package trace is the data log of the characterization framework (the
// "Data Log" stage of the paper's Figure 2): structured JSONL records of
// engine runs and campaign events, so experiment campaigns leave an
// auditable, machine-readable trail alongside the rendered tables.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Record is one logged event. Kind names the schema of Payload:
// "measurement" (harness.Runner), "cell" (mdbench -grid), "run" (mdrun),
// or the harness.Supervisor's "checkpoint-verify", "checkpoint-restore",
// "recovery" and "flight-dump".
type Record[P any] struct {
	Seq     int64  `json:"seq"`
	Kind    string `json:"kind"`
	Payload P      `json:"payload"`
}

// Logger appends JSONL records to a writer; safe for concurrent use.
type Logger struct {
	mu  sync.Mutex
	enc *json.Encoder
	seq int64
	err error
}

// New returns a Logger writing to w, or nil if w is nil (callers may
// invoke methods on a nil Logger; they become no-ops).
func New(w io.Writer) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{enc: json.NewEncoder(w)}
}

// Log appends one record.
func (l *Logger) Log(kind string, payload any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	// Encoding errors never fail an experiment (the data log is an
	// auxiliary artifact), but the first one is retained so campaigns can
	// warn about an incomplete log at the end (see Err).
	if err := l.enc.Encode(Record[any]{Seq: l.seq, Kind: kind, Payload: payload}); err != nil && l.err == nil {
		l.err = err
	}
}

// Err returns the first encoding error encountered, or nil (also on a
// nil Logger).
func (l *Logger) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Read parses a JSONL stream back into records; a malformed one is an
// error naming its place in the stream, which is its seq in a log that
// one Logger wrote.
func Read[P any](r io.Reader) ([]Record[P], error) {
	dec := json.NewDecoder(r)
	var out []Record[P]
	for {
		var rec Record[P]
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("trace: record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}
