package trace_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"gomd/internal/trace"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := trace.New(&buf)
	type counters struct {
		Workload string  `json:"workload"`
		Ranks    int     `json:"ranks"`
		PerRank  []int64 `json:"per_rank"`
	}
	l.Log("measurement", counters{Workload: "lj", Ranks: 2, PerRank: []int64{7, 9}})
	l.Log("cell", map[string]any{"label": "lj/32k/r2", "ts_per_s": 123.4})

	recs, err := trace.Read[map[string]any](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records %d", len(recs))
	}
	if recs[0].Kind != "measurement" || recs[0].Seq != 1 || recs[0].Payload["workload"] != "lj" {
		t.Errorf("rec0 %+v", recs[0])
	}
	if recs[1].Seq != 2 || recs[1].Payload["ts_per_s"].(float64) != 123.4 {
		t.Errorf("cell payload %+v", recs[1].Payload)
	}
	// A struct payload reads back as the struct it was logged as.
	typed, err := trace.Read[counters](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := typed[0].Payload; got.Workload != "lj" || got.Ranks != 2 || len(got.PerRank) != 2 || got.PerRank[1] != 9 {
		t.Errorf("typed payload %+v", got)
	}
}

func TestNilLoggerIsNoop(t *testing.T) {
	var l *trace.Logger
	l.Log("x", nil) // must not panic
	if l.Err() != nil {
		t.Error("a nil Logger reports an error")
	}
}

func TestConcurrentLogging(t *testing.T) {
	var buf bytes.Buffer
	l := trace.New(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Log("note", map[string]any{"j": j})
			}
		}()
	}
	wg.Wait()
	recs, err := trace.Read[map[string]any](&buf)
	if err != nil {
		t.Fatalf("interleaved writes corrupted the stream: %v", err)
	}
	if len(recs) != 800 {
		t.Errorf("records %d", len(recs))
	}
	// Sequence numbers unique.
	seen := map[int64]bool{}
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := trace.Read[any](strings.NewReader("{bad json")); err == nil {
		t.Error("garbage accepted")
	}
	good := `{"seq":4,"kind":"cell","payload":{}}` + "\n"
	_, err := trace.Read[any](strings.NewReader(good + "{bad json"))
	if err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("a malformed second record: err = %v, want it named", err)
	}
}
