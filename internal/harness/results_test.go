package harness_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gomd/internal/harness"
	"gomd/internal/trace"
	"gomd/internal/workload"
)

// TestResultsRepriced re-renders results/full.txt and full.csv from the
// counters in results/measurements.jsonl, as `mdbench -exp all` renders
// them, without running the engine for any Runner-fed experiment. So
// results/ cannot drift from the model. After a model-only change,
// re-price it with `go test ./internal/harness -run ResultsRepriced
// -update`; after an engine change, re-measure with `make results`.
func TestResultsRepriced(t *testing.T) {
	if raceEnabled {
		t.Skip("table2 and two ablations run their own serial engines, ~3 s without the race detector")
	}
	dir := filepath.Join("..", "..", "results")
	log, err := os.Open(filepath.Join(dir, "measurements.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	r := harness.NewRunner(harness.Options{Workers: 1}) // mdbench's defaults
	if err := r.Load(log); err != nil {
		t.Fatal(err)
	}
	var engineRuns, txt, csv bytes.Buffer
	r.Trace = trace.New(&engineRuns)
	for _, e := range harness.FullRegistry() {
		if err := e.Render(r, harness.CampaignSpec{}, &txt, &csv, false); err != nil {
			t.Fatal(err)
		}
	}
	if engineRuns.Len() > 0 {
		t.Errorf("rendering ran the engine for a key the counters file lacks:\n%.200s", engineRuns.String())
	}
	checkGolden(t, filepath.Join(dir, "full.txt"), txt.Bytes())
	checkGolden(t, filepath.Join(dir, "full.csv"), csv.Bytes())
}

// TestLoadRefuses: a counters record that is malformed, names an unknown
// workload, disagrees with its rank count, has no atoms or steps, or was
// taken at other fidelity options is refused with its seq (a malformed
// one with its place in the log, which is its seq in a log that one
// Logger wrote), and never reaches Measure.
func TestLoadRefuses(t *testing.T) {
	opts := harness.Options{MeasureCap: 500, Steps: 2, Warmup: 1}
	spec := harness.Spec{Workload: workload.LJ, AtomsK: 1, Ranks: 2}
	var log bytes.Buffer
	r := harness.NewRunner(opts)
	r.Trace = trace.New(&log)
	measured, err := r.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Read[map[string]any](bytes.NewReader(log.Bytes()))
	if err != nil || len(recs) != 1 || recs[0].Kind != "measurement" {
		t.Fatalf("one engine run logged %d records (err %v), want one measurement", len(recs), err)
	}

	// The record as logged loads, and prices the spec as the run did.
	loaded := harness.NewRunner(opts)
	if err := loaded.Load(bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	var rerun bytes.Buffer
	loaded.Trace = trace.New(&rerun)
	m, err := loaded.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Len() > 0 || m.CPU().TSps != measured.CPU().TSps {
		t.Errorf("loaded record re-ran the engine (%d bytes logged) or priced %g TS/s, want %g",
			rerun.Len(), m.CPU().TSps, measured.CPU().TSps)
	}

	edit := func(f func(p map[string]any)) string {
		p := map[string]any{}
		for k, v := range recs[0].Payload {
			p[k] = v
		}
		f(p)
		line, err := json.Marshal(trace.Record[any]{Seq: 2, Kind: "measurement", Payload: p})
		if err != nil {
			t.Fatal(err)
		}
		return string(line) + "\n"
	}
	cases := []struct {
		name, log, want string
	}{
		{"malformed JSON", `{"seq":2,"kind":"measurement","payload":{"workload":`, "record 2"},
		{"payload of the wrong shape", edit(func(p map[string]any) { p["per_rank"] = "many" }), "seq 2"},
		{"unknown workload", edit(func(p map[string]any) { p["workload"] = "argon" }), `unknown workload "argon"`},
		{"short per_rank", edit(func(p map[string]any) { p["per_rank"] = p["per_rank"].([]any)[:1] }), "2 ranks with 1 per_rank"},
		{"long mpi", edit(func(p map[string]any) { p["mpi"] = append(p["mpi"].([]any), p["mpi"].([]any)[0]) }), "3 mpi"},
		{"no ranks", edit(func(p map[string]any) { p["ranks"] = 0 }), "0 ranks"},
		{"no atoms", edit(func(p map[string]any) { p["n_measured"] = 0 }), "n_measured 0"},
		{"negative steps", edit(func(p map[string]any) { p["steps"] = -3 }), "steps -3"},
		{"null payload", `{"seq":2,"kind":"measurement","payload":null}` + "\n", "seq 2"},
		{"other steps", edit(func(p map[string]any) {
			p["fidelity"] = map[string]any{"measure_cap": 500, "steps": 3, "warmup": 1, "seed": 2022}
		}), "Steps:3"},
		{"other seed", edit(func(p map[string]any) {
			p["fidelity"] = map[string]any{"measure_cap": 500, "steps": 2, "warmup": 1, "seed": 7}
		}), "Seed:7"},
		{"guardrails on", edit(func(p map[string]any) {
			p["fidelity"] = map[string]any{"measure_cap": 500, "steps": 2, "warmup": 1, "check_every": 2, "seed": 2022}
		}), "CheckEvery:2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := harness.NewRunner(opts)
			// A record of another kind comes first; Load skips it.
			err := r.Load(strings.NewReader(`{"seq":1,"kind":"cell","payload":{"label":"lj"}}` + "\n" + c.log))
			if err == nil || !strings.Contains(err.Error(), c.want) ||
				!strings.Contains(err.Error(), "seq 2") && !strings.Contains(err.Error(), "record 2") {
				t.Fatalf("Load = %v, want an error naming seq 2 and %q", err, c.want)
			}
			// Nothing of a refused log is kept: the spec runs the engine.
			var runs bytes.Buffer
			r.Trace = trace.New(&runs)
			if _, err := r.Measure(spec); err != nil {
				t.Fatal(err)
			}
			if runs.Len() == 0 {
				t.Error("a refused log priced the spec")
			}
		})
	}
	// A record taken at the same fidelity by a runner with another worker
	// width loads: workers do not change the counters.
	if err := harness.NewRunner(harness.Options{MeasureCap: 500, Steps: 2, Warmup: 1, Workers: 2}).Load(&log); err != nil {
		t.Errorf("workers refused a record: %v", err)
	}
}
