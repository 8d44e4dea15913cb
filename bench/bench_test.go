package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the declarations in spec.go")

// benchmarkFile is BENCHMARK.json, key for key.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []fileWorkload   `json:"workloads"`
	EndToEnd   []fileMetric     `json:"end_to_end"`
	PerLayer   []fileLayerEntry `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type fileLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func declared() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 8,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, fileWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, fileMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, fileLayerEntry{d.Name, d.Unit, d.Better})
	}
	return f
}

// TestBenchmarkJSON holds BENCHMARK.json and the code to one contract:
// the file names exactly the workloads and metrics the code declares,
// within the limits the driver enforces before a single run.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := declared()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json disagrees with spec.go; run `go test -run TestBenchmarkJSON -update`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, w := range got.Workloads {
		once(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		once(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range got.PerLayer {
		once(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", got.RunSeconds)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs all eight workloads at a tiny
// fixed size, traced, and checks what they emit against the
// declarations: every declared metric, nothing undeclared, every check
// green. The same code paths as the real sizes, in a few seconds.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	keys := func(ds []metricDecl) map[string]bool {
		m := map[string]bool{}
		for _, d := range ds {
			m[d.Name] = true
		}
		return m
	}
	sameKeys := func(t *testing.T, what string, got map[string]float64, want map[string]bool) {
		t.Helper()
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: declared metric %s was not emitted", what, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("%s: emitted metric %s is not declared", what, k)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 7, seconds: 0.05, dir: t.TempDir(), size: tinySize,
				rec: newRecorder(w.name)}
			res, err := runWorkload(w.sized(tinySize), o)
			if err != nil {
				t.Fatal(err)
			}
			sameKeys(t, "end-to-end", res.EndToEnd, keys(endToEnd))
			sameKeys(t, "per-layer", res.PerLayer, keys(perLayer))
			for k, v := range res.EndToEnd {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %g; it must never be 0", k, v)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			var sum float64
			for _, row := range res.Attribution {
				if !row.Of {
					sum += row.Share
				}
			}
			if sum < 97 || sum > 103 {
				t.Errorf("attribution rows sum to %.1f%% of the wall, want 100 ± 3", sum)
			}
			if len(res.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestBrokenGoldenFails: a wrong golden value must turn the run
// incorrect, or the golden check checks nothing.
func TestBrokenGoldenFails(t *testing.T) {
	w := *findWorkload("lj_halo_chan")
	w.sys.atoms, w.warmup, w.seg = 500, 10, 10
	run := func(golden map[string]goldenEntry) *runResult {
		t.Helper()
		o := runOpts{seed: defaultSeed, seconds: 0.05, dir: t.TempDir(), golden: golden,
			size: sizing{setups: reps{min: 1, max: 1}, restores: reps{min: 1, max: 1}, minOps: 2}}
		res, err := runWorkload(w, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(nil)
	good := goldenEntry{
		Step:        first.Info["golden_step"].(int64),
		Temperature: first.Info["golden_temperature"].(float64),
		TotalEnergy: first.Info["golden_total_energy"].(float64),
	}
	if res := run(map[string]goldenEntry{w.name: good}); !res.correct() {
		t.Errorf("run against its own golden values is incorrect: %+v", res.Checks)
	}
	bad := good
	bad.TotalEnergy *= 1 + 1e-4
	if res := run(map[string]goldenEntry{w.name: bad}); res.correct() {
		t.Error("run against a wrong golden energy still counts as correct")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if got := iqrShare(xs); got != 2.0/3 {
		t.Errorf("iqrShare = %g, want 2/3", got)
	}
	for n, want := range map[int]float64{5: 50, 40: 75, 100: 90, 240: 95, 1000: 99} {
		if got := highPercentile(n); got != want {
			t.Errorf("highPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}
