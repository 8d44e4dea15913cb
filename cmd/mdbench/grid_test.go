package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gomd/internal/harness"
	"gomd/internal/obs"
	"gomd/internal/workload"
)

// readManifest parses the manifest a run wrote, keeping the raw bytes
// for assertions on the encoding itself.
func readManifest(t *testing.T, path string) (manifest, string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	return man, string(data)
}

// TestGridMode: a small real grid runs end to end and every artifact —
// CSV, data log, manifest, metrics dump — is written, parseable, and
// row-complete.
func TestGridMode(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "grid.csv")
	logPath := filepath.Join(dir, "grid.jsonl")
	maniPath := filepath.Join(dir, "manifest.json")
	metricsPath := filepath.Join(dir, "metrics.json")

	code, stdout, stderr := mdbench(t, "-grid",
		"-workloads", "lj", "-sizes", "32", "-ranks", "1,2",
		"-precisions", "mixed,double", "-trials", "2",
		"-measure-cap", "2000", "-steps", "3", "-warmup", "2",
		"-csv", csvPath, "-log", logPath, "-manifest", maniPath, "-metrics", metricsPath)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	const wantCells = 1 * 1 * 2 * 2 * 2 // lj × 32k × {1,2} ranks × {mixed,double} × 2 trials

	// CSV: header + one row per cell, constant column count.
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
	if len(lines) != 1+wantCells {
		t.Fatalf("csv has %d lines, want header + %d cells:\n%s", len(lines), wantCells, csvData)
	}
	ncol := len(strings.Split(lines[0], ","))
	if !strings.HasPrefix(lines[0], "workload,atoms_k,ranks,workers,precision") {
		t.Errorf("csv header = %q", lines[0])
	}
	for i, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != ncol {
			t.Errorf("csv row %d has %d columns, want %d: %q", i, got, ncol, l)
		}
	}

	// Data log: every line parses; exactly one "cell" record per cell,
	// each carrying the full structured result.
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for n, line := range strings.Split(strings.TrimSpace(string(logData)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %d: %v: %q", n+1, err, line)
		}
		if rec["kind"] == "cell" {
			cells++
		}
	}
	if cells != wantCells {
		t.Errorf("data log has %d cell records, want %d", cells, wantCells)
	}

	// The grid's runners carry the front end's metrics registry: the
	// dump holds the engines' series (it was empty when they did not).
	mf, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ReadSnapshot(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
		t.Error("grid -metrics dump is empty")
	}

	// Manifest: parseable, complete, and self-describing.
	man, raw := readManifest(t, maniPath)
	if man.Tool != "mdbench" {
		t.Errorf("manifest tool = %q", man.Tool)
	}
	if man.Log != logPath || man.CSV != csvPath {
		t.Errorf("manifest names csv %q and log %q, want %q and %q", man.CSV, man.Log, csvPath, logPath)
	}
	if len(man.Cells) != wantCells {
		t.Errorf("manifest has %d cells, want %d", len(man.Cells), wantCells)
	}
	for _, c := range man.Cells {
		if c.Status != "ok" {
			t.Errorf("cell %s status %q", c.Label, c.Status)
		}
	}
	if man.ConfigHash == "" || man.Host == "" {
		t.Errorf("manifest missing provenance: %+v", man)
	}
	if man.Fidelity.CheckEvery == 0 {
		t.Error("numerical guardrails were off — campaigns must default them on")
	}

	// The manifest records what ran, not what was typed: -seed, -workers
	// and -kspace-acc were left to their defaults above.
	wantFid := harness.Options{MeasureCap: 2000, Steps: 3, Warmup: 2, CheckEvery: 2, Seed: 2022}
	if man.Fidelity != wantFid {
		t.Errorf("fidelity = %+v, want the resolved %+v", man.Fidelity, wantFid)
	}
	wantGrid := gridConfig{
		Workloads: []workload.Name{workload.LJ}, SizesK: []int{32}, Ranks: []int{1, 2}, Workers: []int{1},
		Precisions: []string{"mixed", "double"}, KspaceAccs: []float64{0}, Trials: 2,
	}
	if !reflect.DeepEqual(man.Grid, wantGrid) {
		t.Errorf("grid = %+v, want the resolved %+v", man.Grid, wantGrid)
	}
	if strings.Contains(raw, "null") {
		t.Errorf("manifest has a null field:\n%s", raw)
	}

	// A run that leaves fidelity and grid axes to their defaults and the
	// same run with every default spelled out are one campaign: same
	// config hash (it used to hash the flags' zeros and nulls as typed).
	run := func(name string, args ...string) manifest {
		path := filepath.Join(dir, name)
		args = append(args, "-grid", "-workloads", "lj", "-sizes", "32", "-ranks", "1", "-quick", "-manifest", path)
		if code, _, stderr := mdbench(t, args...); code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, stderr)
		}
		man, _ := readManifest(t, path)
		return man
	}
	defaults := run("defaults.json")
	explicit := run("explicit.json", "-warmup", "10", "-seed", "2022", "-steps", "6", "-check-every", "2",
		"-measure-cap", "6000", "-workers", "1", "-precisions", "mixed", "-kspace-acc", "0", "-trials", "1")
	if f := defaults.Fidelity; f.Warmup != 10 || f.Seed != 2022 || f.Steps != 6 {
		t.Errorf("defaults run recorded fidelity %+v, want warmup 10, seed 2022, steps 6", f)
	}
	if defaults.ConfigHash != explicit.ConfigHash {
		t.Errorf("config hash %s (defaults) != %s (spelled out)\n%+v\n%+v",
			defaults.ConfigHash, explicit.ConfigHash, defaults, explicit)
	}
	if other := run("other.json", "-seed", "7"); other.ConfigHash == defaults.ConfigHash {
		t.Error("a different seed hashed equal")
	}
}

// TestBadFlags: every malformed grid, unknown name or flag the grid does
// not read is a usage error, not a crash or a silent default.
func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-workloads", "nope"},
		{"-sizes", "32,many"},
		{"-precisions", "half"},
		{"-kspace-acc", "1e-4,tight"},
		{"-exp", "table1"},
		{"-profile"},
		{"-chart"},
		{"-gpus", "1"},
		{"-atoms", "32"},
		{"-jsonl", "s.jsonl"},
		{"-strict-log"},
		{"-trajectory", "t.jsonl"},
	}
	for _, args := range cases {
		if code, _, _ := mdbench(t, append([]string{"-grid"}, args...)...); code != 2 {
			t.Errorf("-grid %v exited %d, want 2", args, code)
		}
	}
}

// TestCSVWriteFailure: an unwritable CSV path exits nonzero (output
// errors must never yield exit 0 with truncated artifacts).
func TestCSVWriteFailure(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := mdbench(t, "-grid",
		"-workloads", "lj", "-sizes", "32", "-ranks", "1",
		"-measure-cap", "1000", "-steps", "2", "-warmup", "1",
		"-csv", filepath.Join(dir, "no", "such", "dir", "out.csv"))
	if code != 1 {
		t.Fatalf("unwritable csv path exited %d, want 1; stderr:\n%s", code, stderr)
	}
}

// TestIncompleteLogFailsGrid: a data log that loses a record fails the
// grid with exit 1, and no manifest vouches for the campaign.
func TestIncompleteLogFailsGrid(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	maniPath := filepath.Join(t.TempDir(), "manifest.json")
	code, _, stderr := mdbench(t, "-grid", "-workloads", "lj", "-sizes", "32", "-ranks", "1",
		"-measure-cap", "1000", "-steps", "2", "-warmup", "1", "-log", "/dev/full", "-manifest", maniPath)
	if code != 1 || !strings.Contains(stderr, "data log incomplete") {
		t.Errorf("exit %d, want 1 naming the incomplete data log; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(maniPath); err == nil {
		t.Error("a manifest was written for a campaign whose data log is incomplete")
	}
}
