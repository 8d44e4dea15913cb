package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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

// sweep runs the CLI with args and returns (exit code, stdout, stderr).
func sweep(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestGridMode: a small real grid runs end to end and every artifact —
// CSV, JSONL, manifest — is written, parseable, and row-complete.
func TestGridMode(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sweep.csv")
	jsonlPath := filepath.Join(dir, "sweep.jsonl")
	maniPath := filepath.Join(dir, "manifest.json")

	code, stdout, stderr := sweep(t,
		"-workloads", "lj", "-atoms", "32", "-ranks", "1,2",
		"-precisions", "mixed,double", "-trials", "2",
		"-measure-cap", "2000", "-steps", "3", "-warmup", "2",
		"-csv", csvPath, "-jsonl", jsonlPath, "-manifest", maniPath)
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

	// JSONL: every line parses; exactly one "cell" record per cell, each
	// carrying the full structured result.
	jsonlData, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for n, line := range strings.Split(strings.TrimSpace(string(jsonlData)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("jsonl line %d: %v: %q", n+1, err, line)
		}
		if rec["kind"] == "cell" {
			cells++
		}
	}
	if cells != wantCells {
		t.Errorf("jsonl has %d cell records, want %d", cells, wantCells)
	}

	// Manifest: parseable, complete, and self-describing.
	man, raw := readManifest(t, maniPath)
	if man.Tool != "mdsweep" {
		t.Errorf("manifest tool = %q", man.Tool)
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
	wantFid := fidelity{MeasureCap: 2000, Steps: 3, Warmup: 2, CheckEvery: 2, Seed: 2022}
	if man.Fidelity != wantFid {
		t.Errorf("fidelity = %+v, want the resolved %+v", man.Fidelity, wantFid)
	}
	wantGrid := gridConfig{
		Workloads: []string{"lj"}, SizesK: []int{32}, Ranks: []int{1, 2}, Workers: []int{1},
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
		args = append(args, "-workloads", "lj", "-atoms", "32", "-ranks", "1", "-quick",
			"-csv", "", "-jsonl", "", "-manifest", path)
		if code, _, stderr := sweep(t, args...); code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, stderr)
		}
		man, _ := readManifest(t, path)
		return man
	}
	defaults := run("defaults.json")
	explicit := run("explicit.json", "-warmup", "10", "-seed", "2022", "-steps", "6",
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

// TestBadFlags: every malformed grid or unknown name is a usage error,
// not a crash or a silent default — the flags of the retired experiment
// mode (mdbench is that front-end) and trajectory store included.
func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-workloads", "nope"},
		{"-atoms", "32,many"},
		{"-precisions", "half"},
		{"-kspace-acc", "1e-4,tight"},
		{"-exp", "table1", "-quick"},
		{"-list"},
		{"-gpus", "1"},
		{"-trajectory", "t.jsonl"},
	}
	for _, args := range cases {
		if code, _, _ := sweep(t, args...); code == 0 {
			t.Errorf("args %v exited 0, want nonzero", args)
		}
	}
}

// TestCSVWriteFailure: an unwritable CSV path exits nonzero (satellite:
// output errors must never yield exit 0 with truncated artifacts).
func TestCSVWriteFailure(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := sweep(t,
		"-workloads", "lj", "-atoms", "32", "-ranks", "1",
		"-measure-cap", "1000", "-steps", "2", "-warmup", "1",
		"-csv", filepath.Join(dir, "no", "such", "dir", "out.csv"),
		"-jsonl", "", "-manifest", "")
	if code == 0 {
		t.Fatalf("unwritable csv path exited 0; stderr:\n%s", stderr)
	}
}
