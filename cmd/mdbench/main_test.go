package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mdbench runs the command in-process and returns (exit code, stdout,
// stderr).
func mdbench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRun drives the CLI in-process through run(): exit codes (0 done, 1
// failed, 2 usage) and what reaches stdout, stderr and the -csv file.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	missing := filepath.Join(dir, "no", "such", "dir", "out.csv")
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings
		stderr []string
		csv    []string // substrings of the file at csvPath
	}{
		{name: "list", args: []string{"-list"}, code: 0,
			stdout: []string{"experiments:", "table1", "fig10", "headline"}},
		{name: "no -exp lists", args: nil, code: 0,
			stdout: []string{"experiments:", "table1", "fig10", "headline"}},
		{name: "unknown experiment", args: []string{"-exp", "fig99"}, code: 2,
			stderr: []string{`unknown experiment "fig99"`}},
		{name: "malformed size grid", args: []string{"-exp", "table1", "-sizes", "32,many"}, code: 2,
			stderr: []string{`bad integer list "32,many"`}},
		{name: "unknown flag", args: []string{"-nope"}, code: 2,
			stderr: []string{"flag provided but not defined"}},
		// A measurement never checkpoints, resumes or recovers.
		{name: "no -restart", args: []string{"-exp", "fig3", "-restart", "x.ckpt"}, code: 2,
			stderr: []string{"flag provided but not defined: -restart"}},
		{name: "no -checkpoint-every", args: []string{"-exp", "fig3", "-checkpoint-every", "5"}, code: 2,
			stderr: []string{"flag provided but not defined: -checkpoint-every"}},
		{name: "trailing comma is not an error", args: []string{"-exp", "table1", "-quick", "-sizes", "32,"}, code: 0,
			stdout: []string{"Table 1"}},
		// The paper's task taxonomy, regenerated end to end.
		{name: "table1", args: []string{"-exp", "table1", "-quick"}, code: 0,
			stdout: []string{"Table 1", "Pair", "Neigh", "Comm"}},
		// Tables land in the CSV as "# <title>" delimited blocks.
		{name: "csv", args: []string{"-exp", "table2", "-quick", "-csv", csvPath}, code: 0,
			stdout: []string{"Table 2"}, csv: []string{"# Table 2", "Benchmark,Force field,Cutoff", "\nrhodo,CHARMM,"}},
		{name: "csv into a missing directory", args: []string{"-exp", "table1", "-quick", "-csv", missing}, code: 1,
			stderr: []string{"csv:", missing}},
		{name: "modes are exclusive", args: []string{"-exp", "table1", "-grid"}, code: 2,
			stderr: []string{"mutually exclusive"}},
		{name: "grid flag under -exp", args: []string{"-exp", "table1", "-trials", "2"}, code: 2,
			stderr: []string{"-trials does not apply to -exp"}},
		{name: "one worker width under -exp", args: []string{"-exp", "table1", "-workers", "1,2"}, code: 2,
			stderr: []string{"-exp takes one -workers value, got 2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &out, &errb)
			}
			for _, want := range tc.stdout {
				if !strings.Contains(out.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, &out)
				}
			}
			for _, want := range tc.stderr {
				if !strings.Contains(errb.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, &errb)
				}
			}
			if tc.csv == nil {
				return
			}
			data, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.csv {
				if !strings.Contains(string(data), want) {
					t.Errorf("csv missing %q:\n%s", want, data)
				}
			}
		})
	}
}

// TestFailedRunKeepsArtifacts: a campaign that fails still stops the CPU
// profile and runs obs.Flags.Close, which is what writes the -trace and
// -metrics files — the artifacts that would explain the failure. Before
// run() had one exit path this left no trace, no metrics and a 0-byte
// profile.
func TestFailedRunKeepsArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	metricsPath := filepath.Join(dir, "m.json")
	profPath := filepath.Join(dir, "c.pprof")
	missing := filepath.Join(dir, "no", "such", "dir", "out.csv")
	var out, errb bytes.Buffer
	code := run([]string{
		"-exp", "fig3", "-quick", "-sizes", "32", "-ranks", "2", "-csv", missing,
		"-trace", tracePath, "-metrics", metricsPath, "-cpuprofile", profPath,
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, &errb)
	}
	if !strings.Contains(errb.String(), missing) {
		t.Errorf("stderr does not name the CSV file:\n%s", &errb)
	}
	for _, p := range []string{tracePath, metricsPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Errorf("artifact lost: %v", err)
			continue
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Errorf("%s does not parse: %v", p, err)
		}
	}
	if fi, err := os.Stat(profPath); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile missing or empty: %v, %v", fi, err)
	}
}

// TestExitCodes: every axis or threshold value no measurement can run
// exits 2 with a usage message before any output file is opened, in
// every mode. Before, these panicked (world size, makeslice), printed
// rows for a 0-atom system, priced a 16384-cubed mesh at 0 TS/s, failed
// on hashing a NaN, or ran one trial for -trials -1.
func TestExitCodes(t *testing.T) {
	const lj = "-workloads=lj"
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"exp ranks 0", []string{"-exp", "fig3", "-quick", "-ranks", "0"}, "ranks 0 is below 1"},
		{"exp ranks -2", []string{"-exp", "fig3", "-quick", "-ranks", "-2"}, "ranks -2 is below 1"},
		{"grid ranks 0", []string{"-grid", lj, "-sizes", "32", "-ranks", "0"}, "ranks 0 is below 1"},
		{"grid ranks -2", []string{"-grid", lj, "-sizes", "32", "-ranks", "1,-2"}, "ranks -2 is below 1"},
		{"profile ranks 0", []string{"-profile", lj, "-sizes", "32", "-ranks", "0"}, "ranks 0 is below 1"},
		{"profile ranks -2", []string{"-profile", lj, "-sizes", "32", "-ranks", "-2"}, "ranks -2 is below 1"},
		{"measure cap -5", []string{"-exp", "fig3", "-quick", "-sizes", "32", "-ranks", "1", "-measure-cap", "-5"}, "measure cap -5 is negative"},
		{"steps -1", []string{"-exp", "fig3", "-steps", "-1"}, "steps -1 is negative"},
		{"warmup -1", []string{"-grid", lj, "-warmup", "-1"}, "warmup -1 is negative"},
		{"sizes -32", []string{"-exp", "fig3", "-quick", "-sizes", "-32"}, "size -32 is below 1"},
		{"exp sizes 0", []string{"-exp", "fig3", "-quick", "-sizes", "0"}, "size 0 is below 1"},
		{"profile sizes 0", []string{"-profile", lj, "-sizes", "0", "-ranks", "1"}, "size 0 is below 1"},
		{"grid sizes 0", []string{"-grid", lj, "-sizes", "0", "-ranks", "1"}, "size 0 is below 1"},
		{"trials -1", []string{"-grid", lj, "-sizes", "32", "-ranks", "1", "-trials", "-1"}, "trials -1 is below 1"},
		{"gpus 0", []string{"-exp", "fig6", "-gpus", "0"}, "GPU count 0 is below 1"},
		{"profile kspace-acc -1", []string{"-profile", "-workloads", "rhodo", "-sizes", "32", "-ranks", "1", "-kspace-acc", "-1"}, "kspace accuracy -1 is not in (0, 1)"},
		{"grid kspace-acc -1", []string{"-grid", "-workloads", "rhodo", "-sizes", "32", "-ranks", "1", "-kspace-acc", "-1"}, "kspace accuracy -1 is not in (0, 1)"},
		{"grid kspace-acc NaN", []string{"-grid", "-workloads", "rhodo", "-sizes", "32", "-ranks", "1", "-kspace-acc", "NaN"}, "kspace accuracy NaN is not in (0, 1)"},
		{"kspace-acc 1", []string{"-grid", lj, "-kspace-acc", "1"}, "kspace accuracy 1 is not in (0, 1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			outs := []string{"-csv", "o.csv", "-log", "o.jsonl", "-trace", "o.trace", "-metrics", "o.metrics", "-manifest", "o.json"}
			args := append([]string{}, tc.args...)
			for i := 0; i < len(outs); i += 2 {
				// Only the output flags the mode reads: the others are
				// usage errors of their own.
				if ms, ok := modeFlags[outs[i][1:]]; ok && !slices.Contains(ms, mode(tc.args[0])) {
					continue
				}
				args = append(args, outs[i], filepath.Join(dir, outs[i+1]))
			}
			code, stdout, stderr := mdbench(t, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr)
			}
			if strings.Contains(stdout, "TS/s") || strings.Contains(stdout, "Figure") {
				t.Errorf("printed results:\n%s", stdout)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("left output files behind: %v", left)
			}
		})
	}
}

// TestUnreachableKspaceAccuracy: a threshold in (0, 1) that no PPPM mesh
// meets passes the front end but fails the measurement with the typed
// mesh error — exit 1 and no row, where it used to print 0.000 TS/s.
func TestUnreachableKspaceAccuracy(t *testing.T) {
	for _, m := range []string{"-grid", "-profile"} {
		code, stdout, stderr := mdbench(t, m, "-workloads", "rhodo", "-sizes", "32", "-ranks", "1",
			"-measure-cap", "1000", "-steps", "2", "-warmup", "1", "-kspace-acc", "1e-300")
		if code != 1 || !strings.Contains(stderr, "no pppm mesh") {
			t.Errorf("%s: exit %d, want 1 naming the mesh\nstderr:\n%s", m, code, stderr)
		}
		if strings.Contains(stdout, "TS/s") {
			t.Errorf("%s printed a row:\n%s", m, stdout)
		}
	}
}
