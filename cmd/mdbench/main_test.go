package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
