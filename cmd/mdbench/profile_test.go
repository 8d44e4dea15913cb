package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfile drives -profile: one cell's per-rank task and MPI tables on
// the CPU instance, the per-device kernel table with -gpus, the -trace
// file, and the usage errors of a cell that is not one cell.
func TestProfile(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.json")
	cell := []string{"-profile", "-workloads", "lj", "-sizes", "32", "-measure-cap", "2000", "-steps", "2"}
	cpu := append([]string{"-ranks", "2"}, cell...)
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings
		stderr []string
	}{
		{name: "unknown flag", args: []string{"-profile", "-nope"}, code: 2,
			stderr: []string{"flag provided but not defined"}},
		{name: "unknown workload", args: []string{"-profile", "-workloads", "nope"}, code: 2,
			stderr: []string{`unknown workload "nope"`, "rhodo lj chain eam chute"}},
		{name: "cpu", args: cpu, code: 0,
			stdout: []string{"on the CPU instance, 2 ranks", "per-rank task breakdown", "per-rank MPI profile"}},
		{name: "gpu", args: append([]string{"-gpus", "1"}, cell...), code: 0,
			stdout: []string{"on the GPU instance, 1 devices x 6 ranks", "per-device kernel"}},
		{name: "trace", args: append(cpu, "-trace", tracePath), code: 0,
			stdout: []string{"per-rank task breakdown"}},
		{name: "default axes are a grid", args: []string{"-profile"}, code: 2,
			stderr: []string{"-profile takes one -workloads value, got 5"}},
		{name: "two sizes", args: []string{"-profile", "-workloads", "lj", "-sizes", "32,64", "-ranks", "2"}, code: 2,
			stderr: []string{"-profile takes one -sizes value, got 2"}},
		{name: "ranks and gpus", args: append([]string{"-ranks", "2", "-gpus", "1"}, cell...), code: 2,
			stderr: []string{"-profile takes -ranks or -gpus, not both"}},
		{name: "no trials", args: append([]string{"-ranks", "2", "-trials", "1"}, cell...), code: 2,
			stderr: []string{"-trials does not apply to -profile"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := mdbench(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, out, errOut)
			}
			for _, want := range tc.stdout {
				if !strings.Contains(out, want) {
					t.Errorf("stdout missing %q:\n%s", want, out)
				}
			}
			for _, want := range tc.stderr {
				if !strings.Contains(errOut, want) {
					t.Errorf("stderr missing %q:\n%s", want, errOut)
				}
			}
		})
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("-trace left no file: %v", err)
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Errorf("-trace file does not parse: %v", err)
	}
}
