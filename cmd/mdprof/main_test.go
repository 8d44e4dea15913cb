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
// failed, 2 usage), what reaches stdout and stderr, and the -trace file.
func TestRun(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.json")
	small := []string{"-bench", "lj", "-size", "32", "-ranks", "2", "-measure-cap", "2000", "-steps", "2"}
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings
		stderr []string
	}{
		{name: "unknown flag", args: []string{"-nope"}, code: 2,
			stderr: []string{"flag provided but not defined"}},
		{name: "unknown workload", args: []string{"-bench", "nope"}, code: 2,
			stderr: []string{`unknown workload "nope"`, "rhodo lj chain eam chute"}},
		{name: "cpu", args: small, code: 0,
			stdout: []string{"on the CPU instance, 2 ranks", "per-rank task breakdown", "per-rank MPI profile"}},
		{name: "gpu", args: append(small, "-gpus", "1"), code: 0,
			stdout: []string{"on the GPU instance", "per-device kernel"}},
		{name: "trace", args: append(small, "-trace", tracePath), code: 0,
			stdout: []string{"per-rank task breakdown"}},
	} {
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
