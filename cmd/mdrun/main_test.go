package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gomd/internal/ckpt"
	"gomd/internal/obs"
)

// mdrun runs the command in-process and returns its exit code and output.
func mdrun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// stepLines returns the thermo lines of an mdrun transcript.
func stepLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "step ") {
			lines = append(lines, l)
		}
	}
	return lines
}

func TestExitCodes(t *testing.T) {
	// A store written by a 500-atom run: reopening it at -atoms 256 must
	// fail on the atom-count guard, not resume a different system.
	store := filepath.Join(t.TempDir(), "run.ckpt")
	if code, _, errOut := mdrun(t, "-atoms", "500", "-steps", "10", "-checkpoint-every", "10", "-checkpoint", store); code != 0 {
		t.Fatalf("writing the store: exit %d: %s", code, errOut)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string // a substring, when the message matters
	}{
		{"listen-and-join", []string{"-ranks", "2", "-listen", "127.0.0.1:0", "-join", "127.0.0.1:1", "-rank", "1"}, 2, ""},
		{"join-without-rank", []string{"-ranks", "2", "-join", "127.0.0.1:1"}, 2, ""},
		{"tcp-one-rank", []string{"-ranks", "1", "-listen", "127.0.0.1:0"}, 2, ""},
		{"tcp-script", []string{"-ranks", "2", "-listen", "127.0.0.1:0", "-in", "in.lj"}, 2, ""},
		{"tcp-restart", []string{"-ranks", "2", "-listen", "127.0.0.1:0", "-restart", store}, 2, "flag provided but not defined: -restart"},
		{"restart-is-unknown", []string{"-restart", store}, 2, "flag provided but not defined: -restart"},
		{"unknown-workload", []string{"-bench", "nope"}, 2, "rhodo lj chain eam chute"},
		{"unknown-precision", []string{"-precision", "quad"}, 2, "single, mixed, double"},
		{"malformed-fault", []string{"-fault", "kill:rank"}, 2, ""},
		{"unknown-flag", []string{"-no-such-flag"}, 2, ""},
		// The run flags' rule is harness.RunSpec.Validate, mdbench's
		// messages: each out-of-range value is refused before anything runs.
		{"atoms-negative", []string{"-atoms", "-5", "-steps", "10"}, 2, "harness: atoms -5 is negative"},
		{"steps-negative", []string{"-atoms", "256", "-steps", "-5"}, 2, "harness: steps -5 is below 1"},
		{"thermo-negative", []string{"-atoms", "256", "-steps", "10", "-thermo", "-1"}, 2, "harness: thermo -1 is negative"},
		{"workers-negative", []string{"-atoms", "256", "-steps", "10", "-workers", "-1"}, 2, "harness: workers -1 is negative"},
		{"retries-negative", []string{"-atoms", "256", "-steps", "10", "-retries", "-1"}, 2, "harness: retries -1 is negative"},
		{"checkpoint-every-negative", []string{"-atoms", "256", "-steps", "10", "-checkpoint-every", "-1"}, 2, "harness: checkpoint every -1 is negative"},
		{"keep-checkpoints-negative", []string{"-atoms", "256", "-steps", "10", "-keep-checkpoints", "-1"}, 2, "harness: keep checkpoints -1 is negative"},
		{"ranks-negative", []string{"-atoms", "256", "-steps", "10", "-ranks", "-1"}, 2, "harness: ranks -1 is below 1"},
		{"ranks-zero", []string{"-atoms", "256", "-steps", "10", "-ranks", "0"}, 2, "harness: ranks 0 is below 1"},
		{"check-every-negative", []string{"-atoms", "256", "-steps", "10", "-check-every", "-1"}, 2, "harness: check every -1 is negative"},
		// Refused before any mesh is sized; it used to size and allocate a
		// 16384-cubed mesh and run out of memory.
		{"kspace-acc-negative", []string{"-bench", "rhodo", "-atoms", "3000", "-steps", "5", "-kspace-acc", "-1"}, 2, "kspace accuracy -1 is not in (0, 1)"},
		{"kspace-acc-nan", []string{"-bench", "rhodo", "-atoms", "3000", "-steps", "5", "-kspace-acc", "NaN"}, 2, "kspace accuracy NaN is not in (0, 1)"},
		// In range, but no mesh meets it: the constructor's typed refusal.
		{"kspace-acc-unreachable", []string{"-bench", "rhodo", "-atoms", "3000", "-steps", "5", "-kspace-acc", "1e-300"}, 1, "kspace-grid"},
		{"store-atom-count-mismatch", []string{"-atoms", "256", "-checkpoint-every", "10", "-checkpoint", store}, 1, "checkpoint holds 500 atoms, the workload builds 256"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A usage error opens no output file: point every one at a
			// fresh directory and expect it to stay empty.
			dir := t.TempDir()
			args := tc.args
			if tc.want == 2 {
				args = append(slices.Clone(args), "-checkpoint", filepath.Join(dir, "run.ckpt"),
					"-log", filepath.Join(dir, "run.jsonl"), "-trace", filepath.Join(dir, "trace.json"),
					"-metrics", filepath.Join(dir, "metrics.json"), "-flight", filepath.Join(dir, "flight.jsonl"))
			}
			code, out, errOut := mdrun(t, args...)
			if code != tc.want {
				t.Errorf("exit %d, want %d\nstderr: %s", code, tc.want, errOut)
			}
			if errOut == "" || !strings.Contains(errOut, tc.stderr) {
				t.Errorf("stderr %q lacks %q", errOut, tc.stderr)
			}
			if (tc.want == 2 && out != "") || len(stepLines(out)) != 0 {
				t.Errorf("printed before failing:\n%s", out)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("a usage error left %d file(s) behind, the first %s", len(left), left[0].Name())
			}
		})
	}
}

// TestOneRunPath: one rank and two ranks go through the same supervised
// driver and print the same thermo lines to the printed precision.
func TestOneRunPath(t *testing.T) {
	var ref []string
	for _, ranks := range []string{"1", "2"} {
		code, out, errOut := mdrun(t, "-bench", "lj", "-atoms", "256", "-steps", "20", "-thermo", "5", "-ranks", ranks)
		if code != 0 {
			t.Fatalf("-ranks %s: exit %d: %s", ranks, code, errOut)
		}
		lines := stepLines(out)
		if len(lines) != 4 || !strings.HasPrefix(lines[3], "step       20 ") {
			t.Fatalf("-ranks %s: thermo lines %q", ranks, lines)
		}
		for _, want := range []string{"# lj: 256 atoms, " + ranks + " ranks", "# final:", "# task wall-time shares:  Pair "} {
			if !strings.Contains(out, want) {
				t.Errorf("-ranks %s: no %q in\n%s", ranks, want, out)
			}
		}
		if ref == nil {
			ref = lines
		} else if strings.Join(lines, "\n") != strings.Join(ref, "\n") {
			t.Errorf("thermo differs between rank counts:\n%s\nvs\n%s", strings.Join(ref, "\n"), strings.Join(lines, "\n"))
		}
	}
}

var rateLine = regexp.MustCompile(`# wall ([0-9.]+)s  ([0-9.]+) TS/s`)

// TestRestartCountsFromCheckpoint is README's resume recipe at both rank
// counts: after a 40-step checkpointed run, the same command with
// -steps 60 resumes at step 40, ends at step 60 (-steps is the run's
// total length) and reports the rate of the 20 steps it ran.
func TestRestartCountsFromCheckpoint(t *testing.T) {
	var ref []string
	for _, ranks := range []string{"1", "2"} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		common := []string{"-bench", "lj", "-atoms", "256", "-ranks", ranks, "-checkpoint-every", "20", "-checkpoint", path}
		if code, _, errOut := mdrun(t, append(common, "-steps", "40")...); code != 0 {
			t.Fatalf("-ranks %s: exit %d: %s", ranks, code, errOut)
		}
		code, out, errOut := mdrun(t, append(common, "-steps", "60")...)
		if code != 0 {
			t.Fatalf("-ranks %s restart: exit %d: %s", ranks, code, errOut)
		}
		lines := stepLines(out)
		if len(lines) != 2 || !strings.HasPrefix(lines[0], "step       50 ") || !strings.HasPrefix(lines[1], "step       60 ") {
			t.Fatalf("-ranks %s restart: thermo lines %q, want steps 50 and 60", ranks, lines)
		}
		if !strings.Contains(out, "# restored from checkpoint at step 40\n") {
			t.Errorf("-ranks %s restart: no resume line in\n%s", ranks, out)
		}
		m := rateLine.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("-ranks %s restart: no rate line in\n%s", ranks, out)
		}
		var wall, rate float64
		fmt.Sscan(m[1], &wall)
		fmt.Sscan(m[2], &rate)
		// The wall is printed to the millisecond; allow for that rounding.
		if lo, hi := 20/(wall+0.0005), 20/math.Max(wall-0.0005, 1e-9); rate < 0.99*lo || rate > 1.01*hi {
			t.Errorf("-ranks %s restart: %.2f TS/s over %.3fs is not 20 steps", ranks, rate, wall)
		}
		if ref == nil {
			ref = lines
		} else if strings.Join(lines, "\n") != strings.Join(ref, "\n") {
			t.Errorf("resumed thermo differs between rank counts:\n%s\nvs\n%s", strings.Join(ref, "\n"), strings.Join(lines, "\n"))
		}
	}
}

// stopAt is a stdout that cancels a context when a line with the given
// prefix passes through: a stop request injected at a known step.
type stopAt struct {
	bytes.Buffer
	prefix string
	stop   context.CancelFunc
}

func (w *stopAt) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte(w.prefix)) {
		w.stop()
	}
	return w.Buffer.Write(p)
}

// TestStopDrainsToCheckpoint: a stop request seen at the step-20 boundary
// of a run checkpointing every 30 steps runs on to step 30, exits 130,
// and leaves a checkpoint that rerunning the same command resumes from
// and finishes at the original -steps.
func TestStopDrainsToCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	soft, stop := context.WithCancel(context.Background())
	defer stop()
	out := &stopAt{prefix: "step       20 ", stop: stop}
	var errb bytes.Buffer
	args := []string{"-bench", "lj", "-atoms", "256", "-steps", "100", "-thermo", "10", "-checkpoint-every", "30", "-checkpoint", path}
	if code := runContext(soft, args, out, &errb); code != 130 {
		t.Fatalf("exit %d, want 130\nstderr: %s", code, errb.String())
	}
	if want := "interrupted at step 30; checkpoint " + path + " is current; rerun the same command to resume"; !strings.Contains(errb.String(), want) {
		t.Errorf("stderr %q lacks %q", errb.String(), want)
	}
	if ck, err := ckpt.ReadFile(path); err != nil {
		t.Fatalf("checkpoint after the drain: %v", err)
	} else if ck.Step != 30 {
		t.Fatalf("checkpoint after the drain is at step %d, want 30", ck.Step)
	}
	code, resumed, errOut := mdrun(t, args...)
	lines := stepLines(resumed)
	if code != 0 || len(lines) != 7 || !strings.HasPrefix(lines[0], "step       40 ") || !strings.HasPrefix(lines[6], "step      100 ") {
		t.Errorf("resume: exit %d, want steps 40..100\n%s%s", code, resumed, errOut)
	}
}

// TestScriptStops: a stop request ends an -in script before the next
// step of its `run` with exit 130, instead of running it to the end.
func TestScriptStops(t *testing.T) {
	in := filepath.Join(t.TempDir(), "in.lj")
	src := `units lj
lattice fcc 0.8442
region box block 0 3 0 3 0 3
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
fix 1 all nve
run 1000000
`
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	soft, stop := context.WithCancel(context.Background())
	stop()
	var out, errb bytes.Buffer
	if code := runContext(soft, []string{"-in", in}, &out, &errb); code != 130 {
		t.Fatalf("exit %d, want 130\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "interrupted at step 0") {
		t.Errorf("stderr %q does not report the interruption", errb.String())
	}
}

// TestMetricsDump: -metrics writes what the rank goroutines published
// as they stepped — per-rank work, halo traffic, MPI profile, pool
// accounting and wait share — each under one name: no per-function
// mpi.<Func>.calls or par.runs counters beside the live gauges.
func TestMetricsDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if code, _, errOut := mdrun(t, "-bench", "lj", "-atoms", "2000", "-ranks", "2", "-workers", "2",
		"-steps", "20", "-thermo", "10", "-metrics", path); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	for r := 0; r < 2; r++ {
		for _, name := range []string{
			obs.RankMetric("pair.ops", r),
			obs.RankMetric("comm.halo_bytes", r),
			fmt.Sprintf("mpi.live_calls{func=MPI_Sendrecv,rank=%d}", r),
			obs.KernelMetric("par.live_runs", r, "pair_rows"),
			obs.RankMetric("mpi.wait_share", r),
		} {
			if snap.Gauges[name] == 0 {
				t.Errorf("gauge %s is %v, want non-zero", name, snap.Gauges[name])
			}
		}
	}
	retired := regexp.MustCompile(`^(mpi\.MPI_\w+\.calls\{rank=|par\.runs\{)`)
	for name := range snap.Counters {
		if retired.MatchString(name) {
			t.Errorf("retired counter %s in the dump", name)
		}
	}
	for name := range snap.Gauges {
		if retired.MatchString(name) {
			t.Errorf("retired series %s in the dump", name)
		}
	}
}
