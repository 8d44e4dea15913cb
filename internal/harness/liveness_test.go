package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gomd/internal/ckpt"
	"gomd/internal/fault"
	"gomd/internal/obs"
	"gomd/internal/trace"
	"gomd/internal/workload"
)

// hangDeadline is sized for the race detector on a loaded 1-CPU CI
// host: long enough that a genuinely progressing rank never trips it,
// short enough to keep the suite fast.
const hangDeadline = 2 * time.Second

// TestSupervisorHangRecovery is the liveness acceptance scenario: rank
// 2 of a 4-rank rhodopsin run parks forever at step 50 (no panic, no
// crash — the failure class PR 5 adds). The watchdog must convert the
// silence into a diagnosed recovery from the step-40 checkpoint, and
// the finished trajectory must match the uninterrupted run bit for bit.
func TestSupervisorHangRecovery(t *testing.T) {
	const ranks, workers, every, total = 4, 2, 20, 60
	dir := t.TempDir()

	// Uninterrupted reference (same checkpoint cadence: checkpoint steps
	// force neighbor rebuilds, so the cadence is part of the trajectory).
	ref := &Supervisor{
		Factory:         wlFactory(workload.Rhodo, 1500, workers, nil),
		Ranks:           ranks,
		CheckpointEvery: every,
		CheckpointPath:  filepath.Join(dir, "ref.ckpt"),
	}
	if err := ref.Start(); err != nil {
		t.Fatalf("reference Start: %v", err)
	}
	defer ref.Close()
	if err := ref.Run(total); err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	want := bitSnapshot(ref.Engine())

	inj, err := fault.Parse("hang:rank=2,step=50", 1)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	var logBuf bytes.Buffer
	sup := &Supervisor{
		Factory:         wlFactory(workload.Rhodo, 1500, workers, inj),
		Ranks:           ranks,
		CheckpointEvery: every,
		CheckpointPath:  filepath.Join(dir, "hung.ckpt"),
		Retries:         2,
		HangTimeout:     hangDeadline,
		Metrics:         metrics,
		Trace:           trace.New(&logBuf),
	}
	if err := sup.Start(); err != nil {
		t.Fatalf("hung Start: %v", err)
	}
	defer sup.Close()
	if err := sup.Run(total); err != nil {
		t.Fatalf("supervised run did not recover from the hang: %v", err)
	}
	if got := sup.Step(); got != total {
		t.Fatalf("finished at step %d, want %d", got, total)
	}
	if sup.Attempts() != 1 {
		t.Fatalf("recoveries = %d, want 1", sup.Attempts())
	}
	requireBitIdentical(t, want, bitSnapshot(sup.Engine()))

	// The diagnosis must be attributed and visible: the watchdog counter
	// fired, the culprit rank (2, the parked one — not its victims) is
	// charged, and the data log carries the parked-primitive diagnosis.
	if v := metrics.Counter("health.hangs").Value(); v != 1 {
		t.Errorf("health.hangs = %d, want 1", v)
	}
	if v := metrics.Counter(obs.RankMetric("recover.rank_errors", 2)).Value(); v != 1 {
		t.Errorf("recover.rank_errors{rank=2} = %d, want 1", v)
	}
	log := logBuf.String()
	for _, want := range []string{"recovery", "injected-hang", `"hang":true`, "checkpoint-restore"} {
		if !bytes.Contains([]byte(log), []byte(want)) {
			t.Errorf("data log lost %q:\n%s", want, log)
		}
	}
}

// TestSupervisorCheckpointGenerationFallback is the integrity
// acceptance scenario: the newest checkpoint generation is truncated on
// disk right after it lands; when a later crash forces a restore, CRC
// verification must reject it and fall back to the previous intact
// generation, bit-exactly, with both the rejection and the chosen
// generation in the data log.
func TestSupervisorCheckpointGenerationFallback(t *testing.T) {
	const ranks, every, total = 4, 10, 60
	dir := t.TempDir()

	ref := &Supervisor{
		Factory:         wlFactory(workload.LJ, 2048, 1, nil),
		Ranks:           ranks,
		CheckpointEvery: every,
		CheckpointPath:  filepath.Join(dir, "ref.ckpt"),
	}
	if err := ref.Start(); err != nil {
		t.Fatalf("reference Start: %v", err)
	}
	defer ref.Close()
	if err := ref.Run(total); err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	want := bitSnapshot(ref.Engine())

	// Step-30 checkpoint truncated after write; rank 1 dies at step 35.
	// At recovery time generation 0 (step 30) fails CRC and generation 1
	// (step 20) must carry the run.
	inj, err := fault.Parse("truncate-ckpt:step=30;kill:rank=1,step=35", 1)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	var logBuf bytes.Buffer
	path := filepath.Join(dir, "faulted.ckpt")
	sup := &Supervisor{
		Factory:         wlFactory(workload.LJ, 2048, 1, inj),
		Ranks:           ranks,
		CheckpointEvery: every,
		CheckpointPath:  path,
		KeepCheckpoints: 2,
		Retries:         2,
		Metrics:         metrics,
		Trace:           trace.New(&logBuf),
	}
	if err := sup.Start(); err != nil {
		t.Fatalf("faulted Start: %v", err)
	}
	defer sup.Close()
	if err := sup.Run(total); err != nil {
		t.Fatalf("supervised run did not fall back to an intact generation: %v", err)
	}
	if sup.Attempts() != 1 {
		t.Fatalf("recoveries = %d, want 1", sup.Attempts())
	}
	requireBitIdentical(t, want, bitSnapshot(sup.Engine()))

	if v := metrics.Counter("recover.ckpt_rejected").Value(); v != 1 {
		t.Errorf("recover.ckpt_rejected = %d, want 1", v)
	}
	log := logBuf.String()
	for _, want := range []string{"checkpoint-verify", `"ok":false`, "checkpoint-restore", `"generation":1`} {
		if !bytes.Contains([]byte(log), []byte(want)) {
			t.Errorf("data log lost %q:\n%s", want, log)
		}
	}
}

// TestSupervisorResumeFallsBackPastDamagedGenerations: Start resumes
// from the run's own store, and a damaged generation there is rejected
// and logged, never restored. With KeepCheckpoints 2 a truncated newest
// generation falls back to the older one; with both truncated the run
// starts from scratch. Either way the run ends bit-identical to an
// uninterrupted one at the same absolute step.
func TestSupervisorResumeFallsBackPastDamagedGenerations(t *testing.T) {
	const ranks, every, written, total = 2, 10, 20, 30
	dir := t.TempDir()
	config := func(path string, log *bytes.Buffer, metrics *obs.Registry) *Supervisor {
		return &Supervisor{
			Factory:         wlFactory(workload.LJ, 2048, 1, nil),
			Ranks:           ranks,
			CheckpointEvery: every,
			CheckpointPath:  path,
			KeepCheckpoints: 2,
			Metrics:         metrics,
			Trace:           trace.New(log),
		}
	}
	run := func(sup *Supervisor, to int64) {
		t.Helper()
		if err := sup.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		if err := sup.Run(int(to - sup.Step())); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	ref := config(filepath.Join(dir, "ref.ckpt"), &bytes.Buffer{}, nil)
	run(ref, total)
	defer ref.Close()
	want := bitSnapshot(ref.Engine())

	// A store holding generations at steps 20 (newest) and 10; each case
	// starts on its own copy with some generations truncated.
	src := filepath.Join(dir, "src.ckpt")
	writer := config(src, &bytes.Buffer{}, nil)
	run(writer, written)
	writer.Close()

	for _, tc := range []struct {
		name     string
		damaged  []int // generations truncated before Start
		restored int64 // the step Start resumes from; -1 = scratch
	}{
		{"newest-damaged", []int{0}, 10},
		{"all-damaged", []int{0, 1}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			for g := 0; g < 2; g++ {
				data, err := os.ReadFile(ckpt.GenerationPath(src, g))
				if err != nil {
					t.Fatal(err)
				}
				if slices.Contains(tc.damaged, g) {
					data = data[:len(data)-7]
				}
				if err := os.WriteFile(ckpt.GenerationPath(path, g), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var logBuf bytes.Buffer
			metrics := obs.NewRegistry()
			sup := config(path, &logBuf, metrics)
			run(sup, total)
			defer sup.Close()
			if got := sup.LastRestore(); got != tc.restored {
				t.Fatalf("Start restored from %d, want %d", got, tc.restored)
			}
			requireBitIdentical(t, want, bitSnapshot(sup.Engine()))
			if v := metrics.Counter("recover.ckpt_rejected").Value(); v != int64(len(tc.damaged)) {
				t.Errorf("recover.ckpt_rejected = %d, want %d", v, len(tc.damaged))
			}
			log := logBuf.String()
			for _, want := range []string{"checkpoint-verify", `"ok":false`, "truncated", "checkpoint-restore"} {
				if !strings.Contains(log, want) {
					t.Errorf("data log lost %q:\n%s", want, log)
				}
			}
		})
	}
}

// TestSoakFaultCampaign is the randomized (seeded) kill/hang/corrupt
// campaign behind `make soak`: three workloads each draw a fault plan
// from a fixed-seed stream, run supervised, and must finish bit-exact
// against their fault-free references. The draws are deterministic, so
// a failure reproduces exactly.
func TestSoakFaultCampaign(t *testing.T) {
	const ranks, every, total = 4, 10, 40
	// Seed 2032 is chosen so the three scenarios between them draw all
	// three secondary fault kinds (hang, flip-ckpt, truncate-ckpt).
	rnd := rand.New(rand.NewSource(2032))
	scenarios := []struct {
		name  workload.Name
		atoms int
	}{
		{workload.LJ, 2048},
		{workload.Chain, 2048},
		{workload.EAM, 2048},
	}
	for _, sc := range scenarios {
		// Draw outside t.Run so the stream position is deterministic even
		// if a subtest fails early.
		spec := fmt.Sprintf("kill:rank=%d,step=%d", rnd.Intn(ranks), 12+rnd.Intn(total-15))
		switch rnd.Intn(3) {
		case 0:
			spec += fmt.Sprintf(";hang:rank=%d,step=%d", rnd.Intn(ranks), 12+rnd.Intn(total-15))
		case 1:
			spec += fmt.Sprintf(";truncate-ckpt:step=%d", every*(1+rnd.Intn(3)))
		default:
			spec += fmt.Sprintf(";flip-ckpt:step=%d", every*(1+rnd.Intn(3)))
		}
		t.Run(fmt.Sprintf("%s/%s", sc.name, spec), func(t *testing.T) {
			dir := t.TempDir()
			ref := &Supervisor{
				Factory:         wlFactory(sc.name, sc.atoms, 1, nil),
				Ranks:           ranks,
				CheckpointEvery: every,
				CheckpointPath:  filepath.Join(dir, "ref.ckpt"),
			}
			if err := ref.Start(); err != nil {
				t.Fatalf("reference Start: %v", err)
			}
			defer ref.Close()
			if err := ref.Run(total); err != nil {
				t.Fatalf("reference Run: %v", err)
			}
			want := bitSnapshot(ref.Engine())

			inj, err := fault.Parse(spec, 7)
			if err != nil {
				t.Fatalf("Parse(%q): %v", spec, err)
			}
			sup := &Supervisor{
				Factory:         wlFactory(sc.name, sc.atoms, 1, inj),
				Ranks:           ranks,
				CheckpointEvery: every,
				CheckpointPath:  filepath.Join(dir, "soak.ckpt"),
				KeepCheckpoints: 2,
				Retries:         3,
				HangTimeout:     hangDeadline,
			}
			if err := sup.Start(); err != nil {
				t.Fatalf("soak Start: %v", err)
			}
			defer sup.Close()
			if err := sup.Run(total); err != nil {
				t.Fatalf("soak run under %q did not recover: %v", spec, err)
			}
			if sup.Attempts() == 0 {
				t.Errorf("fault plan %q caused no recovery (plan never fired?)", spec)
			}
			requireBitIdentical(t, want, bitSnapshot(sup.Engine()))
		})
	}
}

// TestGenerationPathLayout pins the on-disk naming contract the CLI
// documents: generation 0 is the plain path, older generations append
// .1, .2, ...
func TestGenerationPathLayout(t *testing.T) {
	if got := ckpt.GenerationPath("a/run.ckpt", 0); got != "a/run.ckpt" {
		t.Errorf("gen 0 = %q", got)
	}
	if got := ckpt.GenerationPath("a/run.ckpt", 2); got != "a/run.ckpt.2" {
		t.Errorf("gen 2 = %q", got)
	}
}
