package harness

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/fault"
	"gomd/internal/obs"
	"gomd/internal/trace"
	"gomd/internal/vec"
	"gomd/internal/workload"
)

// bitSnapshot captures the exact position/velocity bits of every owned
// atom by tag.
func bitSnapshot(e *domain.Engine) map[int64][2]vec.V3 {
	out := map[int64][2]vec.V3{}
	for _, s := range e.Sims {
		st := s.Store
		for i := 0; i < st.N; i++ {
			out[st.Tag[i]] = [2]vec.V3{st.Pos[i], st.Vel[i]}
		}
	}
	return out
}

func requireBitIdentical(t *testing.T, want, got map[int64][2]vec.V3) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("atom count mismatch: %d vs %d", len(want), len(got))
	}
	bad := 0
	for tag, w := range want {
		g, ok := got[tag]
		if !ok {
			t.Fatalf("tag %d missing from recovered trajectory", tag)
		}
		if w != g {
			if bad == 0 {
				t.Errorf("tag %d: want pos %v vel %v, got pos %v vel %v", tag, w[0], w[1], g[0], g[1])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d atoms differ bitwise", bad, len(want))
	}
}

func wlFactory(name workload.Name, atoms int, workers int, inj *fault.Injector) domain.Factory {
	return func() (core.Config, *atom.Store, error) {
		cfg, st, err := workload.Build(name, workload.Options{Atoms: atoms, Seed: 2022})
		cfg.Workers = workers
		cfg.Fault = inj
		return cfg, st, err
	}
}

// checkpointRestartCase checkpoints a 4-rank run mid-flight, lets it
// finish, then places the mid-run checkpoint as the newest generation of
// a fresh store: a Supervisor started on that store must resume from it
// and continue bit-identically.
func checkpointRestartCase(t *testing.T, name workload.Name, atoms int) {
	t.Helper()
	const ranks, workers, every, mid, total = 4, 2, 10, 20, 40
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	sup := &Supervisor{
		Factory:         wlFactory(name, atoms, workers, nil),
		Ranks:           ranks,
		CheckpointEvery: every,
		CheckpointPath:  path,
	}
	if err := sup.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer sup.Close()
	if err := sup.Run(mid); err != nil {
		t.Fatalf("Run to step %d: %v", mid, err)
	}
	// Put the mid-run checkpoint aside, as the newest generation of the
	// store the resumed run is started on, before later ones overwrite it.
	resumed := filepath.Join(dir, "resumed.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("mid-run checkpoint missing: %v", err)
	}
	if err := os.WriteFile(resumed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(total - mid); err != nil {
		t.Fatalf("Run to step %d: %v", total, err)
	}
	want := bitSnapshot(sup.Engine())

	res := &Supervisor{
		Factory:         wlFactory(name, atoms, workers, nil),
		Ranks:           ranks,
		CheckpointEvery: every,
		CheckpointPath:  resumed,
	}
	if err := res.Start(); err != nil {
		t.Fatalf("restore Start: %v", err)
	}
	defer res.Close()
	if got := res.Step(); got != mid {
		t.Fatalf("restored at step %d, want %d", got, mid)
	}
	if err := res.Run(total - mid); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	requireBitIdentical(t, want, bitSnapshot(res.Engine()))
}

// TestCheckpointRestartBitExactLJ: 4 ranks x 2 workers, LJ.
func TestCheckpointRestartBitExactLJ(t *testing.T) {
	checkpointRestartCase(t, workload.LJ, 2048)
}

// TestCheckpointRestartBitExactRhodo: 4 ranks x 2 workers, rhodopsin
// (CHARMM pair + PPPM + SHAKE + NPT: exercises kspace setup replay, fix
// state, cluster migration, and the shared RNG stream).
func TestCheckpointRestartBitExactRhodo(t *testing.T) {
	checkpointRestartCase(t, workload.Rhodo, 1500)
}

// TestSupervisorKillRankRecovery is the acceptance scenario: a 4-rank
// rhodopsin run with rank 2 killed at step 50 must auto-recover from
// the last checkpoint, finish, and match the uninterrupted seeded run
// bit-for-bit, with the recovery visible in metrics and the data log.
func TestSupervisorKillRankRecovery(t *testing.T) {
	const ranks, workers, every, total = 4, 2, 20, 60
	dir := t.TempDir()

	// Uninterrupted reference.
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

	// Faulted run: rank 2 dies at step 50; last checkpoint is step 40.
	inj, err := fault.Parse("kill:rank=2,step=50", 1)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	var logBuf bytes.Buffer
	sup := &Supervisor{
		Factory:         wlFactory(workload.Rhodo, 1500, workers, inj),
		Ranks:           ranks,
		CheckpointEvery: every,
		CheckpointPath:  filepath.Join(dir, "faulted.ckpt"),
		Retries:         2,
		Metrics:         metrics,
		Trace:           trace.New(&logBuf),
	}
	if err := sup.Start(); err != nil {
		t.Fatalf("faulted Start: %v", err)
	}
	defer sup.Close()
	if err := sup.Run(total); err != nil {
		t.Fatalf("supervised run did not recover: %v", err)
	}
	if got := sup.Step(); got != total {
		t.Fatalf("finished at step %d, want %d", got, total)
	}
	if sup.Attempts() != 1 {
		t.Fatalf("recoveries = %d, want 1", sup.Attempts())
	}
	requireBitIdentical(t, want, bitSnapshot(sup.Engine()))

	// Recovery must be visible in the metrics registry and the data log.
	if v := metrics.Counter("recover.attempts").Value(); v != 1 {
		t.Fatalf("recover.attempts = %d, want 1", v)
	}
	if v := metrics.Counter(obs.RankMetric("recover.rank_errors", 2)).Value(); v != 1 {
		t.Fatalf("recover.rank_errors{rank=2} = %d, want 1", v)
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("recovery")) {
		t.Fatal("data log should record the recovery event")
	}
}

// TestSupervisorRetryBudgetExhausted: a fault that lands before any
// checkpoint exists restarts from scratch; one that re-fires every
// attempt must eventually surface the rank error.
func TestSupervisorRetryBudgetExhausted(t *testing.T) {
	const ranks = 4
	// Injector with a kill per attempt beyond the budget: since kills are
	// one-shot, use three kills at successive steps to keep failing.
	inj, err := fault.Parse("kill:rank=1,step=5;kill:rank=1,step=6;kill:rank=1,step=7", 1)
	if err != nil {
		t.Fatal(err)
	}
	sup := &Supervisor{
		Factory:         wlFactory(workload.LJ, 2048, 1, inj),
		Ranks:           ranks,
		CheckpointEvery: 3,
		CheckpointPath:  filepath.Join(t.TempDir(), "lj.ckpt"),
		Retries:         2,
	}
	if err := sup.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer sup.Close()
	runErr := sup.Run(20)
	if runErr == nil {
		t.Fatal("third kill should exhaust the 2-retry budget")
	}
	var k *fault.Killed
	if !errors.As(runErr, &k) {
		t.Fatalf("error should unwrap to *fault.Killed, got %v", runErr)
	}
	if sup.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2", sup.Attempts())
	}
}

// TestSupervisorRecoversWithoutCheckpoint: a rank failure before the
// first checkpoint restarts the run from step 0.
func TestSupervisorRecoversWithoutCheckpoint(t *testing.T) {
	inj, err := fault.Parse("kill:rank=0,step=2", 1)
	if err != nil {
		t.Fatal(err)
	}
	sup := &Supervisor{
		Factory:         wlFactory(workload.LJ, 2048, 1, inj),
		Ranks:           2,
		CheckpointEvery: 100, // never reached before the kill
		CheckpointPath:  filepath.Join(t.TempDir(), "lj.ckpt"),
		Retries:         1,
	}
	if err := sup.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer sup.Close()
	if err := sup.Run(10); err != nil {
		t.Fatalf("run should restart from scratch and finish: %v", err)
	}
	if got := sup.Step(); got != 10 {
		t.Fatalf("finished at step %d, want 10", got)
	}
	if sup.Attempts() != 1 {
		t.Fatalf("attempts = %d, want 1", sup.Attempts())
	}
}
