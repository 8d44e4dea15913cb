// End-to-end drills for distributed (sharded) checkpoints: supervised
// multi-process TCP worlds that crash mid-run must re-rendezvous,
// restore every process from the newest complete shard generation —
// not from step 0 — and finish bit-identical to an unfailed channel
// run, including when the re-rendezvous assigns ranks to different
// processes and when a process dies exactly mid-commit.
package harness

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/fault"
	"gomd/internal/mpi"
	"gomd/internal/trace"
	"gomd/internal/vec"
	"gomd/internal/workload"
)

// ckptCadenceFactory wraps a factory with the checkpoint cadence and a
// no-op sink: checkpoint steps force neighbor rebuilds, so a reference
// run must share the cadence (not the sink) to share the trajectory.
func ckptCadenceFactory(base domain.Factory, every int) domain.Factory {
	return func() (core.Config, *atom.Store, error) {
		cfg, st, err := base()
		cfg.CheckpointEvery = every
		cfg.CheckpointSink = func(*core.Simulation) error { return nil }
		return cfg, st, err
	}
}

// channelCkptReference is channelReference with checkpoint cadence: the
// unfailed single-process trajectory a checkpointed TCP run must match.
func channelCkptReference(t *testing.T, name workload.Name, atoms, ranks, total, every int) map[int64][2]vec.V3 {
	t.Helper()
	ref, err := domain.New(ckptCadenceFactory(wlFactory(name, atoms, 1, nil), every), ranks)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	defer ref.Close()
	if err := ref.Run(total); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return bitSnapshot(ref)
}

// ckptCase describes one checkpointed two-process drill.
type ckptCase struct {
	name    workload.Name
	atoms   int
	total   int
	every   int
	keep    int
	spec    string
	retries int
	// placements[b] assigns ranks to {coordinator, joiner} on build b
	// (the last entry repeats). Defaults to {0,1}/{2,3} on every build.
	placements [][2][]int
}

func (tc ckptCase) placement(build int) [2][]int {
	if len(tc.placements) == 0 {
		return [2][]int{{0, 1}, {2, 3}}
	}
	if build >= len(tc.placements) {
		build = len(tc.placements) - 1
	}
	return tc.placements[build]
}

// runCkptCase drives one checkpointed drill: two supervised processes
// over loopback TCP, both checkpointing into one shared shard store.
// Returns the supervisors (still open; caller asserts and closes), the
// merged final bits, and each supervisor's JSONL trace.
func runCkptCase(t *testing.T, tc ckptCase) ([]*Supervisor, map[int64][2]vec.V3, []*bytes.Buffer) {
	t.Helper()
	const ranks = 4
	path := filepath.Join(t.TempDir(), "run.ckpt")
	addrCh := make(chan string, 2*(tc.retries+1))
	logs := []*bytes.Buffer{{}, {}}
	mkSup := func(i int, coordinator bool) *Supervisor {
		inj, err := fault.Parse(tc.spec, 7)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		s := &Supervisor{
			Factory:         wlFactory(tc.name, tc.atoms, 1, inj),
			Ranks:           ranks,
			CheckpointEvery: tc.every,
			CheckpointPath:  path,
			KeepCheckpoints: tc.keep,
			Fault:           inj,
			Retries:         tc.retries,
			HangTimeout:     hangDeadline,
			Trace:           trace.New(logs[i]),
		}
		builds := 0
		if coordinator {
			s.WorldBuilder = func() (*mpi.World, error) {
				local := tc.placement(builds)[0]
				builds++
				co, err := mpi.ListenTCP("127.0.0.1:0", ranks)
				if err != nil {
					return nil, err
				}
				addrCh <- co.Addr()
				return co.Host(local, mpi.WorldOptions{})
			}
		} else {
			s.WorldBuilder = func() (*mpi.World, error) {
				local := tc.placement(builds)[1]
				builds++
				return mpi.JoinTCP(<-addrCh, local, mpi.WorldOptions{})
			}
		}
		return s
	}
	// A scratch restart replays from Step()==0 inside Drive; a generation
	// restore re-advances inside Run to the same target on every process.
	drive := func(s *Supervisor) error {
		if err := s.Start(); err != nil {
			return err
		}
		_, err := s.Drive(context.Background(), context.Background(), Drive{Target: int64(tc.total)})
		return err
	}
	sups := []*Supervisor{mkSup(0, true), mkSup(1, false)}
	errs := make([]error, len(sups))
	var wg sync.WaitGroup
	for i, s := range sups {
		wg.Add(1)
		go func(i int, s *Supervisor) {
			defer wg.Done()
			errs[i] = drive(s)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d under %q: %v", i, tc.spec, err)
		}
	}
	got := mergeSnapshots(t,
		localBitSnapshot(sups[0].Engine()), localBitSnapshot(sups[1].Engine()))
	return sups, got, logs
}

// requireRestoredFrom asserts every supervisor's latest build restored
// the given generation (not scratch, not an older one).
func requireRestoredFrom(t *testing.T, sups []*Supervisor, step int64) {
	t.Helper()
	for i, s := range sups {
		if got := s.LastRestore(); got != step {
			t.Errorf("process %d restored from generation %d, want %d", i, got, step)
		}
	}
}

// TestTCPCheckpointKillRecovery is the flagship drill: a joiner-hosted
// rank dies at step 50 of a 60-step two-process run checkpointed every
// 20 steps. Both processes must re-rendezvous, restore from generation
// 40 (the newest complete one — not step 0), and finish bit-identical
// to the unfailed channel run. The recovery JSONL must tie the
// incident together: transport kind, world id, and chosen generation.
func TestTCPCheckpointKillRecovery(t *testing.T) {
	const atoms, total, every = 2048, 60, 20
	want := channelCkptReference(t, workload.LJ, atoms, 4, total, every)
	sups, got, logs := runCkptCase(t, ckptCase{
		name: workload.LJ, atoms: atoms, total: total, every: every, keep: 2,
		spec: "kill:rank=2,step=50", retries: 1,
	})
	defer func() {
		for _, s := range sups {
			s.Close()
		}
	}()
	if sups[0].Attempts()+sups[1].Attempts() == 0 {
		t.Error("injected kill never fired")
	}
	requireRestoredFrom(t, sups, 40)
	requireBitIdentical(t, want, got)

	// The joiner hosted the killed rank: its log must carry the recovery
	// with transport identity and the restore with the chosen generation.
	recs, err := trace.Read(bytes.NewReader(logs[1].Bytes()))
	if err != nil {
		t.Fatalf("parsing joiner trace: %v", err)
	}
	var sawRecovery, sawRestore bool
	for _, r := range recs {
		switch r.Kind {
		case "recovery":
			if r.Payload["transport"] != "tcp" {
				t.Errorf("recovery record transport = %v, want tcp", r.Payload["transport"])
			}
			if id, _ := r.Payload["world_id"].(string); len(id) != 16 {
				t.Errorf("recovery record world_id = %v, want 16 hex digits", r.Payload["world_id"])
			}
			sawRecovery = true
		case "checkpoint-restore":
			// JSON numbers decode as float64.
			if gen, _ := r.Payload["generation"].(float64); gen == 40 {
				if r.Payload["transport"] != "tcp" {
					t.Errorf("restore record transport = %v, want tcp", r.Payload["transport"])
				}
				sawRestore = true
			}
		}
	}
	if !sawRecovery {
		t.Error("joiner trace has no recovery record")
	}
	if !sawRestore {
		t.Error("joiner trace has no checkpoint-restore record for generation 40")
	}
}

// TestTCPCheckpointMidCommitFallback kills a joiner rank inside the
// commit window of the step-40 checkpoint: its shard is durable but no
// vote reaches rank 0, so generation 40 stays torn (no manifest).
// Recovery must silently skip the torn generation and restore from
// generation 20, and the finished trajectory must still match.
func TestTCPCheckpointMidCommitFallback(t *testing.T) {
	const atoms, total, every = 2048, 60, 20
	want := channelCkptReference(t, workload.LJ, atoms, 4, total, every)
	sups, got, _ := runCkptCase(t, ckptCase{
		name: workload.LJ, atoms: atoms, total: total, every: every, keep: 2,
		spec: "kill-commit:rank=2,step=40", retries: 1,
	})
	defer func() {
		for _, s := range sups {
			s.Close()
		}
	}()
	if sups[0].Attempts()+sups[1].Attempts() == 0 {
		t.Error("injected mid-commit kill never fired")
	}
	requireRestoredFrom(t, sups, 20)
	requireBitIdentical(t, want, got)
}

// TestTCPCheckpointPlacementSwap proves shards are keyed by rank, not
// by process: the post-crash rendezvous assigns ranks {0,3}/{1,2}
// instead of the original {0,1}/{2,3}, so each process restores ranks
// whose shards were written by two different processes — and the
// trajectory must still finish bit-identical.
func TestTCPCheckpointPlacementSwap(t *testing.T) {
	const atoms, total, every = 2048, 60, 20
	want := channelCkptReference(t, workload.LJ, atoms, 4, total, every)
	sups, got, _ := runCkptCase(t, ckptCase{
		name: workload.LJ, atoms: atoms, total: total, every: every, keep: 2,
		spec: "kill:rank=2,step=50", retries: 1,
		placements: [][2][]int{
			{{0, 1}, {2, 3}},
			{{0, 3}, {1, 2}},
		},
	})
	defer func() {
		for _, s := range sups {
			s.Close()
		}
	}()
	if sups[0].Attempts()+sups[1].Attempts() == 0 {
		t.Error("injected kill never fired")
	}
	requireRestoredFrom(t, sups, 40)
	requireBitIdentical(t, want, got)
}

// TestSoakTCPCheckpointed is the checkpointed-TCP cell of `make soak`:
// seeded kill plus a second drawn fault — hang (watchdog path),
// corrupt-wire (frame CRC path), or truncate-shard (manifest CRC
// fallback path) — against supervised two-process worlds checkpointing
// every 10 steps, over both the LJ and EAM workloads, finishing
// bit-exact against the cadence-matched channel reference. Draws are
// deterministic, so failures reproduce.
func TestSoakTCPCheckpointed(t *testing.T) {
	const atoms, total, every = 2048, 40, 10
	refs := map[workload.Name]map[int64][2]vec.V3{}
	rnd := rand.New(rand.NewSource(9090))
	for run, name := range []workload.Name{workload.LJ, workload.EAM, workload.LJ, workload.EAM} {
		// Draw outside t.Run so the stream position is deterministic even
		// if a subtest fails early; rotate the second fault's kind so every
		// recovery path is always exercised.
		spec := fmt.Sprintf("kill:rank=%d,step=%d", rnd.Intn(4), 15+rnd.Intn(20))
		switch run % 3 {
		case 0:
			spec += fmt.Sprintf(";hang:rank=%d,step=%d", rnd.Intn(4), 15+rnd.Intn(20))
		case 1:
			spec += fmt.Sprintf(";corrupt-wire:step=%d", 15+rnd.Intn(20))
		default:
			spec += fmt.Sprintf(";truncate-shard:step=%d", 10*(1+rnd.Intn(2)))
		}
		name := name
		t.Run(string(name)+"/"+spec, func(t *testing.T) {
			if refs[name] == nil {
				refs[name] = channelCkptReference(t, name, atoms, 4, total, every)
			}
			sups, got, _ := runCkptCase(t, ckptCase{
				name: name, atoms: atoms, total: total, every: every, keep: 2,
				spec: spec, retries: 5,
			})
			defer func() {
				for _, s := range sups {
					s.Close()
				}
			}()
			if sups[0].Attempts()+sups[1].Attempts() == 0 {
				t.Errorf("fault plan %q caused no recovery (plan never fired?)", spec)
			}
			requireBitIdentical(t, refs[name], got)
		})
	}
}
