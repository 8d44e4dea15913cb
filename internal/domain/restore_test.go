package domain_test

import (
	"errors"
	"testing"
	"time"

	"gomd/internal/atom"
	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/mpi"
	"gomd/internal/workload"
)

// ljCheckpoint runs LJ on nranks ranks for 10 steps and captures the
// engine as a monolithic checkpoint.
func ljCheckpoint(t *testing.T, atoms, nranks int) (domain.Factory, *ckpt.Checkpoint) {
	t.Helper()
	f := func() (core.Config, *atom.Store, error) {
		return workload.Build(workload.LJ, workload.Options{Atoms: atoms, Seed: 7})
	}
	eng, err := domain.New(f, nranks)
	if err != nil {
		t.Fatalf("domain.New: %v", err)
	}
	defer eng.Close()
	if err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	s0 := eng.Sims[0]
	ck := &ckpt.Checkpoint{
		Step: s0.Step, Ranks: nranks, Grid: eng.Grid,
		Box: s0.Box, SetupBox: s0.SetupBox, Q2Setup: s0.Q2Setup,
		PerRank: make([]ckpt.Rank, nranks),
	}
	for r, s := range eng.Sims {
		ck.PerRank[r] = ckpt.CaptureRank(s)
	}
	return f, ck
}

// failSecond wraps f to fail on its second call — the first per-rank
// config an engine build asks for after the one it sizes the world with.
func failSecond(f domain.Factory, err error) domain.Factory {
	calls := 0
	return func() (core.Config, *atom.Store, error) {
		if calls++; calls == 2 {
			return core.Config{}, nil, err
		}
		return f()
	}
}

// TestRestoreFactoryFailure: Restore is an adapter over RestoreOnWorld
// and the checkpoint's shard-set view, so a factory failing mid-build
// comes back as an error, and the view — which shares the checkpoint's
// records — leaves the checkpoint good for the next attempt.
func TestRestoreFactoryFailure(t *testing.T) {
	f, ck := ljCheckpoint(t, 256, 2)
	boom := errors.New("boom")
	if eng, err := domain.Restore(failSecond(f, boom), ck); !errors.Is(err, boom) || eng != nil {
		t.Fatalf("Restore with a failing factory: engine %v, err %v", eng, err)
	}
	eng, err := domain.Restore(f, ck)
	if err != nil {
		t.Fatalf("Restore after the failed attempt: %v", err)
	}
	defer eng.Close()
	if eng.Step() != 10 || eng.NGlobal() != 256 {
		t.Errorf("restored step %d, %d atoms; want step 10, 256 atoms", eng.Step(), eng.NGlobal())
	}
}

// TestRestoreFactoryFailureClosesWorld: the failing build must not leave
// its world open. A channel world holds nothing to observe, so this runs
// the same path on a world spanning two "processes": when the first
// one's factory fails, its peer must see the world die instead of
// waiting forever — whether the peer is parked in the restore's first
// collective by then, or parks there only after the failed process has
// closed its world and left.
func TestRestoreFactoryFailureClosesWorld(t *testing.T) {
	f, ck := ljCheckpoint(t, 864, 3)
	for _, tc := range []struct {
		name        string
		parkedFirst bool // the peer parks before the factory fails
	}{
		{"peer parked before the failure", true},
		{"peer parks after the failure", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co, err := mpi.ListenTCP("127.0.0.1:0", 3)
			if err != nil {
				t.Fatal(err)
			}
			failed := make(chan struct{})
			peerFactory := f
			if !tc.parkedFirst {
				// The peer starts its build only once the failed process
				// has closed its world.
				peerFactory = func() (core.Config, *atom.Store, error) {
					<-failed
					return f()
				}
			}
			peerWorld := make(chan *mpi.World, 1)
			peer := make(chan error, 1)
			go func() {
				w, err := mpi.JoinTCP(co.Addr(), []int{2}, mpi.WorldOptions{})
				peerWorld <- w
				if err == nil {
					var eng *domain.Engine
					if eng, err = domain.RestoreOnWorld(peerFactory, w, ck.ShardSet()); err == nil {
						eng.Close()
					}
				}
				peer <- err
			}()
			w, err := co.Host([]int{0, 1}, mpi.WorldOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pw := <-peerWorld
			boom := errors.New("boom")
			failing := failSecond(f, boom)
			_, err = domain.RestoreOnWorld(func() (core.Config, *atom.Store, error) {
				for tc.parkedFirst && pw != nil && pw.SnapshotComm()[2].Parked == nil {
					time.Sleep(time.Millisecond)
				}
				return failing()
			}, w, ck.ShardSet())
			close(failed)
			if !errors.Is(err, boom) {
				t.Fatalf("RestoreOnWorld with a failing factory: %v", err)
			}
			select {
			case err := <-peer:
				if err == nil {
					t.Error("the peer restored against a process that never built its ranks")
				}
			case <-time.After(20 * time.Second):
				t.Fatal("the peer is still waiting: the failed build left its world open")
			}
		})
	}
}
