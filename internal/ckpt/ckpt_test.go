package ckpt

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/box"
	"gomd/internal/core"
	"gomd/internal/rng"
	"gomd/internal/vec"
	"gomd/internal/workload"
)

func TestCheckpointFormatRoundTrip(t *testing.T) {
	src := rng.New(99)
	src.Gaussian() // prime the Box-Muller cache so HasGauss round-trips
	ck := &Checkpoint{
		Step:  120,
		Ranks: 2,
		Grid:  [3]int{2, 1, 1},
		Box: box.Box{
			Lo: vec.New(-1, -2, -3), Hi: vec.New(4, 5, 6),
			Periodic: [3]bool{true, true, false},
		},
		SetupBox: box.Box{
			Lo: vec.New(0, 0, 0), Hi: vec.New(3, 3, 3),
			Periodic: [3]bool{true, true, true},
		},
		Q2Setup: 42.5,
		PerRank: []Rank{
			{
				Atoms: []atom.Atom{
					{
						Tag: 1, Type: 2, Mol: 3,
						Pos: vec.New(0.5, 1.5, 2.5), Vel: vec.New(-1, 0, 1), Charge: -0.8,
						Special:   []atom.SpecialRef{{Tag: 2, Kind: atom.Special12}},
						Bonds:     []atom.BondRef{{Type: 1, Partner: 2}},
						Angles:    []atom.AngleRef{{Type: 2, A: 2, C: 3}},
						Dihedrals: []atom.DihedralRef{{Type: 1, A: 2, C: 3, D: 4}},
					},
					{Tag: 2, Type: 1, Pos: vec.New(1, 1, 1)},
				},
				Force:      []vec.V3{vec.New(0.1, 0.2, 0.3), vec.New(-0.4, 0, 7)},
				LastPE:     -123.456,
				LastVirial: 78.9,
				RNG:        src.State(),
				FixState:   [][]float64{{0.25}, {1.5, -2.5}},
				History:    []HistoryEntry{{Owner: 1, Partner: 2, Shear: vec.New(1e-3, 0, -1e-3)}},
			},
			{
				Atoms: []atom.Atom{{Tag: 3, Type: 1, Pos: vec.New(2, 2, 2)}},
				Force: []vec.V3{{}},
				RNG:   rng.New(7).State(),
			},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("round-trip mismatch:\nwrote %+v\nread  %+v", ck, got)
	}
}

func TestCheckpointReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a checkpoint file"))); err == nil {
		t.Fatal("Read should reject bad magic")
	}
	var buf bytes.Buffer
	if err := Write(&buf, &Checkpoint{Ranks: 1, PerRank: make([]Rank, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()-4])); err == nil {
		t.Fatal("Read should reject truncation")
	}
}

// bitSnapshot captures the exact position/velocity bits by tag.
type bitSnapshot map[int64][2]vec.V3

func snapOwned(stores ...*atom.Store) bitSnapshot {
	out := bitSnapshot{}
	for _, st := range stores {
		for i := 0; i < st.N; i++ {
			out[st.Tag[i]] = [2]vec.V3{st.Pos[i], st.Vel[i]}
		}
	}
	return out
}

func requireBitIdentical(t *testing.T, want, got bitSnapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("atom count mismatch: %d vs %d", len(want), len(got))
	}
	bad := 0
	for tag, w := range want {
		g, ok := got[tag]
		if !ok {
			t.Fatalf("tag %d missing from restored trajectory", tag)
		}
		if w != g { // exact float equality: restart must be bit-exact
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

// TestCheckpointSerialRestartBitExact: a serial LJ run checkpointed at
// step 20 and restored must reproduce the uninterrupted run's state at
// step 40 bit-for-bit.
func TestCheckpointSerialRestartBitExact(t *testing.T) {
	const every, mid, total = 10, 20, 40
	dir := t.TempDir()
	path := filepath.Join(dir, "lj.ckpt")

	o := workload.Options{Atoms: 500, Seed: 7}
	cfg, st := workload.MustBuild(workload.LJ, o)
	cfg.CheckpointEvery = every
	w := NewWriter(path, 1)
	cfg.CheckpointSink = w.Sink()
	ref := core.New(cfg, st)
	ref.Run(mid)

	ck, err := ReadFile(path)
	if err != nil {
		t.Fatalf("reading mid-run checkpoint: %v", err)
	}
	if ck.Step != mid {
		t.Fatalf("checkpoint at step %d, want %d", ck.Step, mid)
	}

	ref.Run(total - mid)
	want := snapOwned(ref.Store)

	// Restore into a fresh simulation and run the remaining steps. The
	// restored run keeps the same CheckpointEvery so the forced-rebuild
	// schedule matches; it writes its own checkpoints to a new path.
	cfg2, _ := workload.MustBuild(workload.LJ, o)
	cfg2.CheckpointEvery = every
	w2 := NewWriter(filepath.Join(dir, "lj2.ckpt"), 1)
	cfg2.CheckpointSink = w2.Sink()
	res, err := RestoreSerial(cfg2, ck)
	if err != nil {
		t.Fatalf("RestoreSerial: %v", err)
	}
	if res.Step != mid {
		t.Fatalf("restored at step %d, want %d", res.Step, mid)
	}
	res.Run(total - mid)
	requireBitIdentical(t, want, snapOwned(res.Store))
}

// TestCheckpointSerialRestartRejectsMultiRank: serial restore of a
// multi-rank checkpoint must fail loudly, not silently re-decompose.
func TestCheckpointSerialRestartRejectsMultiRank(t *testing.T) {
	cfg, _ := workload.MustBuild(workload.LJ, workload.Options{Atoms: 500, Seed: 7})
	ck := &Checkpoint{Ranks: 4, PerRank: make([]Rank, 4)}
	if _, err := RestoreSerial(cfg, ck); err == nil {
		t.Fatal("RestoreSerial should reject a 4-rank checkpoint")
	}
}

// TestCheckpointSerialRestoreRefusesHugeBinGrid: a checkpoint whose box
// spans 1e7 σ asks the neighbor list for a bin grid it refuses; serial
// restore returns that as a too-many-bins SimError instead of panicking
// in the caller.
func TestCheckpointSerialRestoreRefusesHugeBinGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lj.ckpt")
	o := workload.Options{Atoms: 256, Seed: 7}
	cfg, st := workload.MustBuild(workload.LJ, o)
	cfg.CheckpointEvery = 5
	cfg.CheckpointSink = NewWriter(path, 1).Sink()
	core.New(cfg, st).Run(5)
	ck, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck.Box.Hi.X = ck.Box.Lo.X + 1e7

	cfg2, _ := workload.MustBuild(workload.LJ, o)
	_, err = RestoreSerial(cfg2, ck)
	var se *core.SimError
	if !errors.As(err, &se) || se.Kind != core.ErrTooManyBins {
		t.Fatalf("RestoreSerial = %v, want a %s SimError", err, core.ErrTooManyBins)
	}
}
