package dump_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/box"
	"gomd/internal/core"
	"gomd/internal/dump"
	"gomd/internal/vec"
	"gomd/internal/workload"
)

func sampleStore() (*atom.Store, box.Box) {
	st := atom.New(3)
	st.Add(atom.Atom{Tag: 1, Type: 1, Pos: vec.New(0.5, 1.5, 2.5), Vel: vec.New(1, 0, 0), Charge: -0.8,
		Bonds:   []atom.BondRef{{Type: 1, Partner: 2}},
		Angles:  []atom.AngleRef{{Type: 1, A: 2, C: 3}},
		Special: []atom.SpecialRef{{Tag: 2, Kind: atom.Special12}}})
	st.Add(atom.Atom{Tag: 2, Type: 2, Mol: 1, Pos: vec.New(1, 1, 1), Charge: 0.4})
	st.Add(atom.Atom{Tag: 3, Type: 2, Mol: 1, Pos: vec.New(2, 2, 2), Charge: 0.4})
	return st, box.NewSlab(vec.V3{}, vec.New(10, 10, 20))
}

func TestWriteXYZ(t *testing.T) {
	st, bx := sampleStore()
	var buf bytes.Buffer
	if err := dump.WriteXYZ(&buf, st, bx, 42); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("xyz lines: %d\n%s", len(lines), buf.String())
	}
	if lines[0] != "3" {
		t.Errorf("count line %q", lines[0])
	}
	if !strings.Contains(lines[1], "step=42") {
		t.Errorf("comment line %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "1 0.5 1.5 2.5") {
		t.Errorf("atom line %q", lines[2])
	}
}

func TestWriteLAMMPSDump(t *testing.T) {
	st, bx := sampleStore()
	var buf bytes.Buffer
	if err := dump.WriteLAMMPSDump(&buf, st, bx, 7); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ITEM: TIMESTEP\n7\n",
		"ITEM: NUMBER OF ATOMS\n3\n",
		"ITEM: BOX BOUNDS pp pp ff",
		"ITEM: ATOMS id type x y z vx vy vz",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestDataFileRoundTrip: write_data -> read_data preserves the system,
// including molecular topology and charges.
func TestDataFileRoundTrip(t *testing.T) {
	cfg, st := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: 90, Seed: 8})
	var buf bytes.Buffer
	if err := dump.WriteData(&buf, st, cfg.Box, cfg.Mass); err != nil {
		t.Fatal(err)
	}
	df, err := dump.ReadData(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(df.Atoms) != st.N {
		t.Fatalf("atoms %d vs %d", len(df.Atoms), st.N)
	}
	if df.Box.Lengths() != cfg.Box.Lengths() {
		t.Errorf("box %v vs %v", df.Box.Lengths(), cfg.Box.Lengths())
	}
	if len(df.Masses) != 2 || df.Masses[0] != cfg.Mass[0] {
		t.Errorf("masses %v", df.Masses)
	}
	st2 := df.Store()
	// Per-atom state preserved (charge, position, molecule).
	for i := 0; i < st.N; i++ {
		j, ok := st2.Lookup(st.Tag[i])
		if !ok {
			t.Fatalf("tag %d missing", st.Tag[i])
		}
		if st2.Charge[j] != st.Charge[i] || st2.Mol[j] != st.Mol[i] {
			t.Fatalf("atom %d state mismatch", st.Tag[i])
		}
		if st2.Pos[j].Sub(st.Pos[i]).Norm() > 1e-8 {
			t.Fatalf("atom %d position drift", st.Tag[i])
		}
	}
	// Topology counts preserved.
	count := func(s *atom.Store) (b, a int) {
		for i := 0; i < s.N; i++ {
			b += len(s.Bonds[i])
			a += len(s.Angles[i])
		}
		return
	}
	b1, a1 := count(st)
	b2, a2 := count(st2)
	if b1 != b2 || a1 != a2 {
		t.Errorf("topology: bonds %d vs %d, angles %d vs %d", b1, b2, a1, a2)
	}
}

// TestDataFileRunnable: a system read from a data file must run and
// conserve its molecule structure.
func TestDataFileRunnable(t *testing.T) {
	cfg, st := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: 90, Seed: 8})
	var buf bytes.Buffer
	if err := dump.WriteData(&buf, st, cfg.Box, cfg.Mass); err != nil {
		t.Fatal(err)
	}
	df, err := dump.ReadData(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, _ := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: 90, Seed: 8})
	cfg2.Box = df.Box
	sim := core.New(cfg2, df.Store())
	sim.Run(5)
	th := sim.ComputeThermo()
	if math.IsNaN(th.TotalEnergy) {
		t.Fatal("NaN energy from data-file system")
	}
}

func TestReadDataRejectsBadInput(t *testing.T) {
	bad := []string{
		"",
		"comment\n5 atoms\nAtoms\n1 1 1 0 0 0 0\n", // promises 5, has 1
		"comment\nAtoms\nnot numbers\n",
	}
	for _, src := range bad {
		if _, err := dump.ReadData(strings.NewReader(src)); err == nil {
			t.Errorf("bad data file accepted: %q", src)
		}
	}
}
