package ckpt

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/box"
	"gomd/internal/rng"
	"gomd/internal/vec"
)

// Byte-level pins of the four on-disk formats. The files under testdata/
// were written by the reflective binary.Write encoder this package
// started with; whatever encoder is current must reproduce each of them
// byte for byte, and the decoder must read them back to the fixture they
// were built from. ckpt.bytes in the wall-clock benchmark and every
// restore suite rest on exactly this. Regenerate (only when the format
// changes on purpose) with `go test ./internal/ckpt -run Golden -update`.
var updateGolden = flag.Bool("update", false, "rewrite internal/ckpt/testdata golden files")

// goldenGen is a fixed LCG: fixture values must not depend on math/rand's
// algorithm or on any engine kernel.
type goldenGen uint64

func (g *goldenGen) u64() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func (g *goldenGen) f() float64 { return float64(int64(g.u64()>>11))/float64(1<<52) - 1 }

func (g *goldenGen) v3() vec.V3 { return vec.New(g.f(), 10*g.f(), 100*g.f()) }

// goldenLJRank is an LJ-melt share: no topology, a thermostat's fix
// state, and the float edge cases a raw-bits encoding must carry.
func goldenLJRank(seed uint64) Rank {
	g := goldenGen(seed)
	rk := Rank{LastPE: -4.5 * g.f(), LastVirial: g.f()}
	for i := 0; i < 7; i++ {
		rk.Atoms = append(rk.Atoms, atom.Atom{
			Tag: int64(seed*100) + int64(i) + 1, Type: 1, Pos: g.v3(), Vel: g.v3(),
		})
		rk.Force = append(rk.Force, g.v3())
	}
	rk.Atoms[1].Pos = vec.New(math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64)
	rk.Force[2] = vec.New(math.Inf(1), math.Inf(-1), 0)
	rk.RNG = rng.State{S: [4]uint64{g.u64(), g.u64(), g.u64(), g.u64()}, Gauss: g.f(), HasGauss: true}
	rk.FixState = [][]float64{{}, {g.f(), g.f(), g.f()}}
	return rk
}

// goldenRhodoRank is a rhodopsin-surrogate share: charges, molecule ids,
// specials of all three kinds, bonds, angles, dihedrals, and the state
// vectors of an NPT + SHAKE fix stack.
func goldenRhodoRank(seed uint64) Rank {
	g := goldenGen(seed)
	rk := Rank{LastPE: -1e4 * g.f(), LastVirial: 1e3 * g.f()}
	for i := 0; i < 6; i++ {
		tag := int64(seed*100) + int64(i) + 1
		a := atom.Atom{
			Tag: tag, Type: int32(1 + i%3), Mol: int32(1 + i/3),
			Pos: g.v3(), Vel: g.v3(), Charge: 0.417 * g.f(),
		}
		for k := 0; k < i%4; k++ {
			a.Special = append(a.Special, atom.SpecialRef{
				Tag: tag + int64(k) + 1, Kind: atom.SpecialKind(1 + k%3),
			})
		}
		for k := 0; k < i%3; k++ {
			a.Bonds = append(a.Bonds, atom.BondRef{Type: int32(k + 1), Partner: tag + int64(k) + 1})
		}
		for k := 0; k < (i+1)%3; k++ {
			a.Angles = append(a.Angles, atom.AngleRef{Type: int32(k + 2), A: tag - 1, C: tag + 1})
		}
		for k := 0; k < (i+2)%3; k++ {
			a.Dihedrals = append(a.Dihedrals, atom.DihedralRef{
				Type: int32(k + 3), A: tag - 1, C: tag + 1, D: tag + 2,
			})
		}
		rk.Atoms = append(rk.Atoms, a)
		rk.Force = append(rk.Force, g.v3())
	}
	rk.RNG = rng.State{S: [4]uint64{g.u64(), g.u64(), g.u64(), g.u64()}}
	rk.FixState = [][]float64{{g.f(), g.f(), g.f(), g.f(), g.f(), g.f(), g.f()}, {}}
	return rk
}

// goldenGranRank is a granular share: contact history, owner-grouped and
// partner-sorted the way CaptureRank emits it.
func goldenGranRank(seed uint64) Rank {
	g := goldenGen(seed)
	rk := Rank{LastPE: g.f()}
	for i := 0; i < 3; i++ {
		tag := int64(seed*100) + int64(i) + 1
		rk.Atoms = append(rk.Atoms, atom.Atom{Tag: tag, Type: 1, Pos: g.v3(), Vel: g.v3()})
		rk.Force = append(rk.Force, g.v3())
		for p := int64(1); p <= int64(i); p++ {
			rk.History = append(rk.History, HistoryEntry{Owner: tag, Partner: tag - p, Shear: g.v3()})
		}
	}
	rk.RNG = rng.State{S: [4]uint64{1, 2, 3, g.u64()}, Gauss: -0.5, HasGauss: true}
	return rk
}

func goldenBoxes() (cur, setup box.Box) {
	cur = box.Box{Lo: vec.New(-0.25, 0, 1.5), Hi: vec.New(33.5, 34.25, 35.125), Periodic: [3]bool{true, true, false}}
	setup = box.Box{Lo: vec.New(0, 0, 0), Hi: vec.New(33.591, 33.591, 33.591), Periodic: [3]bool{true, true, true}}
	return cur, setup
}

func goldenCheckpoint() *Checkpoint {
	cur, setup := goldenBoxes()
	return &Checkpoint{
		Step: 1230, Ranks: 3, Grid: [3]int{3, 1, 1},
		Box: cur, SetupBox: setup, Q2Setup: 332.0636,
		PerRank: []Rank{goldenLJRank(1), goldenRhodoRank(2), goldenGranRank(3)},
	}
}

func goldenShard() *Shard {
	cur, setup := goldenBoxes()
	return &Shard{
		Step: 40, WorldSize: 4, Ranks: []int{1, 2}, Grid: [3]int{2, 2, 1},
		Box: cur, SetupBox: setup, Q2Setup: 0.125,
		PerRank: []Rank{goldenRhodoRank(4), goldenGranRank(5)},
	}
}

func goldenManifest() (*Manifest, map[string]*Vote) {
	votes := map[string]*Vote{
		shardName(2): {Step: 40, Shard: shardName(2), CRC: 0xdeadbeef, Ranks: []int32{2, 3}, Atoms: 1021},
		shardName(0): {Step: 40, Shard: shardName(0), CRC: 0x00c0ffee, Ranks: []int32{0, 1}, Atoms: 1027},
	}
	mf := &Manifest{Step: 40, WorldSize: 4, Grid: [3]int{2, 2, 1}, Shards: []ShardRecord{
		{Name: shardName(0), CRC: 0x00c0ffee, Ranks: []int{0, 1}, Atoms: 1027},
		{Name: shardName(2), CRC: 0xdeadbeef, Ranks: []int{2, 3}, Atoms: 1021},
	}}
	return mf, votes
}

// requireGolden compares encoded bytes with testdata/name (or rewrites
// the file under -update) and returns the file's bytes for the decoder.
func requireGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: encoder wrote %d bytes, golden has %d; first difference at offset %d",
			name, len(got), len(want), i)
	}
	return want
}

func TestGoldenGMCK(t *testing.T) {
	ck := goldenCheckpoint()
	for _, c := range []struct {
		name    string
		version uint32
	}{{"gmck_v2.golden", ckptVersion}, {"gmck_v1.golden", ckptV1}} {
		var buf bytes.Buffer
		if err := writeVersion(&buf, ck, c.version); err != nil {
			t.Fatal(err)
		}
		file := requireGolden(t, c.name, buf.Bytes())
		got, err := Read(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(ck, got) {
			t.Fatalf("%s decodes to\n%+v\nwant\n%+v", c.name, got, ck)
		}
	}
}

func TestGoldenGMCS(t *testing.T) {
	sh := goldenShard()
	var buf bytes.Buffer
	if err := writeShard(&buf, sh); err != nil {
		t.Fatal(err)
	}
	file := requireGolden(t, "gmcs.golden", buf.Bytes())
	got, err := ReadShard(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sh, got) {
		t.Fatalf("gmcs.golden decodes to\n%+v\nwant\n%+v", got, sh)
	}
}

func TestGoldenKCMF(t *testing.T) {
	mf, votes := goldenManifest()
	sw := NewShardWriter(filepath.Join(t.TempDir(), "ck.gmck"), mf.WorldSize)
	sw.SetGrid(mf.Grid)
	if err := os.MkdirAll(filepath.Join(sw.dir, genDirName(mf.Step)), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := sw.writeManifest(mf.Step, votes); err != nil {
		t.Fatal(err)
	}
	wrote, err := os.ReadFile(filepath.Join(sw.dir, genDirName(mf.Step), ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	file := requireGolden(t, "kcmf.golden", wrote)
	got, err := readManifest(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mf, got) {
		t.Fatalf("kcmf.golden decodes to\n%+v\nwant\n%+v", got, mf)
	}
}

// TestEncoderSpillsMidSection: a rank section larger than encFlushAt is
// written out in pieces; the section CRC, the file CRC and the footer's
// byte count must come out as if it had been one piece (the decoder
// verifies all three), and the pieces must arrive in few Write calls.
func TestEncoderSpillsMidSection(t *testing.T) {
	ck := goldenCheckpoint()
	big := &ck.PerRank[0]
	g := goldenGen(9)
	for len(big.Atoms)*112 < 2*encFlushAt+encFlushAt/2 {
		big.Atoms = append(big.Atoms, atom.Atom{Tag: int64(len(big.Atoms)) + 1000, Type: 1, Pos: g.v3(), Vel: g.v3()})
		big.Force = append(big.Force, g.v3())
	}
	var w countingWriter
	if err := Write(&w, ck); err != nil {
		t.Fatal(err)
	}
	if w.calls < 3 || w.calls > 8 {
		t.Fatalf("a %d-byte checkpoint took %d Write calls, want a few ~%d-byte pieces", w.buf.Len(), w.calls, encFlushAt)
	}
	got, err := Read(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatal("spilled checkpoint does not round-trip")
	}
}

type countingWriter struct {
	buf   bytes.Buffer
	calls int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return w.buf.Write(p)
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestEncoderLatchesFirstWriteError: the encoder buffers, so a failing
// sink is seen late — but the first error must still be what Write,
// writeShard and writeVersion return, wherever in the file it struck.
func TestEncoderLatchesFirstWriteError(t *testing.T) {
	ck, sh := goldenCheckpoint(), goldenShard()
	for _, n := range []int{0, 10, 1000} {
		if err := Write(&failAfter{n}, ck); !errors.Is(err, errDiskFull) {
			t.Fatalf("Write to a sink failing after %d bytes: %v", n, err)
		}
		if err := writeVersion(&failAfter{n}, ck, ckptV1); !errors.Is(err, errDiskFull) {
			t.Fatalf("v1 write to a sink failing after %d bytes: %v", n, err)
		}
		if err := writeShard(&failAfter{n}, sh); !errors.Is(err, errDiskFull) {
			t.Fatalf("writeShard to a sink failing after %d bytes: %v", n, err)
		}
	}
	// A failed encode must not poison the pooled encoder.
	if err := Write(io.Discard, ck); err != nil {
		t.Fatalf("Write after a failed Write: %v", err)
	}
}

// TestEncoderSteadyStateAllocs: re-encoding an already-captured
// checkpoint reuses the pooled buffer (the benchmark's
// proc.mallocs_per_step on lj_ckpt was 54k with one reflective
// binary.Write per scalar).
func TestEncoderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts at random, so the pooled buffer is not reliably reused")
	}
	ck := goldenCheckpoint()
	if err := Write(io.Discard, ck); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() { Write(io.Discard, ck) }); a > 2 {
		t.Fatalf("ckpt.Write allocates %.0f objects per call in steady state, want <= 2", a)
	}
}
