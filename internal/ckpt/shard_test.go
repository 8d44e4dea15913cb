package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/box"
	"gomd/internal/mpi"
	"gomd/internal/rng"
	"gomd/internal/vec"
)

// testRank builds a deterministic, fully-populated rank snapshot so
// round-trips exercise every section field.
func testRank(seed int64) Rank {
	f := float64(seed)
	rk := Rank{
		Atoms: []atom.Atom{
			{
				Tag: seed*10 + 1, Type: 1, Mol: 2,
				Pos: vec.New(f, f+0.5, f+0.25), Vel: vec.New(-f, 0.125, f),
				Charge:  0.5 * f,
				Special: []atom.SpecialRef{{Tag: seed + 7, Kind: 1}},
				Bonds:   []atom.BondRef{{Type: 1, Partner: seed + 3}},
			},
			{Tag: seed*10 + 2, Type: 2, Pos: vec.New(1, 2, 3)},
		},
		Force:      []vec.V3{vec.New(f, 0, -f), vec.New(0.5, -0.5, f)},
		LastPE:     -12.5 * f,
		LastVirial: 3.25 * f,
		FixState:   [][]float64{{f, 2 * f}, {}},
		History:    []HistoryEntry{{Owner: seed*10 + 1, Partner: seed + 3, Shear: vec.New(f, -f, 0.5)}},
	}
	rk.RNG = rng.State{Gauss: 0.25 * f, HasGauss: seed%2 == 0}
	for i := range rk.RNG.S {
		rk.RNG.S[i] = uint64(seed)*1000 + uint64(i)
	}
	return rk
}

func testShard(step int64, worldSize int, ranks []int) *Shard {
	sh := &Shard{
		Step:      step,
		WorldSize: worldSize,
		Ranks:     ranks,
		Grid:      [3]int{worldSize, 1, 1},
		Box:       box.Box{Lo: vec.New(0, 0, 0), Hi: vec.New(10, 10, 10), Periodic: [3]bool{true, true, true}},
		SetupBox:  box.Box{Lo: vec.New(0, 0, 0), Hi: vec.New(10, 10, 10), Periodic: [3]bool{true, true, true}},
		Q2Setup:   1.5,
	}
	for _, r := range ranks {
		sh.PerRank = append(sh.PerRank, testRank(int64(r)+1))
	}
	return sh
}

func TestShardRoundTrip(t *testing.T) {
	sh := testShard(40, 4, []int{2, 3})
	var buf bytes.Buffer
	if err := writeShard(&buf, sh); err != nil {
		t.Fatalf("writeShard: %v", err)
	}
	got, err := ReadShard(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadShard: %v", err)
	}
	if !reflect.DeepEqual(sh, got) {
		t.Fatalf("shard round-trip mismatch:\nwrote %+v\nread  %+v", sh, got)
	}
}

func TestShardRejectsBitFlip(t *testing.T) {
	sh := testShard(40, 4, []int{0, 1})
	var buf bytes.Buffer
	if err := writeShard(&buf, sh); err != nil {
		t.Fatalf("writeShard: %v", err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0xff
	if _, err := ReadShard(bytes.NewReader(b)); err == nil {
		t.Fatal("ReadShard accepted a bit-flipped shard")
	} else {
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("want IntegrityError, got %v", err)
		}
	}
}

// writeGeneration commits one complete generation through the writer's
// own deposit/manifest paths (no world needed: deposit and
// writeManifest are local I/O).
func writeGeneration(t *testing.T, sw *ShardWriter, step int64, shards ...[]int) {
	t.Helper()
	votes := map[string]*Vote{}
	for _, ranks := range shards {
		asm := &shardAsm{shard: testShard(step, sw.size, ranks)}
		asm.shard.Grid = [3]int{sw.size, 1, 1}
		if err := sw.deposit(asm); err != nil {
			t.Fatalf("deposit step %d ranks %v: %v", step, ranks, err)
		}
		v := asm.vote
		votes[v.Shard] = &v
	}
	if err := sw.writeManifest(step, votes); err != nil {
		t.Fatalf("writeManifest step %d: %v", step, err)
	}
}

func TestManifestRestoreNewestAndLocalOnly(t *testing.T) {
	sw := NewShardWriter(filepath.Join(t.TempDir(), "ck.gmck"), 4)
	sw.SetGrid([3]int{4, 1, 1})
	writeGeneration(t, sw, 20, []int{0, 1}, []int{2, 3})
	writeGeneration(t, sw, 40, []int{0, 1}, []int{2, 3})

	ss, fails, err := ReadNewestValidManifest(sw.dir, []int{2, 3}, 4)
	if err != nil {
		t.Fatalf("ReadNewestValidManifest: %v", err)
	}
	if len(fails) != 0 {
		t.Fatalf("unexpected rejections: %v", fails)
	}
	if ss.Step != 40 {
		t.Fatalf("restored step %d, want newest 40", ss.Step)
	}
	if ss.NGlobal != 8 {
		t.Fatalf("NGlobal %d, want 8", ss.NGlobal)
	}
	if len(ss.Ranks) != 2 || ss.Ranks[2] == nil || ss.Ranks[3] == nil {
		t.Fatalf("want local ranks {2,3}, got %v", ss.Ranks)
	}
	want := testRank(3)
	if !reflect.DeepEqual(*ss.Ranks[2], want) {
		t.Fatalf("rank 2 snapshot mismatch")
	}
}

func TestManifestIgnoresTornGeneration(t *testing.T) {
	sw := NewShardWriter(filepath.Join(t.TempDir(), "ck.gmck"), 2)
	writeGeneration(t, sw, 20, []int{0, 1})
	// A newer generation whose commit died before the manifest: shard
	// present, no manifest. Restores must skip it without complaint.
	asm := &shardAsm{shard: testShard(40, 2, []int{0, 1})}
	if err := sw.deposit(asm); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	ss, fails, err := ReadNewestValidManifest(sw.dir, []int{0}, 2)
	if err != nil {
		t.Fatalf("ReadNewestValidManifest: %v", err)
	}
	if len(fails) != 0 {
		t.Fatalf("torn generation produced rejections: %v", fails)
	}
	if ss.Step != 20 {
		t.Fatalf("restored step %d, want 20 (gen 40 is torn)", ss.Step)
	}
}

func TestManifestFallsBackOnCorruptShard(t *testing.T) {
	sw := NewShardWriter(filepath.Join(t.TempDir(), "ck.gmck"), 2)
	writeGeneration(t, sw, 20, []int{0, 1})
	writeGeneration(t, sw, 40, []int{0, 1})
	// Flip a byte in the newest generation's shard; its manifest CRC
	// must reject it even though the restoring process only needs rank 0.
	p := filepath.Join(sw.dir, genDirName(40), shardName(0))
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0xff
	if err := os.WriteFile(p, b, 0o666); err != nil {
		t.Fatal(err)
	}
	ss, fails, err := ReadNewestValidManifest(sw.dir, []int{0}, 2)
	if err != nil {
		t.Fatalf("ReadNewestValidManifest: %v", err)
	}
	if len(fails) != 1 {
		t.Fatalf("want 1 rejection for the corrupt generation, got %v", fails)
	}
	var ie *IntegrityError
	if !errors.As(fails[0].Err, &ie) {
		t.Fatalf("rejection should be an IntegrityError, got %v", fails[0].Err)
	}
	if ss.Step != 20 {
		t.Fatalf("restored step %d, want fallback to 20", ss.Step)
	}
}

// TestManifestCannotEscapeGeneration: a CRC-valid manifest whose record
// names "../escape.gmcs" — next to a shard file whose CRC matches — is
// rejected as corrupt before any shard is read, and the restore falls
// back to the previous generation.
func TestManifestCannotEscapeGeneration(t *testing.T) {
	sw := NewShardWriter(filepath.Join(t.TempDir(), "ck.gmck"), 2)
	writeGeneration(t, sw, 20, []int{0, 1})
	asm := &shardAsm{shard: testShard(40, 2, []int{0, 1})}
	if err := sw.deposit(asm); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	gd := filepath.Join(sw.dir, genDirName(40))
	if err := os.Rename(filepath.Join(gd, shardName(0)), filepath.Join(sw.dir, "escape.gmcs")); err != nil {
		t.Fatal(err)
	}
	v := asm.vote
	v.Shard = "../escape.gmcs"
	if err := sw.writeManifest(40, map[string]*Vote{v.Shard: &v}); err != nil {
		t.Fatal(err)
	}
	ss, fails, err := ReadNewestValidManifest(sw.dir, []int{0}, 2)
	if err != nil {
		t.Fatalf("ReadNewestValidManifest: %v", err)
	}
	var ie *IntegrityError
	if len(fails) != 1 || fails[0].Path != gd || !errors.As(fails[0].Err, &ie) || ie.Section != "manifest" {
		t.Fatalf("rejections %v, want one manifest IntegrityError for %s", fails, gd)
	}
	if ss.Step != 20 {
		t.Fatalf("restored step %d, want the fallback to 20", ss.Step)
	}
}

func TestManifestMissingIsNotExist(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck.gmck.shards")
	if _, _, err := ReadNewestValidManifest(dir, []int{0}, 2); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want os.ErrNotExist for an empty store, got %v", err)
	}
}

func TestShardPruneKeepsNewestComplete(t *testing.T) {
	sw := NewShardWriter(filepath.Join(t.TempDir(), "ck.gmck"), 2)
	sw.SetKeep(2)
	for _, step := range []int64{20, 40, 60} {
		writeGeneration(t, sw, step, []int{0, 1})
		sw.prune()
	}
	steps, complete := scanGenerations(sw.dir)
	if len(steps) != 2 || len(complete) != 2 || complete[0] != 60 || complete[1] != 40 {
		t.Fatalf("after prune: steps %v complete %v, want gens 40 and 60", steps, complete)
	}
}

// TestVoteCodecRoundTrip: a vote packs to {step, crc, atoms, ranks...}
// with every integer stored as its bits, unpacks to the same vote with
// the shard name derived from the first rank, and a malformed vector is
// a bad-payload *mpi.FrameError naming the sender.
func TestVoteCodecRoundTrip(t *testing.T) {
	v := &Vote{Step: 40, Shard: "shard-r0002.gmcs", CRC: 0xdeadbeef, Ranks: []int32{2, 3}, Atoms: 1234}
	packed := packVote(v)
	if len(packed) != 3+len(v.Ranks) {
		t.Fatalf("packed %d floats, want %d", len(packed), 3+len(v.Ranks))
	}
	got, err := unpackVote(packed, 2)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if !reflect.DeepEqual(v, got) {
		t.Fatalf("vote round-trip mismatch: %+v vs %+v", v, got)
	}
	withFloat := func(i int, x float64) []float64 {
		out := append([]float64(nil), packed...)
		out[i] = x
		return out
	}
	for name, in := range map[string][]float64{
		"no ranks":       packed[:3],
		"crc past 2^32":  withFloat(1, ibits(1<<32)),
		"negative rank":  withFloat(3, ibits(-1)),
		"rank past 2^31": withFloat(4, ibits(1<<31)),
	} {
		_, err := unpackVote(in, 5)
		var fe *mpi.FrameError
		if !errors.As(err, &fe) || fe.Reason != "bad-payload" || !strings.Contains(err.Error(), "from rank 5") {
			t.Errorf("%s: %v, want a bad-payload *mpi.FrameError naming rank 5", name, err)
		}
	}
}
