package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"gomd/internal/mpi"
)

// voteFloats reads b as little-endian float64 bits, dropping trailing
// bytes that do not fill a whole float.
func voteFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// floatBytes is voteFloats' inverse.
func floatBytes(v []float64) []byte {
	out := make([]byte, 0, 8*len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// floatBits compares vectors bit for bit.
func floatBits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// FuzzCheckpointDecode feeds arbitrary bytes to the three on-disk
// decoders — GMCK Read (v1 and v2), GMCS ReadShard and the KCMF manifest
// reader — and, read as floats by their bits, to the commit's vote
// unpacker. Each must return a value or an error, never both or neither,
// never panic, and allocate at most 1 MiB + 32 bytes per input byte:
// decoded lengths are claims until the bytes behind them arrive, so a
// length field claiming 2^40 atoms (or 2^31, under the plausibility
// cap) must cost no memory it cannot back with input.
func FuzzCheckpointDecode(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden seeds: %v", err)
	}
	for _, path := range goldens {
		file, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file)
		for _, n := range []int{0, 4, 8, 100, len(file) / 2, len(file) - 1} {
			f.Add(file[:n])
		}
	}
	// GMCK headers whose first rank claims 2^40 and 2^31 atoms: the v2
	// header (and its CRC) is 164 bytes, v1's 160, and the rank's atom
	// count follows it.
	for _, v := range []struct {
		name string
		off  int
	}{{"gmck_v2.golden", 164}, {"gmck_v1.golden", 160}} {
		file, err := os.ReadFile(filepath.Join("testdata", v.name))
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []uint64{1 << 40, 1 << 31} {
			b := bytes.Clone(file)
			binary.LittleEndian.PutUint64(b[v.off:], n)
			f.Add(b)
			f.Add(b[:v.off+8])
		}
	}

	// Votes as a peer sends them, whole, cut short, and with a rank past
	// int32.
	vote := packVote(&Vote{Step: 40, CRC: 0xdeadbeef, Ranks: []int32{2, 3}, Atoms: 1234})
	for _, n := range []int{0, 3, 4, 5} {
		f.Add(floatBytes(vote[:n]))
	}
	f.Add(floatBytes(append(vote[:4:4], ibits(1<<31))))

	decoders := []struct {
		name   string
		decode func([]byte) (ok bool, err error) // ok: a non-nil value
	}{
		{"Read", func(b []byte) (bool, error) { v, err := Read(bytes.NewReader(b)); return v != nil, err }},
		{"ReadShard", func(b []byte) (bool, error) { v, err := ReadShard(bytes.NewReader(b)); return v != nil, err }},
		{"readManifest", func(b []byte) (bool, error) { v, err := readManifest(bytes.NewReader(b)); return v != nil, err }},
		{"unpackVote", func(b []byte) (bool, error) { v, err := unpackVote(voteFloats(b), 1); return v != nil, err }},
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		// The vote, besides the oracle below: refused typed, or re-packed
		// to the very floats it came from.
		in := voteFloats(buf)
		if v, err := unpackVote(in, 1); err != nil {
			var fe *mpi.FrameError
			if !errors.As(err, &fe) || fe.Reason != "bad-payload" {
				t.Errorf("unpackVote: error %v (%T), want a bad-payload *mpi.FrameError", err, err)
			}
		} else if out := packVote(v); !slices.Equal(floatBits(out), floatBits(in)) {
			t.Errorf("unpackVote: %d floats re-pack to %d different ones", len(in), len(out))
		}
		for _, d := range decoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ok, err := d.decode(buf)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+32*len(buf)); got > limit {
				t.Errorf("%s: decoding %d bytes allocated %d (limit %d)", d.name, len(buf), got, limit)
			}
			if ok == (err != nil) {
				t.Errorf("%s: value %v with error %v; want exactly one", d.name, ok, err)
			}
		}
	})
}
