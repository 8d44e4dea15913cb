package ckpt

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to the three on-disk
// decoders — GMCK Read (v1 and v2), GMCS ReadShard and the KCMF manifest
// reader. Each must return a value or an error, never both or neither,
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

	decoders := []struct {
		name   string
		decode func([]byte) (ok bool, err error) // ok: a non-nil value
	}{
		{"Read", func(b []byte) (bool, error) { v, err := Read(bytes.NewReader(b)); return v != nil, err }},
		{"ReadShard", func(b []byte) (bool, error) { v, err := ReadShard(bytes.NewReader(b)); return v != nil, err }},
		{"readManifest", func(b []byte) (bool, error) { v, err := readManifest(bytes.NewReader(b)); return v != nil, err }},
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
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
