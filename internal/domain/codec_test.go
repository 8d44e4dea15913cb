package domain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/mpi"
	"gomd/internal/vec"
)

// The packers promise bit-exact float transport, so equality here is on
// IEEE bits: == would call two NaNs different and -0 and +0 the same.
type v3bits [3]uint64

func bitsOf(v vec.V3) v3bits {
	return v3bits{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}

// canonMigrants maps migrants onto a reflect.DeepEqual-comparable form
// with every float replaced by its bits.
func canonMigrants(ms []migrant) any {
	type canon struct {
		Ints     atom.Atom // floats zeroed
		Pos, Vel v3bits
		Charge   uint64
		History  map[int64]v3bits
	}
	out := make([]canon, len(ms))
	for i, m := range ms {
		c := canon{Ints: m.Atom, Pos: bitsOf(m.Atom.Pos), Vel: bitsOf(m.Atom.Vel),
			Charge: math.Float64bits(m.Atom.Charge)}
		c.Ints.Pos, c.Ints.Vel, c.Ints.Charge = vec.V3{}, vec.V3{}, 0
		if m.History != nil {
			c.History = map[int64]v3bits{}
			for tag, h := range m.History {
				c.History[tag] = bitsOf(h)
			}
		}
		out[i] = c
	}
	return out
}

var (
	nanPayload = math.Float64frombits(0x7ff8_0000_dead_beef)
	negZero    = math.Copysign(0, -1)
)

func testGhosts() []atom.Ghost {
	return []atom.Ghost{
		{Tag: 7, Type: 2, Pos: vec.V3{X: 1.5, Y: -2.25, Z: 3}, Charge: -0.834, Vel: vec.V3{X: 0.1, Y: 0.2, Z: -0.3}},
		{Tag: math.MaxInt64, Type: -3, Pos: vec.V3{X: nanPayload, Y: negZero, Z: math.Inf(1)},
			Charge: negZero, Vel: vec.V3{X: math.SmallestNonzeroFloat64, Y: math.MaxFloat64, Z: nanPayload}},
	}
}

func testMigrants() []migrant {
	return []migrant{
		{
			Atom: atom.Atom{
				Tag: 42, Type: 3, Mol: 9,
				Pos: vec.V3{X: 1, Y: negZero, Z: nanPayload}, Vel: vec.V3{X: -1e-300, Y: 2, Z: 3}, Charge: 0.417,
				Special: []atom.SpecialRef{
					{Tag: 41, Kind: atom.Special12}, {Tag: 40, Kind: atom.Special13}, {Tag: -5, Kind: atom.Special14},
				},
				Bonds:     []atom.BondRef{{Type: 1, Partner: 41}, {Type: 2, Partner: 43}},
				Angles:    []atom.AngleRef{{Type: 4, A: 41, C: 43}},
				Dihedrals: []atom.DihedralRef{{Type: 5, A: 40, C: 43, D: 44}, {Type: 6, A: 1, C: 2, D: 3}},
			},
			History: map[int64]vec.V3{
				17: {X: 0.25, Y: negZero, Z: nanPayload},
				99: {X: -1, Y: -2, Z: -3},
			},
		},
		{Atom: atom.Atom{Tag: 1, Type: 1, Pos: vec.V3{X: 4, Y: 5, Z: 6}}}, // no topology, no history
	}
}

// packGhosts and packMigrants pack whole payloads the way buildGhosts
// and migrate do.
func packGhosts(gs []atom.Ghost) []float64 {
	var out []float64
	for _, g := range gs {
		out = packGhost(out, g)
	}
	return out
}

func packMigrants(ms []migrant) []float64 {
	var out []float64
	for i := range ms {
		out = packMigrant(out, &ms[i])
	}
	return out
}

// Source rank and tag the unpack tests claim a vector came from.
const testSrc, testTag = 3, 211

func unpackAllGhosts(in []float64) ([]atom.Ghost, error) {
	var out []atom.Ghost
	err := unpackGhosts(in, testSrc, testTag, func(g atom.Ghost) { out = append(out, g) })
	return out, err
}

func unpackAllMigrants(in []float64) ([]migrant, error) {
	var out []migrant
	err := unpackMigrants(in, testSrc, testTag, func(m migrant) { out = append(out, m) })
	return out, err
}

// sameBits reports whether two vectors hold the same floats bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCodecRoundTrip: what crosses a rank boundary arrives bit for bit —
// NaN payloads, the sign of zero and integers at their limits included —
// a ghost is exactly the 9 floats (72 bytes) buildGhosts charges, and a
// malformed vector is a bad-payload *mpi.FrameError naming its source.
func TestCodecRoundTrip(t *testing.T) {
	for _, gs := range [][]atom.Ghost{testGhosts(), {}} {
		packed := packGhosts(gs)
		if len(packed) != ghostFloats*len(gs) || 8*len(packed) != 72*len(gs) {
			t.Errorf("%d ghosts pack to %d floats, want %d", len(gs), len(packed), ghostFloats*len(gs))
		}
		got, err := unpackAllGhosts(packed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(gs) {
			t.Fatalf("unpacked %d ghosts, want %d", len(got), len(gs))
		}
		for i := range gs {
			g, w := got[i], gs[i]
			if g.Tag != w.Tag || g.Type != w.Type || bitsOf(g.Pos) != bitsOf(w.Pos) ||
				bitsOf(g.Vel) != bitsOf(w.Vel) || math.Float64bits(g.Charge) != math.Float64bits(w.Charge) {
				t.Errorf("ghost %d: got %+v, want %+v", i, g, w)
			}
		}
	}

	for _, ms := range [][]migrant{testMigrants(), {}} {
		got, err := unpackAllMigrants(packMigrants(ms))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonMigrants(got), canonMigrants(ms); !reflect.DeepEqual(got, want) {
			t.Errorf("migrants:\n got %+v\nwant %+v", got, want)
		}
	}

	// A history map packs in tag order, whatever order it iterates in.
	big := migrant{Atom: atom.Atom{Tag: 5}, History: map[int64]vec.V3{}}
	for tag := int64(0); tag < 64; tag++ {
		big.History[tag*7919%257] = vec.V3{X: float64(tag)}
	}
	first := packMigrants([]migrant{big})
	for i := 0; i < 8; i++ {
		if again := packMigrants([]migrant{big}); !sameBits(first, again) {
			t.Fatal("one history map packed to two vectors")
		}
	}

	// Cut short, a trailing float, integers out of their field's range,
	// counts past the floats that remain, and history tags out of order.
	ghosts, migrants := packGhosts(testGhosts()), packMigrants(testMigrants())
	withFloat := func(v []float64, i int, x float64) []float64 {
		out := append([]float64(nil), v...)
		out[i] = x
		return out
	}
	for _, c := range []struct {
		name   string
		unpack func([]float64) error
		in     []float64
	}{
		{"ghosts cut short", unpackErr(unpackAllGhosts), ghosts[:len(ghosts)-1]},
		{"ghosts plus a float", unpackErr(unpackAllGhosts), append(ghosts[:len(ghosts):len(ghosts)], 0)},
		{"ghost type past int32", unpackErr(unpackAllGhosts), withFloat(ghosts, 1, ibits(1<<31))},
		{"migrants cut short", unpackErr(unpackAllMigrants), migrants[:len(migrants)-1]},
		{"migrants plus a float", unpackErr(unpackAllMigrants), append(migrants[:len(migrants):len(migrants)], 0)},
		{"migrant mol past int32", unpackErr(unpackAllMigrants), withFloat(migrants, 2, ibits(-1<<31-1))},
		{"special count 2^32", unpackErr(unpackAllMigrants), withFloat(migrants, 10, ibits(1<<32))},
		{"special count negative", unpackErr(unpackAllMigrants), withFloat(migrants, 10, ibits(-1))},
		{"special kind past uint8", unpackErr(unpackAllMigrants), withFloat(migrants, 12, ibits(256))},
		{"history tags out of order", unpackErr(unpackAllMigrants), swapHistory(migrants)},
	} {
		err := c.unpack(c.in)
		requireBadPayload(t, c.name, err)
		if want := fmt.Sprintf("from rank %d (tag %d)", testSrc, testTag); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v does not name %q", c.name, err, want)
		}
	}
}

// unpackErr drops an unpacker's value.
func unpackErr[T any](unpack func([]float64) (T, error)) func([]float64) error {
	return func(in []float64) error { _, err := unpack(in); return err }
}

// swapHistory returns testMigrants' packed vector with the first
// migrant's two history entries (tags 17 and 99, the vector's last
// floats before the second migrant) swapped.
func swapHistory(packed []float64) []float64 {
	first := len(packMigrants(testMigrants()[:1]))
	out := append([]float64(nil), packed...)
	h := out[first-8 : first]
	for i := 0; i < 4; i++ {
		h[i], h[4+i] = h[4+i], h[i]
	}
	return out
}

// requireBadPayload fails unless err is a bad-payload *mpi.FrameError.
func requireBadPayload(t *testing.T, what string, err error) {
	t.Helper()
	var fe *mpi.FrameError
	if !errors.As(err, &fe) || fe.Reason != "bad-payload" {
		t.Fatalf("%s: error %v (%T), want a bad-payload *mpi.FrameError", what, err, err)
	}
}

// floatsToBytes and bytesToFloats convert between a vector and the bytes
// of its floats (little-endian bits); bytesToFloats drops trailing bytes
// that do not fill a whole float.
func floatsToBytes(v []float64) []byte {
	out := make([]byte, 0, 8*len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

func bytesToFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// FuzzDecodeDomainPayloads feeds both unpackers vectors as a peer could
// send them: the input's bytes become floats by bits. Each must return a
// bad-payload *mpi.FrameError, or values whose re-pack is the input
// vector bit for bit — never panic, and never allocate more than
// 1 MiB + 32 bytes per input byte however large a count claims to be
// (unpacker.count's bound).
func FuzzDecodeDomainPayloads(f *testing.F) {
	ghosts, migrants := packGhosts(testGhosts()), packMigrants(testMigrants())
	for _, v := range [][]float64{ghosts, migrants} {
		enc := floatsToBytes(v)
		f.Add(enc)
		for _, n := range []int{0, 3, 8, 72, 120, len(enc) / 2, len(enc) - 8, len(enc) - 1} {
			f.Add(enc[:n])
		}
		f.Add(floatsToBytes(append(v[:len(v):len(v)], 0))) // trailing float
	}
	// Counts claiming 2^32 special entries and 2^32 history entries
	// (floats 10 and 35 of the first migrant).
	for _, at := range []int{10, 35} {
		claim := append([]float64(nil), migrants...)
		claim[at] = ibits(1 << 32)
		f.Add(floatsToBytes(claim))
	}
	f.Add(floatsToBytes(swapHistory(migrants)))

	unpackers := []struct {
		name   string
		repack func([]float64) ([]float64, error)
	}{
		{"ghosts", func(in []float64) ([]float64, error) {
			gs, err := unpackAllGhosts(in)
			return packGhosts(gs), err
		}},
		{"migrants", func(in []float64) ([]float64, error) {
			ms, err := unpackAllMigrants(in)
			return packMigrants(ms), err
		}},
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		in := bytesToFloats(buf)
		for _, u := range unpackers {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := u.repack(in)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+32*len(buf)); got > limit {
				t.Errorf("%s: unpacking %d bytes allocated %d (limit %d)", u.name, len(buf), got, limit)
			}
			if err != nil {
				requireBadPayload(t, u.name, err)
				continue
			}
			if !sameBits(out, in) {
				t.Errorf("%s: %d floats unpacked and re-packed to %d different ones", u.name, len(in), len(out))
			}
		}
	})
}
