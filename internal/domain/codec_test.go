package domain

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/mpi"
	"gomd/internal/vec"
)

// The codecs promise bit-exact float transport, so equality here is on
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

// TestCodecRoundTrip: what crosses a TCP rank boundary arrives bit for
// bit — NaN payloads and the sign of zero included — and a ghost
// payload is exactly the 72 bytes per entry buildGhosts charges.
func TestCodecRoundTrip(t *testing.T) {
	for _, gs := range [][]atom.Ghost{testGhosts(), {}} {
		enc, err := encodeGhosts(gs)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != 4+72*len(gs) {
			t.Errorf("%d ghosts encode to %d bytes, want %d", len(gs), len(enc), 4+72*len(gs))
		}
		dec, err := decodeGhosts(enc)
		if err != nil {
			t.Fatal(err)
		}
		got := dec.([]atom.Ghost)
		if len(got) != len(gs) {
			t.Fatalf("decoded %d ghosts, want %d", len(got), len(gs))
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
		enc, err := encodeMigrants(ms)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decodeMigrants(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonMigrants(dec.([]migrant)), canonMigrants(ms); !reflect.DeepEqual(got, want) {
			t.Errorf("migrants:\n got %+v\nwant %+v", got, want)
		}
	}

	// A payload cut short or carrying a trailing byte is rejected with
	// the bad-payload *mpi.FrameError the float64 lane raises.
	ghosts, _ := encodeGhosts(testGhosts())
	migrants, _ := encodeMigrants(testMigrants())
	for _, c := range []struct {
		name   string
		decode func([]byte) (any, error)
		enc    []byte
	}{{"ghosts", decodeGhosts, ghosts}, {"migrants", decodeMigrants, migrants}} {
		for _, bad := range [][]byte{c.enc[:3], c.enc[:len(c.enc)-1], append(c.enc[:len(c.enc):len(c.enc)], 0)} {
			_, err := c.decode(bad)
			requireBadPayload(t, fmt.Sprintf("%s, %d of %d bytes", c.name, len(bad), len(c.enc)), err)
		}
	}
}

// requireBadPayload fails unless err is a bad-payload *mpi.FrameError.
func requireBadPayload(t *testing.T, what string, err error) {
	t.Helper()
	var fe *mpi.FrameError
	if !errors.As(err, &fe) || fe.Reason != "bad-payload" {
		t.Fatalf("%s: error %v (%T), want a bad-payload *mpi.FrameError", what, err, err)
	}
}

// FuzzDecodeDomainPayloads feeds both decoders bytes as a TCP peer could
// send them. Each must return a bad-payload *mpi.FrameError, or a value
// backed by the input whose re-encoding decodes to the same value — never
// panic, and never allocate more than a small multiple of len(buf)
// however large a count field claims to be (reader.count's bound).
func FuzzDecodeDomainPayloads(f *testing.F) {
	ghosts, _ := encodeGhosts(testGhosts())
	migrants, _ := encodeMigrants(testMigrants())
	for _, enc := range [][]byte{ghosts, migrants} {
		f.Add(enc)
		for _, n := range []int{0, 3, 4, 5, 76, len(enc) / 2, len(enc) - 1} {
			f.Add(enc[:n])
		}
		f.Add(append(enc[:len(enc):len(enc)], 0)) // trailing byte
	}
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	f.Add(huge)
	f.Add(append(huge, ghosts[4:]...))
	// One migrant whose special-list count claims 4G entries.
	f.Add(append(append([]byte{1, 0, 0, 0}, migrants[4:4+72]...), huge...))

	codecs := []struct {
		name   string
		decode func([]byte) (any, error)
		encode func(any) ([]byte, error)
		canon  func(any) any
	}{
		{"ghosts", decodeGhosts, encodeGhosts, func(v any) any {
			b, _ := encodeGhosts(v) // fixed layout, one field after another: the bytes are the bits
			return b
		}},
		{"migrants", decodeMigrants, encodeMigrants, func(v any) any { return canonMigrants(v.([]migrant)) }},
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, c := range codecs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err := c.decode(buf)
			runtime.ReadMemStats(&after)
			// Decoded structs are a few times their wire size; the slack
			// absorbs whatever else the process allocated meanwhile.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+16*len(buf)); got > limit {
				t.Errorf("%s: decoding %d bytes allocated %d (limit %d)", c.name, len(buf), got, limit)
			}
			if err != nil {
				requireBadPayload(t, c.name, err)
				continue
			}
			enc, err := c.encode(v)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", c.name, err)
			}
			if len(enc) > len(buf) {
				t.Errorf("%s: %d input bytes decoded to a value of %d wire bytes", c.name, len(buf), len(enc))
			}
			v2, err := c.decode(enc)
			if err != nil {
				t.Fatalf("%s: re-encoding does not decode: %v", c.name, err)
			}
			if a, b := c.canon(v), c.canon(v2); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: value changed across re-encode:\n%+v\n%+v", c.name, a, b)
			}
		}
	})
}
