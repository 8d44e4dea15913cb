// Wire codecs for the domain payloads that cross rank boundaries:
// halo ghosts and migrating atoms. Registered with the mpi codec
// registry at init, so a process-spanning (TCP) world can carry the
// same traffic the in-process channel transport moves by reference.
// Every field round-trips bit-exactly — float64s travel as raw IEEE
// bits — because the TCP engine's trajectory must be byte-identical to
// the channel engine's.
package domain

import (
	"encoding/binary"
	"fmt"
	"math"

	"gomd/internal/atom"
	"gomd/internal/mpi"
	"gomd/internal/vec"
)

// Codec ids for domain payloads (wire protocol: both ends of a world
// must agree, which holds because every process links this package).
const (
	codecGhosts   = mpi.CodecUserBase + 0
	codecMigrants = mpi.CodecUserBase + 1
)

func init() {
	mpi.RegisterCodec(mpi.Codec{
		ID:     codecGhosts,
		Match:  func(v any) bool { _, ok := v.([]atom.Ghost); return ok },
		Encode: encodeGhosts,
		Decode: decodeGhosts,
	})
	mpi.RegisterCodec(mpi.Codec{
		ID:     codecMigrants,
		Match:  func(v any) bool { _, ok := v.([]migrant); return ok },
		Encode: encodeMigrants,
		Decode: decodeMigrants,
	})
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendV3(buf []byte, v vec.V3) []byte {
	buf = appendF64(buf, v.X)
	buf = appendF64(buf, v.Y)
	return appendF64(buf, v.Z)
}

// reader walks an encoded payload with bounds checking; any overrun
// marks it failed and zero-fills, so decoders return one typed error —
// a bad-payload *mpi.FrameError, as the float64 lane raises — at the
// end instead of panicking mid-stream.
type reader struct {
	buf    []byte
	failed bool
}

func (r *reader) u8() byte {
	if r.failed || len(r.buf) < 1 {
		r.failed = true
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.failed || len(r.buf) < 4 {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.failed || len(r.buf) < 8 {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) v3() vec.V3 { return vec.V3{X: r.f64(), Y: r.f64(), Z: r.f64()} }

// count reads a length prefix bounded by the remaining payload (each
// element needs at least min bytes), so a corrupted count cannot drive
// an oversized allocation.
func (r *reader) count(min int) int {
	n := int(r.u32())
	if r.failed || n < 0 || min <= 0 || n > len(r.buf)/min {
		if n != 0 {
			r.failed = true
		}
		return 0
	}
	return n
}

// Ghost wire layout: 72 bytes per entry (tag u64, type u64, pos 3xf64,
// charge f64, vel 3xf64) — exactly the 9*8 modeled size buildGhosts
// charges, so for ghost traffic the modeled payload bytes and the
// encoded payload bytes coincide.
func encodeGhosts(v any) ([]byte, error) {
	gs := v.([]atom.Ghost)
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+72*len(gs)), uint32(len(gs)))
	for _, g := range gs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Tag))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Type))
		buf = appendV3(buf, g.Pos)
		buf = appendF64(buf, g.Charge)
		buf = appendV3(buf, g.Vel)
	}
	return buf, nil
}

func decodeGhosts(buf []byte) (any, error) {
	r := &reader{buf: buf}
	n := r.count(72)
	gs := make([]atom.Ghost, n)
	for i := range gs {
		gs[i] = atom.Ghost{
			Tag:    int64(r.u64()),
			Type:   int32(r.u64()),
			Pos:    r.v3(),
			Charge: r.f64(),
			Vel:    r.v3(),
		}
	}
	if r.failed || len(r.buf) != 0 {
		return nil, &mpi.FrameError{Reason: "bad-payload",
			Detail: fmt.Sprintf("ghost payload malformed (%d bytes, %d entries declared)", len(buf), n)}
	}
	return gs, nil
}

// Migrant wire layout per entry: atom core (tag u64, type u32, mol u32,
// pos/vel 3xf64 each, charge f64), then counted lists for special,
// bonds, angles, dihedrals, and contact history. The encoded size is
// deliberately NOT the modeled migrantBytes — the model prices the
// paper's packed-doubles convention, the codec prices this runtime's
// frames — and mpi.Stats reports the latter for TCP worlds.
func encodeMigrants(v any) ([]byte, error) {
	ms := v.([]migrant)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(ms)))
	for _, m := range ms {
		a := &m.Atom
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Tag))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Type))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Mol))
		buf = appendV3(buf, a.Pos)
		buf = appendV3(buf, a.Vel)
		buf = appendF64(buf, a.Charge)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Special)))
		for _, s := range a.Special {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Tag))
			buf = append(buf, byte(s.Kind))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Bonds)))
		for _, b := range a.Bonds {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Type))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Partner))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Angles)))
		for _, an := range a.Angles {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(an.Type))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(an.A))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(an.C))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Dihedrals)))
		for _, dh := range a.Dihedrals {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(dh.Type))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(dh.A))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(dh.C))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(dh.D))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.History)))
		for tag, h := range m.History {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(tag))
			buf = appendV3(buf, h)
		}
	}
	return buf, nil
}

func decodeMigrants(buf []byte) (any, error) {
	r := &reader{buf: buf}
	n := r.count(72) // atom core alone is 72 bytes + 5 counts
	ms := make([]migrant, n)
	for i := range ms {
		a := atom.Atom{
			Tag:    int64(r.u64()),
			Type:   int32(r.u32()),
			Mol:    int32(r.u32()),
			Pos:    r.v3(),
			Vel:    r.v3(),
			Charge: r.f64(),
		}
		if ns := r.count(9); ns > 0 {
			a.Special = make([]atom.SpecialRef, ns)
			for j := range a.Special {
				a.Special[j] = atom.SpecialRef{Tag: int64(r.u64()), Kind: atom.SpecialKind(r.u8())}
			}
		}
		if nb := r.count(12); nb > 0 {
			a.Bonds = make([]atom.BondRef, nb)
			for j := range a.Bonds {
				a.Bonds[j] = atom.BondRef{Type: int32(r.u32()), Partner: int64(r.u64())}
			}
		}
		if na := r.count(20); na > 0 {
			a.Angles = make([]atom.AngleRef, na)
			for j := range a.Angles {
				a.Angles[j] = atom.AngleRef{Type: int32(r.u32()), A: int64(r.u64()), C: int64(r.u64())}
			}
		}
		if nd := r.count(28); nd > 0 {
			a.Dihedrals = make([]atom.DihedralRef, nd)
			for j := range a.Dihedrals {
				a.Dihedrals[j] = atom.DihedralRef{
					Type: int32(r.u32()), A: int64(r.u64()), C: int64(r.u64()), D: int64(r.u64()),
				}
			}
		}
		ms[i].Atom = a
		if nh := r.count(32); nh > 0 {
			ms[i].History = make(map[int64]vec.V3, nh)
			for j := 0; j < nh; j++ {
				ms[i].History[int64(r.u64())] = r.v3()
			}
		}
	}
	if r.failed || len(r.buf) != 0 {
		return nil, &mpi.FrameError{Reason: "bad-payload",
			Detail: fmt.Sprintf("migrant payload malformed (%d bytes, %d entries declared)", len(buf), n)}
	}
	return ms, nil
}
