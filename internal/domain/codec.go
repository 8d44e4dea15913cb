// Packing of the domain payloads that cross rank boundaries — halo
// ghosts and migrating atoms — into the float64 vectors the mpi runtime
// moves, LAMMPS's pack_border/pack_exchange convention. Floats travel as
// they are and integers as their bits (LAMMPS's ubuf), so every field
// round-trips exactly on either transport: the TCP engine's trajectory
// must be byte-identical to the channel engine's. Unpacking validates
// every integer and count against the floats that remain, so a malformed
// vector from a peer is one bad-payload *mpi.FrameError naming its source
// rank and tag — the receiving rank panics with it and the Supervisor
// gets it as a RankError — never a slice bound or an oversized make.
package domain

import (
	"fmt"
	"math"
	"sort"

	"gomd/internal/atom"
	"gomd/internal/mpi"
	"gomd/internal/vec"
)

// ghostFloats is the packed size of one ghost: tag, type, pos, charge,
// vel — the 9·8 bytes buildGhosts charges per ghost.
const ghostFloats = 9

// ibits stores an integer as its bits.
func ibits(v int64) float64 { return math.Float64frombits(uint64(v)) }

func appendV3(buf []float64, v vec.V3) []float64 { return append(buf, v.X, v.Y, v.Z) }

// packGhost appends g's ghostFloats floats to buf.
func packGhost(buf []float64, g atom.Ghost) []float64 {
	buf = append(buf, ibits(g.Tag), ibits(int64(g.Type)))
	buf = appendV3(buf, g.Pos)
	buf = append(buf, g.Charge)
	return appendV3(buf, g.Vel)
}

// packMigrant appends m to buf: the atom core, then counted special,
// bond, angle, dihedral and contact-history lists. History entries go
// in ascending partner-tag order, so a migrant packs to one vector
// whatever the map's iteration order.
func packMigrant(buf []float64, m *migrant) []float64 {
	a := &m.Atom
	buf = append(buf, ibits(a.Tag), ibits(int64(a.Type)), ibits(int64(a.Mol)))
	buf = appendV3(buf, a.Pos)
	buf = appendV3(buf, a.Vel)
	buf = append(buf, a.Charge, ibits(int64(len(a.Special))))
	for _, s := range a.Special {
		buf = append(buf, ibits(s.Tag), ibits(int64(s.Kind)))
	}
	buf = append(buf, ibits(int64(len(a.Bonds))))
	for _, b := range a.Bonds {
		buf = append(buf, ibits(int64(b.Type)), ibits(b.Partner))
	}
	buf = append(buf, ibits(int64(len(a.Angles))))
	for _, an := range a.Angles {
		buf = append(buf, ibits(int64(an.Type)), ibits(an.A), ibits(an.C))
	}
	buf = append(buf, ibits(int64(len(a.Dihedrals))))
	for _, dh := range a.Dihedrals {
		buf = append(buf, ibits(int64(dh.Type)), ibits(dh.A), ibits(dh.C), ibits(dh.D))
	}
	buf = append(buf, ibits(int64(len(m.History))))
	tags := make([]int64, 0, len(m.History))
	for tag := range m.History {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	for _, tag := range tags {
		buf = append(buf, ibits(tag))
		buf = appendV3(buf, m.History[tag])
	}
	return buf
}

// unpacker walks a received vector. Every read is checked; the first
// failure sticks and later reads return zeros, so an unpacker reports
// one error at the end instead of panicking mid-vector.
type unpacker struct {
	in       []float64
	src, tag int
	what     string // payload kind, for the error
	bad      string // first failure, "" while the vector is well formed
}

func (u *unpacker) fail(format string, args ...any) {
	if u.bad == "" {
		u.bad = fmt.Sprintf(format, args...)
	}
}

func (u *unpacker) f64() float64 {
	if u.bad != "" {
		return 0
	}
	if len(u.in) == 0 {
		u.fail("truncated")
		return 0
	}
	v := u.in[0]
	u.in = u.in[1:]
	return v
}

func (u *unpacker) v3() vec.V3 { return vec.V3{X: u.f64(), Y: u.f64(), Z: u.f64()} }

// int reads an integer stored as bits and requires it in [lo, hi].
func (u *unpacker) int(lo, hi int64) int64 {
	v := int64(math.Float64bits(u.f64()))
	if v < lo || v > hi {
		u.fail("integer %d outside [%d, %d]", v, lo, hi)
		return 0
	}
	return v
}

func (u *unpacker) i64() int64 { return u.int(math.MinInt64, math.MaxInt64) }
func (u *unpacker) i32() int32 { return int32(u.int(math.MinInt32, math.MaxInt32)) }

// count reads a list length whose entries take per floats each; it must
// fit in the floats that remain, so a corrupted count cannot drive an
// oversized allocation.
func (u *unpacker) count(per int) int {
	return int(u.int(0, int64(len(u.in)/per)))
}

// err is the unpacker's verdict: nil, or the bad-payload *mpi.FrameError
// the float64 frame check raises, naming the source rank and tag.
func (u *unpacker) err() error {
	if u.bad == "" {
		return nil
	}
	return &mpi.FrameError{Reason: "bad-payload",
		Detail: fmt.Sprintf("%s vector from rank %d (tag %d) malformed: %s", u.what, u.src, u.tag, u.bad)}
}

// unpackGhosts validates a ghost vector received from src under tag and
// passes each ghost to add, in order.
func unpackGhosts(in []float64, src, tag int, add func(atom.Ghost)) error {
	u := unpacker{in: in, src: src, tag: tag, what: "ghost"}
	for len(u.in) > 0 && u.bad == "" {
		g := atom.Ghost{Tag: u.i64(), Type: u.i32(), Pos: u.v3(), Charge: u.f64(), Vel: u.v3()}
		if u.bad == "" {
			add(g)
		}
	}
	return u.err()
}

// unpackMigrants validates a migrant vector received from src under tag
// and passes each migrant to add, in order. History tags must ascend
// strictly, as packMigrant writes them, so no entry is lost to a
// duplicate key.
func unpackMigrants(in []float64, src, tag int, add func(migrant)) error {
	u := unpacker{in: in, src: src, tag: tag, what: "migrant"}
	for len(u.in) > 0 && u.bad == "" {
		var m migrant
		a := &m.Atom
		a.Tag, a.Type, a.Mol = u.i64(), u.i32(), u.i32()
		a.Pos, a.Vel, a.Charge = u.v3(), u.v3(), u.f64()
		if n := u.count(2); n > 0 {
			a.Special = make([]atom.SpecialRef, n)
			for j := range a.Special {
				a.Special[j] = atom.SpecialRef{Tag: u.i64(), Kind: atom.SpecialKind(u.int(0, math.MaxUint8))}
			}
		}
		if n := u.count(2); n > 0 {
			a.Bonds = make([]atom.BondRef, n)
			for j := range a.Bonds {
				a.Bonds[j] = atom.BondRef{Type: u.i32(), Partner: u.i64()}
			}
		}
		if n := u.count(3); n > 0 {
			a.Angles = make([]atom.AngleRef, n)
			for j := range a.Angles {
				a.Angles[j] = atom.AngleRef{Type: u.i32(), A: u.i64(), C: u.i64()}
			}
		}
		if n := u.count(4); n > 0 {
			a.Dihedrals = make([]atom.DihedralRef, n)
			for j := range a.Dihedrals {
				a.Dihedrals[j] = atom.DihedralRef{Type: u.i32(), A: u.i64(), C: u.i64(), D: u.i64()}
			}
		}
		if n := u.count(4); n > 0 {
			m.History = make(map[int64]vec.V3, n)
			last := int64(math.MinInt64)
			for j := 0; j < n; j++ {
				tag := u.i64()
				if j > 0 && tag <= last {
					u.fail("history tag %d after %d", tag, last)
				}
				m.History[tag], last = u.v3(), tag
			}
		}
		if u.bad == "" {
			add(m)
		}
	}
	return u.err()
}
