// Package box models the orthogonal periodic simulation box of an MD
// experiment: remapping of coordinates into the primary cell, minimum-image
// displacement computation, and sub-domain geometry for spatial
// decomposition.
//
// All of the paper's benchmarks use orthogonal boxes with periodic boundary
// conditions in x and y (and z, except for the Chute granular experiment,
// whose z boundary is fixed), so triclinic cells are out of scope.
package box

import (
	"fmt"
	"math"

	"gomd/internal/vec"
)

// Box is an axis-aligned simulation cell spanning [Lo, Hi) in each
// dimension. Periodic[d] selects periodic wrapping on dimension d; a
// non-periodic dimension behaves as a fixed boundary (used by Chute's
// lower wall and open top).
type Box struct {
	Lo, Hi   vec.V3
	Periodic [3]bool
}

// NewPeriodic returns a fully periodic box spanning lo..hi.
func NewPeriodic(lo, hi vec.V3) Box {
	return Box{Lo: lo, Hi: hi, Periodic: [3]bool{true, true, true}}
}

// NewSlab returns a box periodic in x and y with fixed z boundaries, as
// used by the granular chute workload.
func NewSlab(lo, hi vec.V3) Box {
	return Box{Lo: lo, Hi: hi, Periodic: [3]bool{true, true, false}}
}

// Lengths returns the box edge lengths.
func (b Box) Lengths() vec.V3 { return b.Hi.Sub(b.Lo) }

// Volume returns the box volume.
func (b Box) Volume() float64 { return b.Lengths().Volume() }

// Valid reports whether the box has positive extent in all dimensions.
func (b Box) Valid() bool {
	l := b.Lengths()
	return l.X > 0 && l.Y > 0 && l.Z > 0
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("box[%v..%v periodic=%v]", b.Lo, b.Hi, b.Periodic)
}

// Wrap remaps p into the primary cell along periodic dimensions and
// returns the remapped position together with the integer image shifts
// applied (in box-length units). Non-periodic dimensions are returned
// unchanged with a zero shift.
func (b Box) Wrap(p vec.V3) (vec.V3, [3]int) {
	var shift [3]int
	l := b.Lengths()
	coord := [3]float64{p.X, p.Y, p.Z}
	lo := [3]float64{b.Lo.X, b.Lo.Y, b.Lo.Z}
	ln := [3]float64{l.X, l.Y, l.Z}
	for d := 0; d < 3; d++ {
		if !b.Periodic[d] {
			continue
		}
		n := math.Floor((coord[d] - lo[d]) / ln[d])
		if n != 0 {
			coord[d] -= n * ln[d]
			shift[d] = -int(n)
			// Guard against FP round-up landing exactly on Hi.
			if coord[d] >= lo[d]+ln[d] {
				coord[d] = lo[d]
			}
		}
	}
	return vec.V3{X: coord[0], Y: coord[1], Z: coord[2]}, shift
}

// MinImage returns the minimum-image displacement d = pi - pj, folding
// each periodic component into (-L/2, L/2].
func (b Box) MinImage(d vec.V3) vec.V3 {
	l := b.Lengths()
	if b.Periodic[0] {
		d.X -= l.X * math.Round(d.X/l.X)
	}
	if b.Periodic[1] {
		d.Y -= l.Y * math.Round(d.Y/l.Y)
	}
	if b.Periodic[2] {
		d.Z -= l.Z * math.Round(d.Z/l.Z)
	}
	return d
}

// Contains reports whether p lies inside the primary cell.
func (b Box) Contains(p vec.V3) bool {
	return p.X >= b.Lo.X && p.X < b.Hi.X &&
		p.Y >= b.Lo.Y && p.Y < b.Hi.Y &&
		p.Z >= b.Lo.Z && p.Z < b.Hi.Z
}

// ScaleIsotropic returns the box scaled about its center by factor s in
// every periodic dimension (non-periodic dimensions keep their extent).
// It is used by the NPT barostat.
func (b Box) ScaleIsotropic(s float64) Box {
	c := b.Lo.Add(b.Hi).Scale(0.5)
	half := b.Lengths().Scale(0.5)
	out := b
	for d := 0; d < 3; d++ {
		if !b.Periodic[d] {
			continue
		}
		h := half.Component(d) * s
		out.Lo = out.Lo.WithComponent(d, c.Component(d)-h)
		out.Hi = out.Hi.WithComponent(d, c.Component(d)+h)
	}
	return out
}

// Owner returns the processor-grid coordinate owning position p under a
// px × py × pz decomposition. Positions must already be wrapped into the
// primary cell.
func (b Box) Owner(p vec.V3, px, py, pz int) [3]int {
	l := b.Lengths()
	idx := func(c, lo, ln float64, n int) int {
		i := int(math.Floor((c - lo) / ln * float64(n)))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	return [3]int{
		idx(p.X, b.Lo.X, l.X, px),
		idx(p.Y, b.Lo.Y, l.Y, py),
		idx(p.Z, b.Lo.Z, l.Z, pz),
	}
}

// SurfaceArea returns the total surface area of the box.
func (b Box) SurfaceArea() float64 {
	l := b.Lengths()
	return 2 * (l.X*l.Y + l.Y*l.Z + l.X*l.Z)
}
