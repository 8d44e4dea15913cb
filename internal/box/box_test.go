package box_test

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"gomd/internal/box"
	"gomd/internal/vec"
)

func periodicBox() box.Box {
	return box.NewPeriodic(vec.New(-2, 0, 1), vec.New(8, 5, 11))
}

// within4 returns 2000 seeded vectors whose every component lies within
// four box lengths of origin's: far enough out that wrapping crosses
// several images, and no draw is too large to check.
func within4(b box.Box, origin vec.V3) []vec.V3 {
	rng := rand.New(rand.NewPCG(3, 4))
	l := b.Lengths()
	u := func(o, ln float64) float64 { return o + ln*(8*rng.Float64()-4) }
	out := make([]vec.V3, 2000)
	for i := range out {
		out[i] = vec.New(u(origin.X, l.X), u(origin.Y, l.Y), u(origin.Z, l.Z))
	}
	return out
}

func center(b box.Box) vec.V3 { return b.Lo.Add(b.Hi).Scale(0.5) }

func TestWrapIntoBox(t *testing.T) {
	b := periodicBox()
	for _, x := range within4(b, center(b)) {
		if p, _ := b.Wrap(x); !b.Contains(p) {
			t.Fatalf("Wrap(%v) = %v, outside %v", x, p, b)
		}
	}
}

func TestWrapShiftConsistency(t *testing.T) {
	b := periodicBox()
	l := b.Lengths()
	for _, orig := range within4(b, center(b)) {
		p, shift := b.Wrap(orig)
		// Unwrap must return (nearly) the original position.
		un := p.Sub(vec.New(
			l.X*float64(shift[0]), l.Y*float64(shift[1]), l.Z*float64(shift[2])))
		if un.Sub(orig).Norm() > 1e-9*(1+orig.Norm()) {
			t.Fatalf("Wrap(%v) = %v shift %v unwraps to %v", orig, p, shift, un)
		}
	}
}

func TestWrapIdempotent(t *testing.T) {
	b := periodicBox()
	p, _ := b.Wrap(vec.New(100.3, -77.1, 9.9))
	p2, shift := b.Wrap(p)
	if p2 != p || shift != [3]int{} {
		t.Errorf("wrap not idempotent: %v -> %v shift %v", p, p2, shift)
	}
}

func TestMinImageBounds(t *testing.T) {
	b := periodicBox()
	l := b.Lengths()
	for _, d := range within4(b, vec.V3{}) {
		m := b.MinImage(d)
		if math.Abs(m.X) > l.X/2+1e-9 || math.Abs(m.Y) > l.Y/2+1e-9 || math.Abs(m.Z) > l.Z/2+1e-9 {
			t.Fatalf("MinImage(%v) = %v, longer than half of %v", d, m, l)
		}
	}
}

func TestMinImageAntisymmetric(t *testing.T) {
	b := periodicBox()
	d := vec.New(7.3, -4.2, 10.4)
	if got := b.MinImage(d).Add(b.MinImage(d.Neg())); got.Norm() > 1e-12 {
		t.Errorf("min image not antisymmetric: %v", got)
	}
}

func TestSlabNonPeriodicZ(t *testing.T) {
	b := box.NewSlab(vec.V3{}, vec.New(10, 10, 20))
	p, shift := b.Wrap(vec.New(12, -3, 25))
	if p.Z != 25 || shift[2] != 0 {
		t.Errorf("z must not wrap in slab: %v %v", p, shift)
	}
	if p.X != 2 || p.Y != 7 {
		t.Errorf("x/y must wrap: %v", p)
	}
	m := b.MinImage(vec.New(0, 0, 15))
	if m.Z != 15 {
		t.Errorf("z min image must be raw: %v", m)
	}
}

func TestScaleIsotropic(t *testing.T) {
	b := periodicBox()
	s := b.ScaleIsotropic(1.1)
	if math.Abs(s.Volume()-b.Volume()*1.331) > 1e-9*b.Volume() {
		t.Errorf("scaled volume %v", s.Volume())
	}
	// Center preserved.
	c1 := b.Lo.Add(b.Hi).Scale(0.5)
	c2 := s.Lo.Add(s.Hi).Scale(0.5)
	if c1.Sub(c2).Norm() > 1e-12 {
		t.Errorf("center moved: %v -> %v", c1, c2)
	}
	// Slab z extent preserved.
	slab := box.NewSlab(vec.V3{}, vec.New(10, 10, 20))
	ss := slab.ScaleIsotropic(2)
	if ss.Lengths().Z != 20 {
		t.Errorf("non-periodic dimension scaled: %v", ss.Lengths())
	}
}

func TestSurfaceAreaAndValid(t *testing.T) {
	b := box.NewPeriodic(vec.V3{}, vec.New(2, 3, 4))
	if b.SurfaceArea() != 2*(6+12+8) {
		t.Errorf("surface area %v", b.SurfaceArea())
	}
	if !b.Valid() {
		t.Error("box should be valid")
	}
	bad := box.NewPeriodic(vec.New(1, 0, 0), vec.New(0, 1, 1))
	if bad.Valid() {
		t.Error("inverted box should be invalid")
	}
}

func TestStringContainsBounds(t *testing.T) {
	s := periodicBox().String()
	if !strings.Contains(s, "box[") || !strings.Contains(s, "periodic") {
		t.Errorf("String(): %q", s)
	}
}
