package domain

import (
	"math"
	"math/rand/v2"
	"testing"

	"gomd/internal/box"
	"gomd/internal/core"
	"gomd/internal/vec"
)

// TestOwnerConsistentWithSubBounds: the sub-domains Backend.subBounds
// reports (what the halo is cut against) tile the cell, and the rank
// Box.Owner assigns a wrapped position (where domain.New places atoms
// and migrate sends them) holds that position inside its sub-domain.
func TestOwnerConsistentWithSubBounds(t *testing.T) {
	b := box.NewPeriodic(vec.New(-2, 0, 1), vec.New(8, 5, 11))
	sim := &core.Simulation{Box: b}
	grid := [3]int{3, 2, 2}
	rng := rand.New(rand.NewPCG(1, 2))
	// Positions up to two box lengths outside the cell, so wrapping is
	// part of the path.
	coord := func(lo, hi float64) float64 { return lo + (hi-lo)*(5*rng.Float64()-2) }
	const eps = 1e-9
	for d := 0; d < 3; d++ {
		end := b.Lo.Component(d)
		for i := 0; i < grid[d]; i++ {
			var c [3]int
			c[d] = i
			lo, hi := (&Backend{grid: grid, coord: c}).subBounds(sim)
			if math.Abs(lo.Component(d)-end) > eps {
				t.Fatalf("dim %d: sub-domain %d starts at %g, the one before ends at %g", d, i, lo.Component(d), end)
			}
			end = hi.Component(d)
		}
		if math.Abs(end-b.Hi.Component(d)) > eps {
			t.Fatalf("dim %d: the sub-domains end at %g, the cell at %g", d, end, b.Hi.Component(d))
		}
	}
	for i := 0; i < 2000; i++ {
		p, _ := b.Wrap(vec.New(coord(b.Lo.X, b.Hi.X), coord(b.Lo.Y, b.Hi.Y), coord(b.Lo.Z, b.Hi.Z)))
		c := b.Owner(p, grid[0], grid[1], grid[2])
		lo, hi := (&Backend{grid: grid, coord: c}).subBounds(sim)
		if p.X < lo.X-eps || p.X > hi.X+eps || p.Y < lo.Y-eps || p.Y > hi.Y+eps || p.Z < lo.Z-eps || p.Z > hi.Z+eps {
			t.Fatalf("%v is owned by %v, whose sub-domain is %v..%v", p, c, lo, hi)
		}
	}
}
