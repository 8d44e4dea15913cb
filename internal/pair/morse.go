package pair

import (
	"math"

	"gomd/internal/neighbor"
	"gomd/internal/vec"
)

// Morse is the Morse pair potential (LAMMPS pair_style morse),
//
//	E = D0 [ e^{-2 a (r - r0)} - 2 e^{-a (r - r0)} ]
//
// a bounded-repulsion alternative to LJ often used for metals and as a
// soft-start potential. Included beyond the paper's suite for engine
// completeness.
type Morse struct {
	D0, Alpha, R0 float64
	RCut          float64
	Prec          Precision

	keep []int32 // cutoffFilter scratch
}

// Name implements Style.
func (p *Morse) Name() string { return "morse" }

// Cutoff implements Style.
func (p *Morse) Cutoff() float64 { return p.RCut }

// ListMode implements Style.
func (p *Morse) ListMode() neighbor.Mode { return neighbor.Half }

// Compute implements Style.
func (p *Morse) Compute(ctx *Context) Result {
	switch p.Prec {
	case Double:
		return morseCompute[float64](p, ctx)
	default:
		return morseCompute[float32](p, ctx)
	}
}

func morseCompute[T Real](p *Morse, ctx *Context) Result {
	st := ctx.Store
	nl := ctx.List
	var res Result
	cut2 := T(p.RCut * p.RCut)
	owned := st.N
	for i := 0; i < owned; i++ {
		pi := st.Pos[i]
		xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
		var fx, fy, fz float64
		row := nl.Row(i)
		for _, k := range cutoffFilter(&p.keep, st.Pos, row, xi, yi, zi, cut2) {
			j, _ := neighbor.Decode(row[k])
			pj := st.Pos[j]
			dx := xi - T(pj.X)
			dy := yi - T(pj.Y)
			dz := zi - T(pj.Z)
			r2 := dx*dx + dy*dy + dz*dz
			r := math.Sqrt(float64(r2))
			ex := math.Exp(-p.Alpha * (r - p.R0))
			e := p.D0 * (ex*ex - 2*ex)
			// dE/dr = D0 (-2a e^{-2a dr} + 2a e^{-a dr}); f = -dE/dr / r.
			fpair := 2 * p.D0 * p.Alpha * (ex*ex - ex) / r
			fx += fpair * float64(dx)
			fy += fpair * float64(dy)
			fz += fpair * float64(dz)
			if j < owned {
				st.Force[j] = st.Force[j].Sub(vec.New(fpair*float64(dx), fpair*float64(dy), fpair*float64(dz)))
			}
			w := scaleHalf(j, owned)
			res.Energy += w * e
			res.Virial += w * fpair * float64(r2)
			res.Pairs++
		}
		st.Force[i] = st.Force[i].Add(vec.New(fx, fy, fz))
	}
	return res
}
