package pair

import (
	"math"

	"gomd/internal/neighbor"
	"gomd/internal/vec"
)

// LJCut is the truncated 12-6 Lennard-Jones potential with per-type-pair
// coefficients and arithmetic (Lorentz-Berthelot) mixing, as used by the
// LJ melt and Chain benchmarks.
type LJCut struct {
	// Eps and Sigma are indexed [type][type], 1-based types mapped to
	// 0-based indices.
	Eps   [][]float64
	Sigma [][]float64
	RCut  float64
	Shift bool // energy-shift the potential to zero at the cutoff
	Prec  Precision

	scr pairScratch // threaded row loop scratch
}

// NewLJCut builds a single-type LJ potential.
func NewLJCut(eps, sigma, rcut float64, prec Precision) *LJCut {
	return &LJCut{
		Eps:   [][]float64{{eps}},
		Sigma: [][]float64{{sigma}},
		RCut:  rcut,
		Prec:  prec,
	}
}

// NewLJCutMixed builds an ntypes potential with arithmetic mixing from
// per-type eps/sigma.
func NewLJCutMixed(eps, sigma []float64, rcut float64, prec Precision) *LJCut {
	n := len(eps)
	e := make([][]float64, n)
	s := make([][]float64, n)
	for i := 0; i < n; i++ {
		e[i] = make([]float64, n)
		s[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			e[i][j] = math.Sqrt(eps[i] * eps[j])
			s[i][j] = 0.5 * (sigma[i] + sigma[j])
		}
	}
	return &LJCut{Eps: e, Sigma: s, RCut: rcut, Prec: prec}
}

// Name implements Style.
func (p *LJCut) Name() string { return "lj/cut" }

// Cutoff implements Style.
func (p *LJCut) Cutoff() float64 { return p.RCut }

// ListMode implements Style.
func (p *LJCut) ListMode() neighbor.Mode { return neighbor.Half }

// Compute implements Style.
func (p *LJCut) Compute(ctx *Context) Result {
	switch p.Prec {
	case Double:
		return ljCompute[float64](p, ctx)
	default:
		// Single and Mixed share the float32 arithmetic path; they differ
		// only in accumulation width, which the float64 force array makes
		// moot at engine level (the platform model distinguishes their
		// cost; see perfmodel).
		return ljCompute[float32](p, ctx)
	}
}

// ljCoef holds one type pair's prefactors: 48εσ¹², 24εσ⁶, 4εσ¹², 4εσ⁶
// and the energy shift.
type ljCoef[T Real] struct{ lj1, lj2, lj3, lj4, shift T }

func ljCompute[T Real](p *LJCut, ctx *Context) Result {
	st := ctx.Store
	nl := ctx.List
	cut2 := T(p.RCut * p.RCut)
	var res Result
	// Precompute the coefficient table in T, one record per type pair so
	// that the row loop holds one base pointer and one bound, not five.
	nt := len(p.Eps)
	coef := make([]ljCoef[T], nt*nt)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			e, s := p.Eps[i][j], p.Sigma[i][j]
			s6 := math.Pow(s, 6)
			s12 := s6 * s6
			c := &coef[i*nt+j]
			c.lj1 = T(48 * e * s12)
			c.lj2 = T(24 * e * s6)
			c.lj3 = T(4 * e * s12)
			c.lj4 = T(4 * e * s6)
			if p.Shift {
				rc6 := math.Pow(p.RCut, -6)
				c.shift = T(4 * e * (s12*rc6*rc6 - s6*rc6))
			}
		}
	}
	owned := st.N
	pool := ctx.Pool
	W := pool.Workers()
	bnd := nl.Boundary(W)
	rp := nl.RowPtr()
	scr := &p.scr
	scr.reserve(bnd, owned, W)
	scr.begin(&res)
	// One row loop at every worker count; see DESIGN.md "Intra-rank
	// threading". An interior target takes its scatter here, a boundary
	// target's waits in pairF for replay.
	pool.Run("pair_rows", owned, func(w, rlo, rhi int) {
		var pairs int64
		keep := &scr.keep[w]
		flag := bnd.Flag[:owned]
		for i := rlo; i < rhi; i++ {
			pi := st.Pos[i]
			ti := (int(st.Type[i])-1)*nt - 1 // coef row of i's type, less 1 for j's 1-based type
			xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
			var fx, fy, fz, eRow, vRow float64
			row := nl.Row(i)
			base := int(rp[i])
			kept := cutoffFilter(keep, st.Pos, row, xi, yi, zi, cut2)
			for _, kIdx := range kept {
				j := int(row[kIdx])
				pj := st.Pos[j]
				dx := xi - T(pj.X)
				dy := yi - T(pj.Y)
				dz := zi - T(pj.Z)
				r2 := dx*dx + dy*dy + dz*dz
				c := &coef[ti+int(st.Type[j])]
				inv2 := 1 / r2
				inv6 := inv2 * inv2 * inv2
				fpair := inv6 * (c.lj1*inv6 - c.lj2) * inv2
				fx += float64(fpair * dx)
				fy += float64(fpair * dy)
				fz += float64(fpair * dz)
				wgt := scaleHalf(j, owned)
				if j < owned {
					if flag[j] {
						scr.hold(base+int(kIdx), float64(fpair))
					} else {
						st.Force[j] = st.Force[j].Sub(vec.New(float64(fpair*dx), float64(fpair*dy), float64(fpair*dz)))
					}
				}
				e := float64(inv6*(c.lj3*inv6-c.lj4) - c.shift)
				eRow += wgt * e
				vRow += wgt * float64(fpair*r2)
			}
			pairs += int64(len(kept))
			scr.own(st.Force, i, fx, fy, fz)
			scr.sum(w, i, eRow, vRow)
		}
		scr.pairsW[w] = pairs
	})
	scr.fold(&res, owned, W)
	replay[T](pool, scr, st.Pos, st.Force, true)
	return res
}
