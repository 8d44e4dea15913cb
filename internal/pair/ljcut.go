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

	scr pairScratch // two-phase parallel path scratch
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

func ljCompute[T Real](p *LJCut, ctx *Context) Result {
	st := ctx.Store
	nl := ctx.List
	cut2 := T(p.RCut * p.RCut)
	var res Result
	// Precompute coefficient tables in T.
	nt := len(p.Eps)
	lj1 := make([]T, nt*nt) // 48*eps*sigma^12
	lj2 := make([]T, nt*nt) // 24*eps*sigma^6
	lj3 := make([]T, nt*nt) // 4*eps*sigma^12
	lj4 := make([]T, nt*nt) // 4*eps*sigma^6
	shift := make([]T, nt*nt)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			e, s := p.Eps[i][j], p.Sigma[i][j]
			s6 := math.Pow(s, 6)
			s12 := s6 * s6
			lj1[i*nt+j] = T(48 * e * s12)
			lj2[i*nt+j] = T(24 * e * s6)
			lj3[i*nt+j] = T(4 * e * s12)
			lj4[i*nt+j] = T(4 * e * s6)
			if p.Shift {
				rc6 := math.Pow(p.RCut, -6)
				shift[i*nt+j] = T(4 * e * (s12*rc6*rc6 - s6*rc6))
			}
		}
	}
	owned := st.N

	// Serial single-pass path. Per-row energy/virial partials fold into
	// the totals at row end — exactly the grouping of the two-phase
	// parallel path's fold, so both paths agree bit for bit.
	if ctx.Pool.Workers() <= 1 {
		keep := &p.scr.filters(1)[0]
		for i := 0; i < owned; i++ {
			pi := st.Pos[i]
			ti := int(st.Type[i]) - 1
			xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
			var fx, fy, fz, eRow, vRow float64
			row := nl.Row(i)
			for _, kIdx := range cutoffFilter(keep, st.Pos, row, xi, yi, zi, cut2) {
				j := int(row[kIdx])
				pj := st.Pos[j]
				dx := xi - T(pj.X)
				dy := yi - T(pj.Y)
				dz := zi - T(pj.Z)
				r2 := dx*dx + dy*dy + dz*dz
				tj := int(st.Type[j]) - 1
				k := ti*nt + tj
				inv2 := 1 / r2
				inv6 := inv2 * inv2 * inv2
				fpair := inv6 * (lj1[k]*inv6 - lj2[k]) * inv2
				fx += float64(fpair * dx)
				fy += float64(fpair * dy)
				fz += float64(fpair * dz)
				w := scaleHalf(j, owned)
				if j < owned {
					st.Force[j] = st.Force[j].Sub(vec.New(float64(fpair*dx), float64(fpair*dy), float64(fpair*dz)))
				}
				e := float64(inv6*(lj3[k]*inv6-lj4[k]) - shift[k])
				eRow += w * e
				vRow += w * float64(fpair*r2)
				res.Pairs++
			}
			st.Force[i] = st.Force[i].Add(vec.New(fx, fy, fz))
			res.Energy += eRow
			res.Virial += vRow
		}
		return res
	}

	// Two-phase parallel path; see DESIGN.md "Intra-rank threading".
	// Phase 1 computes every pair once per owning row and stores its
	// force magnitude; phase 2 gathers each target's scatter terms in
	// ascending (row, entry) order through the list transpose,
	// reproducing the serial scatter arithmetic exactly.
	pool := ctx.Pool
	rp := nl.RowPtr()
	scr := &p.scr
	scr.reserve(owned, int(rp[owned]), pool.Workers())
	pool.Run("pair_rows", owned, func(w, rlo, rhi int) {
		var pairs int64
		keep := &scr.keep[w]
		for i := rlo; i < rhi; i++ {
			pi := st.Pos[i]
			ti := int(st.Type[i]) - 1
			xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
			var fx, fy, fz, eRow, vRow float64
			row := nl.Row(i)
			rowF := scr.pairF[rp[i]:rp[i+1]]
			clear(rowF) // 0 marks out-of-cutoff for the gather
			for _, kIdx := range cutoffFilter(keep, st.Pos, row, xi, yi, zi, cut2) {
				j := int(row[kIdx])
				pj := st.Pos[j]
				dx := xi - T(pj.X)
				dy := yi - T(pj.Y)
				dz := zi - T(pj.Z)
				r2 := dx*dx + dy*dy + dz*dz
				tj := int(st.Type[j]) - 1
				k := ti*nt + tj
				inv2 := 1 / r2
				inv6 := inv2 * inv2 * inv2
				fpair := inv6 * (lj1[k]*inv6 - lj2[k]) * inv2
				rowF[kIdx] = float64(fpair)
				fx += float64(fpair * dx)
				fy += float64(fpair * dy)
				fz += float64(fpair * dz)
				w := scaleHalf(j, owned)
				ev := float64(inv6*(lj3[k]*inv6-lj4[k]) - shift[k])
				eRow += w * ev
				vRow += w * float64(fpair*r2)
				pairs++
			}
			scr.ownF[i] = [3]float64{fx, fy, fz}
			scr.rowE[i] = eRow
			scr.rowV[i] = vRow
		}
		scr.pairsW[w] = pairs
	})
	tptr, trow, tidx := nl.Transpose()
	pool.Run("pair_gather", owned, func(w, jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			pj := st.Pos[j]
			xj, yj, zj := T(pj.X), T(pj.Y), T(pj.Z)
			var fx, fy, fz float64
			for t := tptr[j]; t < tptr[j+1]; t++ {
				f64 := scr.pairF[tidx[t]]
				if f64 == 0 {
					continue
				}
				fpair := T(f64)
				pi := st.Pos[trow[t]]
				fx -= float64(fpair * (T(pi.X) - xj))
				fy -= float64(fpair * (T(pi.Y) - yj))
				fz -= float64(fpair * (T(pi.Z) - zj))
			}
			o := scr.ownF[j]
			fx += o[0]
			fy += o[1]
			fz += o[2]
			st.Force[j] = st.Force[j].Add(vec.New(fx, fy, fz))
		}
	})
	scr.fold(owned, &res)
	return res
}
