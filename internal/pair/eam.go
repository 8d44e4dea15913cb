package pair

import (
	"math"

	"gomd/internal/neighbor"
	"gomd/internal/vec"
)

// EAM implements an embedded-atom-method potential of the Sutton-Chen
// analytic family, the many-body metallic potential class of the paper's
// EAM (copper) benchmark:
//
//	E = sum_i F(rho_i) + 1/2 sum_{i!=j} V(r_ij)
//	V(r) = eps (a/r)^n,  rho_i = sum_j (a/r_ij)^m,  F(rho) = -eps c sqrt(rho)
//
// The paper's benchmark uses a tabulated Cu EAM file; we substitute the
// analytic Sutton-Chen Cu parameterization (same functional class, same
// two-pass computation structure with a density halo exchange between
// passes), which preserves the workload signature: ~45 neighbors/atom at
// the 4.95 A cutoff and a pair kernel that is heavier per neighbor than
// plain LJ.
type EAM struct {
	EpsSC float64 // eV
	A     float64 // lattice constant scale, A
	C     float64 // embedding prefactor
	NExp  int     // repulsive exponent n
	MExp  int     // density exponent m
	RCut  float64
	Prec  Precision

	// scratch reused across calls
	rho []float64
	fp  []float64

	scr    pairScratch // threaded row loop scratch
	rhoOwn []float64   // a boundary row's own density sum, for the replay
}

// NewEAMCopper returns the Sutton-Chen Cu parameterization with the
// benchmark's 4.95 A force cutoff.
func NewEAMCopper(prec Precision) *EAM {
	return &EAM{
		EpsSC: 1.2382e-2,
		A:     3.615,
		C:     39.432,
		NExp:  9,
		MExp:  6,
		RCut:  4.95,
		Prec:  prec,
	}
}

// Name implements Style.
func (p *EAM) Name() string { return "eam" }

// Cutoff implements Style.
func (p *EAM) Cutoff() float64 { return p.RCut }

// ListMode implements Style.
func (p *EAM) ListMode() neighbor.Mode { return neighbor.Half }

// Compute implements Style. It performs the two EAM passes with a ghost
// synchronization of the embedding derivative in between, mirroring the
// forward pair communication LAMMPS issues inside Pair::compute for EAM.
func (p *EAM) Compute(ctx *Context) Result {
	switch p.Prec {
	case Double:
		return eamCompute[float64](p, ctx)
	default:
		return eamCompute[float32](p, ctx)
	}
}

func eamCompute[T Real](p *EAM, ctx *Context) Result {
	st := ctx.Store
	nl := ctx.List
	var res Result
	total := st.Total()
	owned := st.N

	if cap(p.rho) < total {
		p.rho = make([]float64, total)
		p.fp = make([]float64, total)
	}
	rho := p.rho[:total]
	fp := p.fp[:total]
	clear(rho)

	cut2 := T(p.RCut * p.RCut)
	a2 := T(p.A * p.A)
	mHalf := p.MExp / 2 // density term: (a^2/r^2)^(m/2)
	nOdd := p.NExp % 2
	epsN := p.EpsSC * float64(p.NExp)
	pool := ctx.Pool
	W := pool.Workers()
	bnd := nl.Boundary(W)
	rp := nl.RowPtr()
	scr := &p.scr
	scr.reserve(bnd, owned, W)
	if W > 1 {
		p.rhoOwn = growSlice(p.rhoOwn, owned)
	}
	rhoOwn := p.rhoOwn

	// Both passes are one row loop at every worker count (see ljCompute /
	// DESIGN.md); the density scatter rho[j] += d follows the same
	// interior/boundary rule as the force scatter.

	// Pass 1: accumulate electron density.
	pool.Run("eam_rho_rows", owned, func(w, rlo, rhi int) {
		var pairs int64
		keep := &scr.keep[w]
		flag := bnd.Flag[:owned]
		for i := rlo; i < rhi; i++ {
			pi := st.Pos[i]
			xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
			var acc float64
			row := nl.Row(i)
			base := int(rp[i])
			kept := cutoffFilter(keep, st.Pos, row, xi, yi, zi, cut2)
			for _, k := range kept {
				j := int(row[k])
				pj := st.Pos[j]
				dx := xi - T(pj.X)
				dy := yi - T(pj.Y)
				dz := zi - T(pj.Z)
				r2 := dx*dx + dy*dy + dz*dz
				d := powInt(a2/r2, mHalf) // (a/r)^m for even m
				acc += float64(d)
				if j < owned {
					if flag[j] {
						scr.hold(base+int(k), float64(d))
					} else {
						rho[j] += float64(d)
					}
				}
			}
			pairs += int64(len(kept))
			if flag[i] {
				rhoOwn[i] = acc
			} else {
				rho[i] += acc
			}
		}
		scr.pairsW[w] = pairs
	})
	pool.Run("eam_rho_boundary", len(bnd.Targets), func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			j := bnd.Targets[t]
			r := rho[j]
			for k := bnd.Ptr[t]; k < bnd.Ptr[t+1]; k++ {
				if d := scr.pairF[k]; d != 0 {
					scr.pairF[k] = 0
					r += d
				}
			}
			rho[j] = r + rhoOwn[j]
		}
	})
	// Ghost densities come from their owners (half lists never accumulate
	// into ghosts for owned-ghost pairs on this side; the mirror rank, or
	// the owner itself in serial periodic runs, holds the complete sum).
	ctx.Sync.ForwardScalar(rho)

	// Embedding energy and its derivative for owned atoms; ghosts get fp
	// via the halo exchange.
	scr.begin(&res)
	pool.Run("eam_embed", owned, func(w, rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			r := rho[i]
			if r <= 0 {
				fp[i] = 0
				scr.sum(w, i, 0, 0)
				continue
			}
			sq := math.Sqrt(r)
			scr.sum(w, i, -p.EpsSC*p.C*sq, 0)
			fp[i] = -p.EpsSC * p.C * 0.5 / sq // dF/drho
		}
	})
	scr.fold(&res, owned, W)
	ctx.Sync.ForwardScalar(fp)

	// Pass 2: pair repulsion + embedding forces.
	scr.begin(&res)
	pool.Run("pair_rows", owned, func(w, rlo, rhi int) {
		var pairs int64
		keep := &scr.keep[w]
		flag := bnd.Flag[:owned]
		for i := rlo; i < rhi; i++ {
			pi := st.Pos[i]
			xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
			fpi := fp[i]
			var fx, fy, fz, eRow, vRow float64
			row := nl.Row(i)
			base := int(rp[i])
			kept := cutoffFilter(keep, st.Pos, row, xi, yi, zi, cut2)
			for _, k := range kept {
				j := int(row[k])
				pj := st.Pos[j]
				dx := xi - T(pj.X)
				dy := yi - T(pj.Y)
				dz := zi - T(pj.Z)
				r2 := dx*dx + dy*dy + dz*dz
				q := a2 / r2
				r2f := float64(r2)
				// (a/r)^n: for odd n multiply an even power by a/r.
				vn := float64(powInt(q, p.NExp/2))
				if nOdd == 1 {
					vn *= math.Sqrt(float64(q))
				}
				vm := float64(powInt(q, mHalf))
				phi := p.EpsSC * vn
				// dV/dr * (1/r) = -n*V/r^2 ; d rho/dr * (1/r) = -m*rho_term/r^2
				dphi := -epsN * vn / r2f
				drho := -float64(p.MExp) * vm / r2f
				fpair := -(dphi + (fpi+fp[j])*drho)
				fx += fpair * float64(dx)
				fy += fpair * float64(dy)
				fz += fpair * float64(dz)
				if j < owned {
					if flag[j] {
						scr.hold(base+int(k), fpair)
					} else {
						st.Force[j] = st.Force[j].Sub(vec.New(fpair*float64(dx), fpair*float64(dy), fpair*float64(dz)))
					}
				}
				wgt := scaleHalf(j, owned)
				eRow += wgt * phi
				vRow += wgt * fpair * r2f
			}
			pairs += int64(len(kept))
			scr.own(st.Force, i, fx, fy, fz)
			scr.sum(w, i, eRow, vRow)
		}
		scr.pairsW[w] += pairs // adds to the pass-1 count, as the pair count has both passes
	})
	scr.fold(&res, owned, W)
	replay[T](pool, scr, st.Pos, st.Force, false)
	return res
}

// powInt computes q^k for small non-negative k by repeated squaring.
func powInt[T Real](q T, k int) T {
	r := T(1)
	for k > 0 {
		if k&1 == 1 {
			r *= q
		}
		q *= q
		k >>= 1
	}
	return r
}
