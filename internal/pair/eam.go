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

	scr    pairScratch // two-phase parallel path scratch
	rhoOwn []float64   // per-row own-density partials (parallel path)
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
	for i := range rho {
		rho[i] = 0
	}

	cut2 := T(p.RCut * p.RCut)
	a2 := T(p.A * p.A)
	mHalf := p.MExp / 2 // density term: (a^2/r^2)^(m/2)
	nOdd := p.NExp % 2
	epsN := p.EpsSC * float64(p.NExp)
	pool := ctx.Pool
	W := pool.Workers()

	if W <= 1 {
		// Serial single-pass path. As in ljCompute, pass-2 energy and
		// virial accumulate per row before folding into the totals so
		// the grouping matches the parallel path exactly.

		keep := &p.scr.filters(1)[0]

		// Pass 1: accumulate electron density.
		for i := 0; i < owned; i++ {
			pi := st.Pos[i]
			xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
			var acc float64
			row := nl.Row(i)
			for _, k := range cutoffFilter(keep, st.Pos, row, xi, yi, zi, cut2) {
				j := int(row[k])
				pj := st.Pos[j]
				dx := xi - T(pj.X)
				dy := yi - T(pj.Y)
				dz := zi - T(pj.Z)
				r2 := dx*dx + dy*dy + dz*dz
				q := a2 / r2
				d := powInt(q, mHalf) // (a/r)^m for even m
				acc += float64(d)
				if j < owned {
					rho[j] += float64(d)
				}
				res.Pairs++
			}
			rho[i] += acc
		}
		// Ghost densities come from their owners (half lists never accumulate
		// into ghosts for owned-ghost pairs on this side; the mirror rank, or
		// the owner itself in serial periodic runs, holds the complete sum).
		ctx.Sync.ForwardScalar(rho)

		// Embedding energy and its derivative for owned atoms; ghosts get fp
		// via the halo exchange.
		for i := 0; i < owned; i++ {
			r := rho[i]
			if r <= 0 {
				fp[i] = 0
				continue
			}
			sq := math.Sqrt(r)
			res.Energy += -p.EpsSC * p.C * sq
			fp[i] = -p.EpsSC * p.C * 0.5 / sq // dF/drho
		}
		ctx.Sync.ForwardScalar(fp)

		// Pass 2: pair repulsion + embedding forces.
		for i := 0; i < owned; i++ {
			pi := st.Pos[i]
			xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
			fpi := fp[i]
			var fx, fy, fz, eRow, vRow float64
			row := nl.Row(i)
			for _, k := range cutoffFilter(keep, st.Pos, row, xi, yi, zi, cut2) {
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
					st.Force[j] = st.Force[j].Sub(vec.New(fpair*float64(dx), fpair*float64(dy), fpair*float64(dz)))
				}
				w := scaleHalf(j, owned)
				eRow += w * phi
				vRow += w * fpair * r2f
				res.Pairs++
			}
			st.Force[i] = st.Force[i].Add(vec.New(fx, fy, fz))
			res.Energy += eRow
			res.Virial += vRow
		}
		return res
	}

	// Two-phase parallel path. Pass 1 reuses the pair-magnitude buffer
	// for per-entry density terms and gathers them through the list
	// transpose in ascending (row, entry) order; pass 2 is the same
	// scheme as ljCompute. Both passes fold scalars serially over rows,
	// so energy/virial/forces match the serial path bit for bit.
	rp := nl.RowPtr()
	scr := &p.scr
	scr.reserve(owned, int(rp[owned]), W)
	p.rhoOwn = growSlice(p.rhoOwn, owned)
	rhoOwn := p.rhoOwn

	// Pass 1a: per-entry density terms and per-row own sums.
	pool.Run("eam_rho_rows", owned, func(w, rlo, rhi int) {
		var pairs int64
		keep := &scr.keep[w]
		for i := rlo; i < rhi; i++ {
			pi := st.Pos[i]
			xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
			var acc float64
			row := nl.Row(i)
			rowF := scr.pairF[rp[i]:rp[i+1]]
			clear(rowF)
			for _, k := range cutoffFilter(keep, st.Pos, row, xi, yi, zi, cut2) {
				pj := st.Pos[int(row[k])]
				dx := xi - T(pj.X)
				dy := yi - T(pj.Y)
				dz := zi - T(pj.Z)
				r2 := dx*dx + dy*dy + dz*dz
				d := powInt(a2/r2, mHalf)
				rowF[k] = float64(d)
				acc += float64(d)
				pairs++
			}
			rhoOwn[i] = acc
		}
		scr.pairsW[w] = pairs
	})
	// Pass 1b: gather densities per owned target (ghost slots stay 0,
	// exactly as the serial half-list pass leaves them).
	tptr, trow, tidx := nl.Transpose()
	pool.Run("eam_rho_gather", owned, func(w, jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			var acc float64
			for t := tptr[j]; t < tptr[j+1]; t++ {
				if d := scr.pairF[tidx[t]]; d != 0 {
					acc += d
				}
			}
			rho[j] = acc + rhoOwn[j]
		}
	})
	ctx.Sync.ForwardScalar(rho)

	// Embedding: per-row energies folded serially in row order (the
	// serial path's flat per-atom chain has the same grouping).
	pool.Run("eam_embed", owned, func(w, rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			r := rho[i]
			if r <= 0 {
				fp[i] = 0
				scr.rowE[i] = 0
				continue
			}
			sq := math.Sqrt(r)
			scr.rowE[i] = -p.EpsSC * p.C * sq
			fp[i] = -p.EpsSC * p.C * 0.5 / sq // dF/drho
		}
	})
	for i := 0; i < owned; i++ {
		res.Energy += scr.rowE[i]
	}
	ctx.Sync.ForwardScalar(fp)

	// Pass 2a: force magnitudes, own forces, per-row energy/virial.
	pool.Run("pair_rows", owned, func(w, rlo, rhi int) {
		var pairs int64
		keep := &scr.keep[w]
		for i := rlo; i < rhi; i++ {
			pi := st.Pos[i]
			xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
			fpi := fp[i]
			var fx, fy, fz, eRow, vRow float64
			row := nl.Row(i)
			rowF := scr.pairF[rp[i]:rp[i+1]]
			clear(rowF)
			for _, k := range cutoffFilter(keep, st.Pos, row, xi, yi, zi, cut2) {
				j := int(row[k])
				pj := st.Pos[j]
				dx := xi - T(pj.X)
				dy := yi - T(pj.Y)
				dz := zi - T(pj.Z)
				r2 := dx*dx + dy*dy + dz*dz
				q := a2 / r2
				r2f := float64(r2)
				vn := float64(powInt(q, p.NExp/2))
				if nOdd == 1 {
					vn *= math.Sqrt(float64(q))
				}
				vm := float64(powInt(q, mHalf))
				phi := p.EpsSC * vn
				dphi := -epsN * vn / r2f
				drho := -float64(p.MExp) * vm / r2f
				fpair := -(dphi + (fpi+fp[j])*drho)
				rowF[k] = fpair
				fx += fpair * float64(dx)
				fy += fpair * float64(dy)
				fz += fpair * float64(dz)
				w := scaleHalf(j, owned)
				eRow += w * phi
				vRow += w * fpair * r2f
				pairs++
			}
			scr.ownF[i] = [3]float64{fx, fy, fz}
			scr.rowE[i] = eRow
			scr.rowV[i] = vRow
		}
		scr.pairsW[w] += pairs // adds to the pass-1 count, as serial does
	})
	// Pass 2b: gather scatter forces per owned target.
	pool.Run("pair_gather", owned, func(w, jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			pj := st.Pos[j]
			xj, yj, zj := T(pj.X), T(pj.Y), T(pj.Z)
			var fx, fy, fz float64
			for t := tptr[j]; t < tptr[j+1]; t++ {
				fpair := scr.pairF[tidx[t]]
				if fpair == 0 {
					continue
				}
				pi := st.Pos[trow[t]]
				fx -= fpair * float64(T(pi.X)-xj)
				fy -= fpair * float64(T(pi.Y)-yj)
				fz -= fpair * float64(T(pi.Z)-zj)
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
