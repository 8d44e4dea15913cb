package pair

import (
	"math"

	"gomd/internal/neighbor"
	"gomd/internal/vec"
)

// CharmmCoulLong is the CHARMM pairwise field of the Rhodopsin benchmark:
// 12-6 Lennard-Jones with arithmetic mixing and a CHARMM switching
// function between an inner and outer cutoff, plus the real-space part of
// the Ewald/PPPM-split Coulomb interaction (erfc-damped), matching
// LAMMPS pair_style lj/charmm/coul/long.
type CharmmCoulLong struct {
	Eps, Sigma [][]float64 // mixed per-type-pair tables
	RInner     float64     // LJ switching inner cutoff (8 A in the paper)
	ROuter     float64     // LJ outer cutoff (10 A)
	RCoul      float64     // Coulomb real-space cutoff (= ROuter)
	GEwald     float64     // Ewald splitting parameter, set by the kspace solver
	Prec       Precision

	scr pairScratch // threaded row loop scratch

	// Derived tables, built on the first Compute and again only when
	// what they were derived from changed. GEwald is written by core
	// after the k-space solver's Setup and by tests directly, and a
	// script's pair_coeff rewrites Eps and Sigma in place between runs,
	// so Compute — the one place downstream of every writer — compares
	// the inputs instead of trusting a setter to be called.
	coul *coulTable
	lj   charmmLJ
}

// NewCharmm builds the style with arithmetic mixing over per-type eps and
// sigma, like pair_modify mix arithmetic in the benchmark input.
func NewCharmm(eps, sigma []float64, rInner, rOuter float64, prec Precision) *CharmmCoulLong {
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
	return &CharmmCoulLong{
		Eps: e, Sigma: s,
		RInner: rInner, ROuter: rOuter, RCoul: rOuter,
		GEwald: 0.3, // placeholder until the kspace solver initializes it
		Prec:   prec,
	}
}

// Name implements Style.
func (p *CharmmCoulLong) Name() string { return "lj/charmm/coul/long" }

// Cutoff implements Style.
func (p *CharmmCoulLong) Cutoff() float64 { return math.Max(p.ROuter, p.RCoul) }

// ListMode implements Style.
func (p *CharmmCoulLong) ListMode() neighbor.Mode { return neighbor.Half }

// Compute implements Style.
func (p *CharmmCoulLong) Compute(ctx *Context) Result {
	switch p.Prec {
	case Double:
		return charmmCompute[float64](p, ctx)
	default:
		return charmmCompute[float32](p, ctx)
	}
}

// charmmLJ caches the per-type-pair LJ prefactors, rounded through the
// compute precision and flattened [ti*nt+tj], with the Eps, Sigma and
// Prec they were built from. on[k] is false when all four rounded
// prefactors of the pair are zero (ε = 0 or σ = 0): such a pair has no
// LJ term, and the kernel skips the block.
type charmmLJ struct {
	prec               Precision
	eps, sigma         []float64
	lj1, lj2, lj3, lj4 []float64
	on                 []bool
}

// coulTab returns the Coulomb table for the current (GEwald, RCoul).
func (p *CharmmCoulLong) coulTab() *coulTable {
	if p.coul == nil || p.coul.g != p.GEwald || p.coul.rcoul != p.RCoul {
		p.coul = newCoulTable(p.GEwald, p.RCoul)
	}
	return p.coul
}

// ljCoeffs returns the LJ prefactors for the current Eps, Sigma and Prec
// in T arithmetic.
func ljCoeffs[T Real](p *CharmmCoulLong) *charmmLJ {
	c := &p.lj
	nt := len(p.Eps)
	stale := c.prec != p.Prec || len(c.eps) != nt*nt
	for k := 0; k < len(c.eps) && !stale; k++ {
		stale = c.eps[k] != p.Eps[k/nt][k%nt] || c.sigma[k] != p.Sigma[k/nt][k%nt]
	}
	if !stale {
		return c
	}
	n := nt * nt
	buf := make([]float64, 6*n)
	*c = charmmLJ{prec: p.Prec, eps: buf[:n], sigma: buf[n : 2*n],
		lj1: buf[2*n : 3*n], lj2: buf[3*n : 4*n], lj3: buf[4*n : 5*n], lj4: buf[5*n:],
		on: make([]bool, n)}
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			e, s := p.Eps[i][j], p.Sigma[i][j]
			s6 := math.Pow(s, 6)
			s12 := s6 * s6
			k := i*nt + j
			c.eps[k], c.sigma[k] = e, s
			c.lj1[k] = float64(T(48 * e * s12))
			c.lj2[k] = float64(T(24 * e * s6))
			c.lj3[k] = float64(T(4 * e * s12))
			c.lj4[k] = float64(T(4 * e * s6))
			c.on[k] = c.lj1[k] != 0 || c.lj2[k] != 0 || c.lj3[k] != 0 || c.lj4[k] != 0
		}
	}
	return c
}

func charmmCompute[T Real](p *CharmmCoulLong, ctx *Context) Result {
	st := ctx.Store
	nl := ctx.List
	var res Result

	nt := len(p.Eps)
	lj := ljCoeffs[T](p)
	lj1, lj2, lj3, lj4, ljOn := lj.lj1, lj.lj2, lj.lj3, lj.lj4, lj.on
	// Built here, before any pool.Run: the workers only read it.
	tab := p.coulTab()

	in2 := p.RInner * p.RInner
	out2 := p.ROuter * p.ROuter
	// CHARMM switching function denominator.
	denom := math.Pow(out2-in2, 3)
	cutLJ2 := T(out2)
	cutCoul2 := T(p.RCoul * p.RCoul)
	maxCut2 := cutLJ2
	if cutCoul2 > maxCut2 {
		maxCut2 = cutCoul2
	}
	qqr2e := ctx.QQr2E

	owned := st.N

	// One row loop at every worker count (see ljCompute / DESIGN.md).
	pool := ctx.Pool
	W := pool.Workers()
	bnd := nl.Boundary(W)
	rp := nl.RowPtr()
	scr := &p.scr
	scr.reserve(bnd, owned, W)
	scr.begin(&res)
	pool.Run("pair_rows", owned, func(w, rlo, rhi int) {
		var pairs int64
		keep := &scr.keep[w]
		flag := bnd.Flag[:owned]
		// pairTerms evaluates one entry: the switched LJ term plus the
		// erfc-damped real-space Coulomb term, read from the table (with
		// the exclusion compensation for special pairs). Declared in the
		// loop's own function so that its one call inlines.
		pairTerms := func(r2 T, qi, qj float64, ti, tj int, kind int) (fpair, epair float64) {
			r2f := float64(r2)

			// Special (bonded-topology) pairs carry CHARMM weights:
			// LJ excluded, Coulomb handled below as a k-space
			// compensation (factor_coul = 0).
			//
			// The block runs only for type pairs that have an LJ term
			// (ljOn), and skipping it for the rest changes no bit. With
			// lj1…lj4 all zero it would give flj = inv6·(0·inv6 − 0)·inv2
			// and elj = inv6·(0·inv6 − 0), both zero, then flj·sw −
			// elj·dsw and elj·sw, zero again: every factor is finite
			// wherever r⁻⁶ is. fpair and epair start at +0, and
			// +0 + ±0 = +0, which is what the skip leaves.
			if k := ti*nt + tj; kind == 0 && r2 <= cutLJ2 && ljOn[k] {
				inv2 := 1 / r2f
				inv6 := inv2 * inv2 * inv2
				flj := inv6 * (lj1[k]*inv6 - lj2[k]) * inv2
				elj := inv6 * (lj3[k]*inv6 - lj4[k])
				if r2f > in2 {
					// CHARMM switching: S(r) smoothly takes the LJ term
					// from full at RInner to zero at ROuter.
					t1 := out2 - r2f
					t2 := t1 * t1
					sw := t2 * (out2 + 2*r2f - 3*in2) / denom
					dsw := 12 * t1 * (in2 - r2f) / denom // dS/d(r2)
					flj = flj*sw - elj*dsw
					elj *= sw
				}
				fpair += flj
				epair += elj
			}

			// A neutral partner makes qq = 0 and the term exactly 0.
			if r2 <= cutCoul2 && qi != 0 && qj != 0 {
				qq := qqr2e * qi * qj
				var f, e float64
				if c, d := tab.cell(r2f); c != nil {
					f, e = cubics(c, d)
				} else {
					f, e = coulExact(tab.g, r2f)
				}
				fcoul, ecoul := qq*f, qq*e
				if kind != 0 {
					// Excluded pair: subtract the full 1/r term, leaving
					// -erf(g r)/r, which exactly cancels the k-space
					// solver's contribution for this pair.
					pre := qq / math.Sqrt(r2f)
					fcoul -= pre * (1 / r2f) // not pre / r2f, which rounds differently
					ecoul -= pre
				}
				fpair += fcoul
				epair += ecoul
			}
			return fpair, epair
		}
		for i := rlo; i < rhi; i++ {
			pi := st.Pos[i]
			ti := int(st.Type[i]) - 1
			qi := st.Charge[i]
			xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
			var fx, fy, fz, eRow, vRow float64
			row := nl.Row(i)
			base := int(rp[i])
			kept := cutoffFilter(keep, st.Pos, row, xi, yi, zi, maxCut2)
			for _, k := range kept {
				j, kind := neighbor.Decode(row[k])
				pj := st.Pos[j]
				dx := xi - T(pj.X)
				dy := yi - T(pj.Y)
				dz := zi - T(pj.Z)
				r2 := dx*dx + dy*dy + dz*dz
				fpair, epair := pairTerms(r2, qi, st.Charge[j], ti, int(st.Type[j])-1, int(kind))
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
				eRow += wgt * epair
				vRow += wgt * fpair * float64(r2)
			}
			pairs += int64(len(kept))
			scr.own(st.Force, i, fx, fy, fz)
			scr.sum(w, i, eRow, vRow)
		}
		scr.pairsW[w] = pairs
	})
	scr.fold(&res, owned, W)
	replay[T](pool, scr, st.Pos, st.Force, false)
	return res
}
