package pair_test

import (
	"fmt"
	"math"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/neighbor"
	"gomd/internal/pair"
	"gomd/internal/par"
	"gomd/internal/vec"
	"gomd/internal/workload"
)

// setLJ gives type index t the LJ parameters eps and sigma in place, with
// the style's arithmetic mixing against every other type's own diagonal
// values, as a pair_coeff would.
func setLJ(p *pair.CharmmCoulLong, t int, eps, sigma float64) {
	p.Eps[t][t], p.Sigma[t][t] = eps, sigma
	for u := range p.Eps {
		if u != t {
			e, s := math.Sqrt(eps*p.Eps[u][u]), 0.5*(sigma+p.Sigma[u][u])
			p.Eps[t][u], p.Eps[u][t], p.Sigma[t][u], p.Sigma[u][t] = e, e, s, s
		}
	}
}

// refTabulated is refCharmm in p's precision, reading the Coulomb factors
// from p's own table: what the kernel must reproduce bit for bit.
func refTabulated(p *pair.CharmmCoulLong, st *atom.Store, nl *neighbor.List, qqr2e float64) (pair.Result, []vec.V3) {
	if p.Prec == pair.Double {
		return refCharmm[float64](p, st, nl, qqr2e, p.CoulFactors)
	}
	return refCharmm[float32](p, st, nl, qqr2e, p.CoulFactors)
}

// requireSameBits fails unless got and gotF equal want and wantF bit for
// bit: pair count, energy, virial and every owned atom's force.
func requireSameBits(t *testing.T, id string, got, want pair.Result, gotF, wantF []vec.V3) {
	t.Helper()
	if got.Pairs != want.Pairs || math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
		math.Float64bits(got.Virial) != math.Float64bits(want.Virial) {
		t.Fatalf("%s: result %+v, reference %+v", id, got, want)
	}
	for i, f := range wantF {
		g := gotF[i]
		if math.Float64bits(g.X) != math.Float64bits(f.X) || math.Float64bits(g.Y) != math.Float64bits(f.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(f.Z) {
			t.Fatalf("%s: force on atom %d is %v, reference %v", id, i, g, f)
		}
	}
}

// computeDimer runs the kernel over two opposite charges 3 apart.
func computeDimer(p *pair.CharmmCoulLong) pair.Result {
	st := atom.New(2)
	st.Add(atom.Atom{Tag: 1, Type: 1, Charge: 0.4})
	st.Add(atom.Atom{Tag: 2, Type: 1, Pos: vec.New(3, 0, 0), Charge: -0.4})
	nl := neighbor.NewList(p.ListMode(), p.Cutoff(), 0.5)
	nl.Build(st)
	return p.Compute(&pair.Context{Store: st, List: nl, QQr2E: 332.06371})
}

// TestCharmmDerivedTablesFollowInputs: the Coulomb table is rebuilt when
// GEwald or RCoul is reassigned and at no other time, and the LJ
// prefactors — and with them which type pairs have an LJ term at all —
// follow Eps and Sigma rewritten in place, as a script's pair_coeff does
// between two runs.
func TestCharmmDerivedTablesFollowInputs(t *testing.T) {
	p := pair.NewCharmm([]float64{0.15}, []float64{3.2}, 6, 8, pair.Double)
	p.GEwald = 0.3
	first := computeDimer(p)
	tab, g, rc := p.CoulTableKey()
	if tab == nil || g != 0.3 || rc != 8 {
		t.Fatalf("after the first Compute the table is for g=%v rcoul=%v (nil: %v)", g, rc, tab == nil)
	}
	if again := computeDimer(p); !sameTable(p, tab) || again != first {
		t.Errorf("unchanged inputs: table rebuilt (%v) or result moved: %+v then %+v", !sameTable(p, tab), first, again)
	}
	p.GEwald = 0.31
	if computeDimer(p); sameTable(p, tab) {
		t.Errorf("GEwald reassigned: table not rebuilt")
	} else if _, g, _ := p.CoulTableKey(); g != 0.31 {
		t.Errorf("GEwald reassigned: table for g=%v", g)
	}
	tab, _, _ = p.CoulTableKey()
	p.RCoul = 7
	if computeDimer(p); sameTable(p, tab) {
		t.Errorf("RCoul reassigned: table not rebuilt")
	} else if _, _, rc := p.CoulTableKey(); rc != 7 {
		t.Errorf("RCoul reassigned: table for rcoul=%v", rc)
	}

	p.Eps[0][0], p.Sigma[0][0] = 0.3, 3.0
	fresh := pair.NewCharmm([]float64{0.3}, []float64{3.0}, 6, 8, pair.Double)
	fresh.GEwald, fresh.RCoul = p.GEwald, p.RCoul
	if got, want := computeDimer(p), computeDimer(fresh); got != want {
		t.Errorf("Eps and Sigma rewritten in place: %+v, a style built with them gives %+v", got, want)
	}
	p.Prec, fresh.Prec = pair.Mixed, pair.Mixed
	if got, want := computeDimer(p), computeDimer(fresh); got != want {
		t.Errorf("Prec reassigned: %+v, a style built with it gives %+v", got, want)
	}

	// A hydrogen-like type 2 with ε = 0 has no LJ term; giving it an ε in
	// place between two Computes switches the term on for its pairs.
	const qqr2e = 332.06371
	for _, prec := range []pair.Precision{pair.Double, pair.Mixed} {
		ch := pair.NewCharmm([]float64{0.15, 0}, []float64{1.0, 1.1}, 2.0, 2.5, prec)
		cut := ch.Cutoff()
		st, _ := filterSystem(1.1, cut, 1.12*cut, 2)
		nl := neighbor.NewList(ch.ListMode(), cut, 0.12*cut)
		nl.SpecialWeight = func(atom.SpecialKind) (float64, bool) { return 0, true }
		nl.Build(st)
		ctx := &pair.Context{Store: st, List: nl, QQr2E: qqr2e}
		var before pair.Result
		for _, epsH := range []float64{0, 0.046} {
			setLJ(ch, 1, epsH, 1.1)
			id := fmt.Sprintf("%v ε_H=%v", prec, epsH)
			st.ZeroForces()
			got := ch.Compute(ctx)
			want, wantF := refTabulated(ch, st, nl, qqr2e)
			requireSameBits(t, id, got, want, st.Force, wantF)
			if epsH == 0 {
				before = got
			} else if got.Energy == before.Energy {
				t.Errorf("%s: energy %v unchanged from ε_H = 0: the hydrogen LJ term did not switch on", id, got.Energy)
			}
		}
	}
}

// sameTable reports whether p still holds the Coulomb table tab.
func sameTable(p *pair.CharmmCoulLong, tab any) bool {
	id, _, _ := p.CoulTableKey()
	return id == tab
}

// TestCharmmSkipsLJFreePairsExactly: the kernel skips the Lennard-Jones
// block for type pairs whose prefactors are all zero, and that changes no
// bit against refCharmm, which evaluates it for every pair — forces,
// energy and virial, in Double and Mixed, at one worker and at three. On
// the rhodopsin surrogate after ten steps (hydrogen has ε = 0, so 8 of 9
// pairs skip), and on a three-type lattice where type 1 carries LJ, type
// 2 has ε = 0 (no LJ with anyone) and type 3 has σ = 0 (no LJ with
// itself, LJ with type 1 through the mixed σ).
func TestCharmmSkipsLJFreePairsExactly(t *testing.T) {
	const qqr2e = 332.06371
	check := func(id string, ch *pair.CharmmCoulLong, st *atom.Store, nl *neighbor.List, ctx pair.Context) {
		t.Helper()
		want, wantF := refTabulated(ch, st, nl, ctx.QQr2E)
		for _, workers := range []int{1, 3} {
			pool := par.NewPool(workers)
			ctx.Pool = pool
			st.ZeroForces()
			got := ch.Compute(&ctx)
			pool.Close()
			requireSameBits(t, fmt.Sprintf("%s workers=%d", id, workers), got, want, st.Force, wantF)
		}
	}
	for _, prec := range []pair.Precision{pair.Double, pair.Mixed} {
		cfg, rst := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: 1500, Seed: 2022, Precision: prec})
		s := core.New(cfg, rst)
		s.Run(10)
		check("rhodo-1500 "+prec.String(), cfg.Pair.(*pair.CharmmCoulLong), s.Store, s.NL, *s.PairContext())
		s.Close()

		ch := pair.NewCharmm([]float64{0.15, 0, 0.3}, []float64{1.0, 1.1, 0}, 2.0, 2.5, prec)
		cut := ch.Cutoff()
		st, _ := filterSystem(1.1, cut, 1.12*cut, 3)
		nl := neighbor.NewList(ch.ListMode(), cut, 0.12*cut)
		nl.SpecialWeight = func(atom.SpecialKind) (float64, bool) { return 0, true }
		nl.Build(st)
		check("three types "+prec.String(), ch, st, nl, pair.Context{Store: st, List: nl, QQr2E: qqr2e})
	}
}
