package pair

import (
	"math"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/neighbor"
	"gomd/internal/vec"
)

// TestCoulTableMatchesExact holds the table to the accuracy its comment
// and DESIGN.md state, over the whole range and at the places an index
// or a cubic could go wrong: both ends of every bin, the cutoff and what
// float32 rounding makes of it, and the floor.
func TestCoulTableMatchesExact(t *testing.T) {
	for _, g := range []float64{0.2, 0.27316, 0.35} {
		for _, rc := range []float64{8, 10, 12} {
			tab := newCoulTable(g, rc)
			var worstE, worstF float64
			check := func(r2 float64) {
				c, d := tab.cell(r2)
				if c == nil {
					t.Fatalf("g=%v rc=%v: r²=%v is outside the table", g, rc, r2)
				}
				f, e := cubics(c, d)
				wantF, wantE := coulExact(g, r2)
				worstE = math.Max(worstE, math.Abs(e-wantE)*math.Sqrt(r2))
				worstF = math.Max(worstF, math.Abs(f-wantF)/wantF)
			}
			rc2 := rc * rc
			const sweep = 200000
			for i := 0; i <= sweep; i++ {
				check(coulTableFloor * math.Pow(rc2/coulTableFloor, float64(i)/sweep))
			}
			for i := range tab.bins {
				lo := math.Float64frombits(uint64(tab.base+i) << coulBinShift)
				hi := math.Float64frombits(uint64(tab.base+i+1) << coulBinShift)
				check(lo)
				check(math.Nextafter(hi, 0))
			}
			// The kernels test r² <= cutoff² in their own precision.
			check(rc2)
			check(math.Nextafter(rc2, math.Inf(1)))
			check(float64(math.Nextafter32(float32(rc2), float32(math.Inf(1)))))
			if worstE > 1e-11 || worstF > 1e-8 {
				t.Errorf("g=%v rc=%v: worst |ΔE|·r = %.2g (limit 1e-11), worst |ΔF|/F = %.2g (limit 1e-8)", g, rc, worstE, worstF)
			}
			t.Logf("g=%v rc=%v: %d bins, worst |ΔE|·r %.2g, worst |ΔF|/F %.2g", g, rc, len(tab.bins), worstE, worstF)

			below := math.Nextafter(coulTableFloor, 0)
			if c, _ := tab.cell(below); c != nil {
				t.Errorf("g=%v rc=%v: r² just below the floor has a bin", g, rc)
			}
			f, e := tab.lookup(below)
			if wantF, wantE := coulExact(g, below); f != wantF || e != wantE {
				t.Errorf("g=%v rc=%v: below the floor lookup gives (%v, %v), exact (%v, %v)", g, rc, f, e, wantF, wantE)
			}
		}
	}
	// A cutoff below the floor is an empty table, not a negative length.
	if tab := newCoulTable(0.3, 0.05); len(tab.bins) != 0 {
		t.Errorf("rc=0.05: %d bins, want none", len(tab.bins))
	}
}

// computeDimer runs the kernel over two opposite charges 3 apart.
func computeDimer(p *CharmmCoulLong) Result {
	st := atom.New(2)
	st.Add(atom.Atom{Tag: 1, Type: 1, Charge: 0.4})
	st.Add(atom.Atom{Tag: 2, Type: 1, Pos: vec.New(3, 0, 0), Charge: -0.4})
	nl := neighbor.NewList(p.ListMode(), p.Cutoff(), 0.5)
	nl.Build(st)
	return p.Compute(&Context{Store: st, List: nl, QQr2E: 332.06371})
}

// TestCharmmDerivedTablesFollowInputs: the Coulomb table is rebuilt when
// GEwald or RCoul is reassigned and at no other time, and the LJ
// prefactors follow Eps and Sigma rewritten in place, as a script's
// pair_coeff does between two runs.
func TestCharmmDerivedTablesFollowInputs(t *testing.T) {
	p := NewCharmm([]float64{0.15}, []float64{3.2}, 6, 8, Double)
	p.GEwald = 0.3
	first := computeDimer(p)
	tab := p.coul
	if tab == nil || tab.g != 0.3 || tab.rcoul != 8 {
		t.Fatalf("after the first Compute the table is %+v", tab)
	}
	if again := computeDimer(p); p.coul != tab || again != first {
		t.Errorf("unchanged inputs: table rebuilt (%v) or result moved: %+v then %+v", p.coul != tab, first, again)
	}
	p.GEwald = 0.31
	if computeDimer(p); p.coul == tab || p.coul.g != 0.31 {
		t.Errorf("GEwald reassigned: table still for g=%v", p.coul.g)
	}
	tab = p.coul
	p.RCoul = 7
	if computeDimer(p); p.coul == tab || p.coul.rcoul != 7 {
		t.Errorf("RCoul reassigned: table still for rcoul=%v", p.coul.rcoul)
	}

	p.Eps[0][0], p.Sigma[0][0] = 0.3, 3.0
	fresh := NewCharmm([]float64{0.3}, []float64{3.0}, 6, 8, Double)
	fresh.GEwald, fresh.RCoul = p.GEwald, p.RCoul
	if got, want := computeDimer(p), computeDimer(fresh); got != want {
		t.Errorf("Eps and Sigma rewritten in place: %+v, a style built with them gives %+v", got, want)
	}
	p.Prec, fresh.Prec = Mixed, Mixed
	if got, want := computeDimer(p), computeDimer(fresh); got != want {
		t.Errorf("Prec reassigned: %+v, a style built with it gives %+v", got, want)
	}
}
