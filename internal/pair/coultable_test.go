package pair

import (
	"math"
	"testing"
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
