package pair

import "math"

// coulTable replaces the erfc and exp of the real-space Ewald term by two
// table lookups, as LAMMPS does on the rhodopsin benchmark (pair_modify
// table 12). It tabulates, as functions of r² for one splitting
// parameter g,
//
//	F(r²) = [erfc(g r)/r + (2g/√π)·exp(-g² r²)] / r²
//	E(r²) = erfc(g r)/r
//
// so that fcoul = qq·F and ecoul = qq·E with no square root, and no
// division by r² either.
//
// Bins are addressed by the leading bits of the float64 r² — sign,
// exponent and the top 8 mantissa bits — which gives 256 log-spaced bins
// per octave for one shift and one subtraction; both functions are close
// to power laws, so a constant relative bin width fits them evenly. Each
// bin holds two cubics in d = r² - (the bin's lower edge, which is r²
// with its low 44 bits cleared): F's coefficients c0..c3 then E's, one
// 64-byte cache line. The cubics interpolate the exact expression at the
// bin's four Chebyshev nodes, which holds both to about 1e-11 of their
// value (TestCoulTableMatchesExact) — five decades tighter than table
// 12's linear bins, because bench/golden.json compares total energy to
// 1e-6 after ten steps and the trajectory goldens sit beside the exact
// kernel's bits at 1e-8.
//
// The table spans r² from coulTableFloor through the bin after the one
// holding RCoul², so the float32-rounded cutoff of the Mixed and Single
// kernels still lands inside it. Anything outside — atoms closer than
// 0.125 length units, never seen in a sane run — takes coulExact.
// ≈ 3.2k bins (206 KB) for a 10 Å cutoff, of which r from 6 to 10 Å,
// where most pairs are, touches 368 (23 KB).
type coulTable struct {
	g, rcoul float64 // what the table was built for: the rebuild key
	base     int     // Float64bits(coulTableFloor) >> coulBinShift
	bins     [][8]float64
}

const (
	coulBinShift   = 44
	coulTableFloor = 1.0 / 64
)

// coulExact evaluates F and E from their definitions: the table's source
// and its fallback.
func coulExact(g, r2 float64) (f, e float64) {
	r := math.Sqrt(r2)
	e = math.Erfc(g*r) / r
	f = (e + 2/math.Sqrt(math.Pi)*g*math.Exp(-g*g*r2)) / r2
	return f, e
}

// newCoulTable tabulates F and E for splitting parameter g out to rcoul.
func newCoulTable(g, rcoul float64) *coulTable {
	t := &coulTable{g: g, rcoul: rcoul, base: int(math.Float64bits(coulTableFloor) >> coulBinShift)}
	n := int(math.Float64bits(rcoul*rcoul)>>coulBinShift) - t.base + 2
	if n < 0 {
		n = 0 // a cutoff below the floor: every pair takes coulExact
	}
	t.bins = make([][8]float64, n)
	// Chebyshev nodes of [0, 1]: the bin in units of its width.
	var node [4]float64
	for k := range node {
		node[k] = 0.5 * (1 + math.Cos(float64(2*k+1)*math.Pi/8))
	}
	for i := range t.bins {
		lo := math.Float64frombits(uint64(t.base+i) << coulBinShift)
		width := math.Float64frombits(uint64(t.base+i+1)<<coulBinShift) - lo
		var f, e [4]float64
		for k, u := range node {
			f[k], e[k] = coulExact(g, lo+width*u)
		}
		cf, ce := cubicThrough(node, f), cubicThrough(node, e)
		// Stored for d in r² units: coefficient k carries width^-k.
		scale := 1.0
		for k := 0; k < 4; k++ {
			t.bins[i][k] = cf[k] * scale
			t.bins[i][4+k] = ce[k] * scale
			scale /= width
		}
	}
	return t
}

// cubicThrough returns c0..c3 of the cubic through the four points
// (x[k], y[k]): Newton's divided differences, expanded to monomials.
func cubicThrough(x, y [4]float64) [4]float64 {
	d := y
	for level := 1; level < 4; level++ {
		for k := 3; k >= level; k-- {
			d[k] = (d[k] - d[k-1]) / (x[k] - x[k-level])
		}
	}
	// d0 + (t-x0)(d1 + (t-x1)(d2 + (t-x2)·d3)), innermost factor first.
	c := [4]float64{d[3]}
	for k := 2; k >= 0; k-- {
		for j := 3; j > 0; j-- {
			c[j] = c[j-1] - x[k]*c[j]
		}
		c[0] = d[k] - x[k]*c[0]
	}
	return c
}

// cell returns the coefficients of the bin holding r² and r²'s offset
// from that bin's lower edge, or nil when r² is outside the table. The
// lookup is cell, then cubics or coulExact; it is split in two so that
// each half fits the inliner's budget and the pair kernel's inner loop
// makes no call.
func (t *coulTable) cell(r2 float64) (c *[8]float64, d float64) {
	b := math.Float64bits(r2)
	bin := int(b>>coulBinShift) - t.base
	if uint(bin) >= uint(len(t.bins)) {
		return nil, 0
	}
	return &t.bins[bin], r2 - math.Float64frombits(b&^(1<<coulBinShift-1))
}

// cubics evaluates F and E at offset d into the bin with coefficients c.
func cubics(c *[8]float64, d float64) (f, e float64) {
	return ((c[3]*d+c[2])*d+c[1])*d + c[0], ((c[7]*d+c[6])*d+c[5])*d + c[4]
}
