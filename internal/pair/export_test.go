package pair

// CoulFactors returns F(r²) and E(r²) — fcoul = qq·F, ecoul = qq·E — as
// the kernel reads them: from the style's table, or from the exact
// expression outside it. For the external tests' single-pass references.
func (p *CharmmCoulLong) CoulFactors(r2 float64) (f, e float64) {
	return p.coulTab().lookup(r2)
}

// lookup is the kernel's three lines, not inlined.
func (t *coulTable) lookup(r2 float64) (f, e float64) {
	if c, d := t.cell(r2); c != nil {
		return cubics(c, d)
	}
	return coulExact(t.g, r2)
}

// CoulTableKey reports the Coulomb table the last Compute used — its
// identity and the (GEwald, RCoul) it was built for — or a nil id before
// the first Compute.
func (p *CharmmCoulLong) CoulTableKey() (id any, g, rcoul float64) {
	if p.coul == nil {
		return nil, 0, 0
	}
	return p.coul, p.coul.g, p.coul.rcoul
}
