package pair_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/neighbor"
	"gomd/internal/pair"
	"gomd/internal/par"
	"gomd/internal/rng"
	"gomd/internal/vec"
	"gomd/internal/workload"
)

// noSync satisfies pair.GhostSync for ghost-free stores.
type noSync struct{}

func (noSync) ForwardScalar([]float64) {}

// dimer builds two atoms separated by r along x.
func dimer(r float64, q1, q2 float64) *atom.Store {
	st := atom.New(2)
	st.Add(atom.Atom{Tag: 1, Type: 1, Pos: vec.New(0, 0, 0), Charge: q1})
	st.Add(atom.Atom{Tag: 2, Type: 1, Pos: vec.New(r, 0, 0), Charge: q2})
	return st
}

// evalPair runs one compute over a freshly built list.
func evalPair(st *atom.Store, style pair.Style, qqr2e float64) pair.Result {
	nl := neighbor.NewList(style.ListMode(), style.Cutoff(), 0.5)
	nl.Build(st)
	st.ZeroForces()
	return style.Compute(&pair.Context{
		Store: st, List: nl, Sync: noSync{}, QQr2E: qqr2e, Dt: 0.005,
	})
}

func TestLJDimerAnalytic(t *testing.T) {
	p := pair.NewLJCut(1, 1, 2.5, pair.Double)
	for _, r := range []float64{0.95, 1.0, 1.122462, 1.5, 2.0} {
		st := dimer(r, 0, 0)
		res := evalPair(st, p, 1)
		s6 := math.Pow(1/r, 6)
		wantE := 4 * (s6*s6 - s6)
		wantF := 24 * (2*s6*s6 - s6) / r // magnitude along x on atom 1 (negative toward 2 when attractive)
		if math.Abs(res.Energy-wantE) > 1e-12*(1+math.Abs(wantE)) {
			t.Errorf("r=%v: energy %v want %v", r, res.Energy, wantE)
		}
		if got := st.Force[0].X; math.Abs(got-(-wantF)) > 1e-9*(1+math.Abs(wantF)) {
			t.Errorf("r=%v: force %v want %v", r, got, -wantF)
		}
		if st.Force[0].Add(st.Force[1]).Norm() > 1e-12 {
			t.Errorf("r=%v: momentum not conserved", r)
		}
	}
	// At the LJ minimum 2^(1/6), force vanishes.
	st := dimer(math.Pow(2, 1.0/6), 0, 0)
	evalPair(st, p, 1)
	if st.Force[0].Norm() > 1e-9 {
		t.Errorf("force at minimum: %v", st.Force[0])
	}
}

// numericForce checks style forces against -dE/dx by central difference.
func numericForce(t *testing.T, style pair.Style, st *atom.Store, qqr2e, tol float64) {
	t.Helper()
	res := evalPair(st, style, qqr2e)
	_ = res
	forces := make([]vec.V3, st.N)
	copy(forces, st.Force[:st.N])
	h := 1e-6
	for i := 0; i < st.N; i++ {
		for d := 0; d < 3; d++ {
			orig := st.Pos[i]
			st.Pos[i] = orig.WithComponent(d, orig.Component(d)+h)
			ep := evalPair(st, style, qqr2e).Energy
			st.Pos[i] = orig.WithComponent(d, orig.Component(d)-h)
			em := evalPair(st, style, qqr2e).Energy
			st.Pos[i] = orig
			want := -(ep - em) / (2 * h)
			got := forces[i].Component(d)
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("atom %d dim %d: force %v vs -dE/dx %v", i, d, got, want)
			}
		}
	}
}

func TestLJForceIsEnergyGradient(t *testing.T) {
	st := atom.New(5)
	r := rng.New(4)
	for i := 0; i < 5; i++ {
		st.Add(atom.Atom{Tag: int64(i + 1), Type: 1,
			Pos: vec.New(r.Range(0, 3), r.Range(0, 3), r.Range(0, 3))})
	}
	numericForce(t, pair.NewLJCut(1, 1, 2.5, pair.Double), st, 1, 1e-5)
}

func TestEAMForceIsEnergyGradient(t *testing.T) {
	st := atom.New(6)
	r := rng.New(9)
	for i := 0; i < 6; i++ {
		st.Add(atom.Atom{Tag: int64(i + 1), Type: 1,
			Pos: vec.New(r.Range(0, 5), r.Range(0, 5), r.Range(0, 5)).Add(vec.Splat(1))})
	}
	numericForce(t, pair.NewEAMCopper(pair.Double), st, 1, 1e-4)
}

func TestCharmmForceIsEnergyGradient(t *testing.T) {
	st := atom.New(4)
	r := rng.New(14)
	for i := 0; i < 4; i++ {
		q := 0.4
		if i%2 == 1 {
			q = -0.4
		}
		st.Add(atom.Atom{Tag: int64(i + 1), Type: 1,
			Pos:    vec.New(r.Range(0, 8), r.Range(0, 8), r.Range(0, 8)),
			Charge: q})
	}
	ch := pair.NewCharmm([]float64{0.15}, []float64{3.2}, 6, 8, pair.Double)
	ch.GEwald = 0.3
	numericForce(t, ch, st, 332.06371, 1e-4)
}

// TestCharmmSwitchingContinuous: the switched LJ energy must be
// continuous at the inner cutoff and vanish at the outer one.
func TestCharmmSwitchingContinuous(t *testing.T) {
	ch := pair.NewCharmm([]float64{0.2}, []float64{3.0}, 6, 8, pair.Double)
	ch.GEwald = 0.3
	eAt := func(r float64) float64 {
		return evalPair(dimer(r, 0, 0), ch, 332.06371).Energy
	}
	below := eAt(6 - 1e-9)
	above := eAt(6 + 1e-9)
	if math.Abs(below-above) > 1e-6*(1+math.Abs(below)) {
		t.Errorf("switch discontinuity at inner cutoff: %v vs %v", below, above)
	}
	if e := eAt(7.9999); math.Abs(e) > 1e-6 {
		t.Errorf("LJ energy not switched to zero at outer cutoff: %v", e)
	}
}

// TestCharmmSpecialExcluded: a 1-2 pair keeps only the k-space
// compensation (negative erf term), with the LJ part removed.
func TestCharmmSpecialExcluded(t *testing.T) {
	ch := pair.NewCharmm([]float64{0.2}, []float64{3.0}, 6, 8, pair.Double)
	ch.GEwald = 0.3
	st := dimer(1.0, 0.4, -0.4)
	st.Special[0] = []atom.SpecialRef{{Tag: 2, Kind: atom.Special12}}
	st.Special[1] = []atom.SpecialRef{{Tag: 1, Kind: atom.Special12}}

	nl := neighbor.NewList(neighbor.Half, ch.Cutoff(), 0.5)
	nl.SpecialWeight = func(atom.SpecialKind) (float64, bool) { return 0, true }
	nl.Build(st)
	st.ZeroForces()
	res := ch.Compute(&pair.Context{Store: st, List: nl, Sync: noSync{}, QQr2E: 332.06371})

	qq := 332.06371 * 0.4 * -0.4
	want := -qq * math.Erf(0.3*1.0) / 1.0
	if math.Abs(res.Energy-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("special pair energy %v want %v (pure -erf compensation)", res.Energy, want)
	}
}

// TestGranularContact: overlapping grains repel along the contact
// normal; separated grains do not interact; history appears and clears.
func TestGranularContact(t *testing.T) {
	g := pair.NewGranChute()
	st := dimer(0.9, 0, 0) // overlap 0.1
	evalPair(st, g, 1)
	if st.Force[0].X >= 0 || st.Force[1].X <= 0 {
		t.Errorf("overlapping grains must repel: %v %v", st.Force[0], st.Force[1])
	}
	if g.Contacts() != 2 { // full list: both perspectives
		t.Errorf("contact history entries: %d", g.Contacts())
	}

	// Tangential history: give atom 2 a transverse velocity, step twice;
	// the friction force on atom 1 must oppose the relative slip (+y of
	// atom 2 means atom 1 sees slip -y, so f_t on 1 is +y... from 1's
	// frame the relative velocity v1-v2 = -y, friction opposes it: +y).
	st.Vel[1] = vec.New(0, 1, 0)
	evalPair(st, g, 1)
	evalPair(st, g, 1)
	if st.Force[0].Y <= 0 {
		t.Errorf("tangential friction direction: %v", st.Force[0])
	}

	// Separate: contact history must clear.
	st.Pos[1] = vec.New(1.5, 0, 0)
	nl := neighbor.NewList(neighbor.Full, g.Cutoff(), 0.6)
	nl.Build(st)
	st.ZeroForces()
	g.Compute(&pair.Context{Store: st, List: nl, Sync: noSync{}, Dt: 0.005})
	if g.Contacts() != 0 {
		t.Errorf("history not cleared after separation: %d", g.Contacts())
	}
}

// TestGranularHistoryMigration: extract/inject round-trips contact state.
func TestGranularHistoryMigration(t *testing.T) {
	g := pair.NewGranChute()
	st := dimer(0.9, 0, 0)
	st.Vel[1] = vec.New(0, 1, 0)
	evalPair(st, g, 1)
	h := g.ExtractHistory(1)
	if len(h) != 1 {
		t.Fatalf("extracted %d entries", len(h))
	}
	if g.Contacts() != 1 {
		t.Fatalf("extract did not remove entries: %d", g.Contacts())
	}
	g.InjectHistory(1, h)
	if g.Contacts() != 2 {
		t.Fatalf("inject did not restore entries: %d", g.Contacts())
	}
}

// TestPrecisionPathsAgree: float32 and float64 kernels agree to single
// precision.
func TestPrecisionPathsAgree(t *testing.T) {
	r := rng.New(77)
	st64 := atom.New(40)
	st32 := atom.New(40)
	for i := 0; i < 40; i++ {
		a := atom.Atom{Tag: int64(i + 1), Type: 1,
			Pos: vec.New(r.Range(0, 6), r.Range(0, 6), r.Range(0, 6))}
		st64.Add(a)
		st32.Add(a)
	}
	eD := evalPair(st64, pair.NewLJCut(1, 1, 2.5, pair.Double), 1).Energy
	eS := evalPair(st32, pair.NewLJCut(1, 1, 2.5, pair.Single), 1).Energy
	if rel := math.Abs(eD-eS) / (1 + math.Abs(eD)); rel > 1e-4 {
		t.Errorf("precision paths diverge: %v vs %v (rel %v)", eD, eS, rel)
	}
	var worst float64
	for i := 0; i < 40; i++ {
		d := st64.Force[i].Sub(st32.Force[i]).Norm() / (1 + st64.Force[i].Norm())
		if d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Errorf("force precision divergence: %v", worst)
	}
}

func TestMixingArithmetic(t *testing.T) {
	p := pair.NewLJCutMixed([]float64{1, 4}, []float64{1, 2}, 5, pair.Double)
	if got := p.Eps[0][1]; math.Abs(got-2) > 1e-12 {
		t.Errorf("eps mixing: %v", got)
	}
	if got := p.Sigma[0][1]; math.Abs(got-1.5) > 1e-12 {
		t.Errorf("sigma mixing: %v", got)
	}
	if p.Eps[0][1] != p.Eps[1][0] || p.Sigma[0][1] != p.Sigma[1][0] {
		t.Error("mixing not symmetric")
	}
}

// --- micro-benchmarks -----------------------------------------------------

func benchStore(n int, l float64) *atom.Store {
	st := atom.New(n)
	r := rng.New(1)
	for i := 0; i < n; i++ {
		st.Add(atom.Atom{Tag: int64(i + 1), Type: 1,
			Pos:    vec.New(r.Range(0, l), r.Range(0, l), r.Range(0, l)),
			Charge: 0.2})
	}
	return st
}

func benchPair(b *testing.B, style pair.Style) {
	st := benchStore(4000, 16.8) // LJ-melt density
	nl := neighbor.NewList(style.ListMode(), style.Cutoff(), 0.3)
	nl.Build(st)
	ctx := &pair.Context{Store: st, List: nl, Sync: noSync{}, QQr2E: 1, Dt: 0.005}
	b.ResetTimer()
	var pairs int64
	for i := 0; i < b.N; i++ {
		st.ZeroForces()
		pairs += style.Compute(ctx).Pairs
	}
	b.ReportMetric(float64(pairs)/float64(b.Elapsed().Nanoseconds()), "pairs/ns")
}

func BenchmarkPairLJDouble(b *testing.B) { benchPair(b, pair.NewLJCut(1, 1, 2.5, pair.Double)) }
func BenchmarkPairLJSingle(b *testing.B) { benchPair(b, pair.NewLJCut(1, 1, 2.5, pair.Single)) }
func BenchmarkPairEAM(b *testing.B)      { benchPair(b, pair.NewEAMCopper(pair.Double)) }
func BenchmarkPairCharmm(b *testing.B) {
	ch := pair.NewCharmm([]float64{0.15}, []float64{1.0}, 2.0, 2.5, pair.Double)
	ch.GEwald = 0.3
	benchPair(b, ch)
}
func BenchmarkPairGranular(b *testing.B) { benchPair(b, pair.NewGranChute()) }

func TestMorseDimer(t *testing.T) {
	m := &pair.Morse{D0: 1.5, Alpha: 2.0, R0: 1.1, RCut: 4, Prec: pair.Double}
	// At r0: E = -D0, F = 0.
	st := dimer(1.1, 0, 0)
	res := evalPair(st, m, 1)
	if math.Abs(res.Energy+1.5) > 1e-12 {
		t.Errorf("well depth %v want -1.5", res.Energy)
	}
	if st.Force[0].Norm() > 1e-9 {
		t.Errorf("force at minimum %v", st.Force[0])
	}
	// Gradient check off-minimum.
	stG := atom.New(4)
	r := rng.New(3)
	for i := 0; i < 4; i++ {
		stG.Add(atom.Atom{Tag: int64(i + 1), Type: 1,
			Pos: vec.New(r.Range(0, 4), r.Range(0, 4), r.Range(0, 4))})
	}
	numericForce(t, m, stG, 1, 1e-5)
}

// TestLJShiftFlag: energy-shifted LJ vanishes at the cutoff; unshifted
// retains the cutoff discontinuity.
func TestLJShiftFlag(t *testing.T) {
	shifted := pair.NewLJCut(1, 1, 2.5, pair.Double)
	shifted.Shift = true
	eAtCut := evalPair(dimer(2.4999, 0, 0), shifted, 1).Energy
	if math.Abs(eAtCut) > 1e-3 {
		t.Errorf("shifted energy near cutoff %v", eAtCut)
	}
	plain := pair.NewLJCut(1, 1, 2.5, pair.Double)
	r := 2.4999
	ePlain := evalPair(dimer(r, 0, 0), plain, 1).Energy
	s6 := math.Pow(1/r, 6)
	want := 4 * (s6*s6 - s6)
	if math.Abs(ePlain-want) > 1e-9 {
		t.Errorf("unshifted energy %v want %v", ePlain, want)
	}
}

// TestPrecisionStrings covers the Stringer.
func TestPrecisionStrings(t *testing.T) {
	if pair.Mixed.String() != "mixed" || pair.Double.String() != "double" || pair.Single.String() != "single" {
		t.Error("precision names")
	}
}

// --- filter + compute against the single-pass loop --------------------------
//
// Every cutoff-filtered kernel runs each row in two passes: a filter that
// compacts the entries within the cutoff, then the style's arithmetic
// over the survivors. The references below are the loops they replace —
// one pass over the row with a branch on the distance — written out per
// style with the same expressions, so forces, energy, virial and pair
// count must agree with the kernels to the last bit.

type real interface{ ~float32 | ~float64 }

// inCutoff calls fn, in list order, for the entries of row i whose
// separation in T arithmetic is within cut2.
func inCutoff[T real](st *atom.Store, nl *neighbor.List, i int, cut2 T,
	fn func(j int, kind atom.SpecialKind, dx, dy, dz, r2 T)) {
	pi := st.Pos[i]
	xi, yi, zi := T(pi.X), T(pi.Y), T(pi.Z)
	for _, entry := range nl.Row(i) {
		j, kind := neighbor.Decode(entry)
		pj := st.Pos[j]
		dx := xi - T(pj.X)
		dy := yi - T(pj.Y)
		dz := zi - T(pj.Z)
		r2 := dx*dx + dy*dy + dz*dz
		if r2 > cut2 {
			continue
		}
		fn(j, kind, dx, dy, dz, r2)
	}
}

// halfWeight is the energy/virial weight of a pair with partner j.
func halfWeight(j, owned int) float64 {
	if j < owned {
		return 1
	}
	return 0.5
}

// rowAcc accumulates one row the way the kernels do: the row's own force
// and its energy/virial partials fold in at row end, the partner's
// reaction force as each pair is met.
type rowAcc struct {
	force      []vec.V3
	res        pair.Result
	fx, fy, fz float64
	eRow, vRow float64
}

func (a *rowAcc) pair(j, owned int, px, py, pz, e, v float64) {
	a.fx += px
	a.fy += py
	a.fz += pz
	if j < owned {
		a.force[j] = a.force[j].Sub(vec.New(px, py, pz))
	}
	w := halfWeight(j, owned)
	a.eRow += w * e
	a.vRow += w * v
	a.res.Pairs++
}

func (a *rowAcc) endRow(i int) {
	a.force[i] = a.force[i].Add(vec.New(a.fx, a.fy, a.fz))
	a.res.Energy += a.eRow
	a.res.Virial += a.vRow
	a.fx, a.fy, a.fz, a.eRow, a.vRow = 0, 0, 0, 0, 0
}

func refLJ[T real](p *pair.LJCut, st *atom.Store, nl *neighbor.List) (pair.Result, []vec.V3) {
	nt := len(p.Eps)
	lj1, lj2, lj3, lj4, shift := make([]T, nt*nt), make([]T, nt*nt), make([]T, nt*nt), make([]T, nt*nt), make([]T, nt*nt)
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
	acc := rowAcc{force: make([]vec.V3, st.Total())}
	for i := 0; i < st.N; i++ {
		ti := int(st.Type[i]) - 1
		inCutoff(st, nl, i, T(p.RCut*p.RCut), func(j int, _ atom.SpecialKind, dx, dy, dz, r2 T) {
			k := ti*nt + int(st.Type[j]) - 1
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			fpair := inv6 * (lj1[k]*inv6 - lj2[k]) * inv2
			acc.pair(j, st.N, float64(fpair*dx), float64(fpair*dy), float64(fpair*dz),
				float64(inv6*(lj3[k]*inv6-lj4[k])-shift[k]), float64(fpair*r2))
		})
		acc.endRow(i)
	}
	return acc.res, acc.force
}

// refCharmm is lj/charmm/coul/long in one pass with the real-space
// Coulomb term written out — erfc, exp and all: the oracle the tabulated
// kernel is held to (TestCharmmTableVsExact). With coul non-nil the two
// Coulomb factors F(r²) and E(r²) are read from it instead, which is how
// TestFilterComputeMatchesSinglePass feeds the reference the style's own
// table and goes on comparing bits.
func refCharmm[T real](p *pair.CharmmCoulLong, st *atom.Store, nl *neighbor.List, qqr2e float64,
	coul func(r2 float64) (f, e float64)) (pair.Result, []vec.V3) {
	nt := len(p.Eps)
	lj1, lj2, lj3, lj4 := make([]T, nt*nt), make([]T, nt*nt), make([]T, nt*nt), make([]T, nt*nt)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			e, s := p.Eps[i][j], p.Sigma[i][j]
			s6 := math.Pow(s, 6)
			s12 := s6 * s6
			lj1[i*nt+j] = T(48 * e * s12)
			lj2[i*nt+j] = T(24 * e * s6)
			lj3[i*nt+j] = T(4 * e * s12)
			lj4[i*nt+j] = T(4 * e * s6)
		}
	}
	in2 := p.RInner * p.RInner
	out2 := p.ROuter * p.ROuter
	denom := math.Pow(out2-in2, 3)
	cutLJ2 := T(out2)
	cutCoul2 := T(p.RCoul * p.RCoul)
	g := p.GEwald
	twoSqrtPi := 2.0 / math.Sqrt(math.Pi)

	acc := rowAcc{force: make([]vec.V3, st.Total())}
	for i := 0; i < st.N; i++ {
		ti := int(st.Type[i]) - 1
		qi := st.Charge[i]
		inCutoff(st, nl, i, max(cutLJ2, cutCoul2), func(j int, kind atom.SpecialKind, dx, dy, dz, r2 T) {
			var fpair, epair float64
			r2f := float64(r2)
			inv2 := 1 / r2f
			if kind == 0 && r2 <= cutLJ2 {
				k := ti*nt + int(st.Type[j]) - 1
				inv6 := inv2 * inv2 * inv2
				flj := inv6 * (float64(lj1[k])*inv6 - float64(lj2[k])) * inv2
				elj := inv6 * (float64(lj3[k])*inv6 - float64(lj4[k]))
				if r2f > in2 {
					t1 := out2 - r2f
					t2 := t1 * t1
					sw := t2 * (out2 + 2*r2f - 3*in2) / denom
					dsw := 12 * t1 * (in2 - r2f) / denom
					flj = flj*sw - elj*dsw
					elj *= sw
				}
				fpair += flj
				epair += elj
			}
			if qj := st.Charge[j]; r2 <= cutCoul2 && (qi != 0 || qj != 0) {
				r := math.Sqrt(r2f)
				qq := qqr2e * qi * qj
				pre := qq / r
				var fcoul, ecoul float64
				if coul != nil {
					f, e := coul(r2f)
					fcoul, ecoul = qq*f, qq*e
				} else {
					ecoul = pre * math.Erfc(g*r)
					fcoul = (ecoul + qq*twoSqrtPi*g*math.Exp(-g*g*r2f)) * inv2
				}
				if kind != 0 {
					fcoul -= pre * inv2
					ecoul -= pre
				}
				fpair += fcoul
				epair += ecoul
			}
			acc.pair(j, st.N, fpair*float64(dx), fpair*float64(dy), fpair*float64(dz), epair, fpair*float64(r2))
		})
		acc.endRow(i)
	}
	return acc.res, acc.force
}

func refPow[T real](q T, k int) T {
	r := T(1)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			r *= q
		}
		q *= q
	}
	return r
}

func refEAM[T real](p *pair.EAM, st *atom.Store, nl *neighbor.List, sync pair.GhostSync) (pair.Result, []vec.V3) {
	rho := make([]float64, st.Total())
	fp := make([]float64, st.Total())
	cut2 := T(p.RCut * p.RCut)
	a2 := T(p.A * p.A)
	var pairs int64
	for i := 0; i < st.N; i++ {
		var own float64
		inCutoff(st, nl, i, cut2, func(j int, _ atom.SpecialKind, _, _, _, r2 T) {
			d := refPow(a2/r2, p.MExp/2)
			own += float64(d)
			if j < st.N {
				rho[j] += float64(d)
			}
			pairs++
		})
		rho[i] += own
	}
	sync.ForwardScalar(rho)
	var embed float64
	for i := 0; i < st.N; i++ {
		if rho[i] <= 0 {
			continue
		}
		sq := math.Sqrt(rho[i])
		embed += -p.EpsSC * p.C * sq
		fp[i] = -p.EpsSC * p.C * 0.5 / sq
	}
	sync.ForwardScalar(fp)

	acc := rowAcc{force: make([]vec.V3, st.Total())}
	acc.res.Energy = embed
	acc.res.Pairs = pairs
	for i := 0; i < st.N; i++ {
		inCutoff(st, nl, i, cut2, func(j int, _ atom.SpecialKind, dx, dy, dz, r2 T) {
			q := a2 / r2
			r2f := float64(r2)
			vn := float64(refPow(q, p.NExp/2))
			if p.NExp%2 == 1 {
				vn *= math.Sqrt(float64(q))
			}
			vm := float64(refPow(q, p.MExp/2))
			dphi := -p.EpsSC * float64(p.NExp) * vn / r2f
			drho := -float64(p.MExp) * vm / r2f
			fpair := -(dphi + (fp[i]+fp[j])*drho)
			acc.pair(j, st.N, fpair*float64(dx), fpair*float64(dy), fpair*float64(dz), p.EpsSC*vn, fpair*r2f)
		})
		acc.endRow(i)
	}
	return acc.res, acc.force
}

func refMorse[T real](p *pair.Morse, st *atom.Store, nl *neighbor.List) (pair.Result, []vec.V3) {
	force := make([]vec.V3, st.Total())
	var res pair.Result
	for i := 0; i < st.N; i++ {
		var fx, fy, fz float64
		inCutoff(st, nl, i, T(p.RCut*p.RCut), func(j int, _ atom.SpecialKind, dx, dy, dz, r2 T) {
			r := math.Sqrt(float64(r2))
			ex := math.Exp(-p.Alpha * (r - p.R0))
			e := p.D0 * (ex*ex - 2*ex)
			fpair := 2 * p.D0 * p.Alpha * (ex*ex - ex) / r
			fx += fpair * float64(dx)
			fy += fpair * float64(dy)
			fz += fpair * float64(dz)
			if j < st.N {
				force[j] = force[j].Sub(vec.New(fpair*float64(dx), fpair*float64(dy), fpair*float64(dz)))
			}
			w := halfWeight(j, st.N)
			res.Energy += w * e
			res.Virial += w * fpair * float64(r2)
			res.Pairs++
		})
		force[i] = force[i].Add(vec.New(fx, fy, fz))
	}
	return res, force
}

// ownerSync copies per-atom values from owners to their ghost images.
type ownerSync struct {
	st    *atom.Store
	owner map[int64]int
}

func (s ownerSync) ForwardScalar(buf []float64) {
	for g := s.st.N; g < s.st.Total(); g++ {
		buf[g] = buf[s.owner[s.st.Tag[g]]]
	}
}

// filterSystem is a jittered 6x6x6 lattice of spacing a with its
// periodic images out to reach, ntypes types, charges of both signs and
// zero, and lattice neighbours bonded as special pairs — preceded by
// atom 0, far from the rest, whose one partner (the last owned atom)
// sits between cut and reach: a row that is all skin.
func filterSystem(a, cut, reach float64, ntypes int) (*atom.Store, ownerSync) {
	const n = 6
	st := atom.New(n*n*n + 2)
	r := rng.New(31)
	far := vec.Splat(-20 * a)
	st.Add(atom.Atom{Tag: 1, Type: 1, Pos: far, Charge: 0.4})
	for i := 0; i < n*n*n; i++ {
		jit := vec.New(r.Range(-0.15, 0.15), r.Range(-0.15, 0.15), r.Range(-0.15, 0.15))
		tag := int64(i + 2)
		at := atom.Atom{
			Tag: tag, Type: int32(1 + i%ntypes), Charge: []float64{0.4, -0.4, 0}[i%3],
			Pos: vec.New(float64(i%n), float64(i/n%n), float64(i/(n*n))).Add(jit).Scale(a),
		}
		if i%n != 0 {
			at.Special = append(at.Special, atom.SpecialRef{Tag: tag - 1, Kind: atom.SpecialKind(1 + i%3)})
		}
		if i%n != n-1 {
			at.Special = append(at.Special, atom.SpecialRef{Tag: tag + 1, Kind: atom.SpecialKind(1 + (i+1)%3)})
		}
		st.Add(at)
	}
	st.Add(atom.Atom{Tag: n*n*n + 2, Type: int32(ntypes), Charge: -0.4, Pos: far.Add(vec.New((cut+reach)/2, 0, 0))})

	sync := ownerSync{st: st, owner: map[int64]int{}}
	l := n * a
	for i := 1; i <= n*n*n; i++ {
		sync.owner[st.Tag[i]] = i
		for s := 0; s < 27; s++ {
			shift := vec.New(float64(s%3-1), float64(s/3%3-1), float64(s/9-1)).Scale(l)
			g := st.Pos[i].Add(shift)
			if shift == (vec.V3{}) || g.X < -reach || g.X > l+reach || g.Y < -reach || g.Y > l+reach ||
				g.Z < -reach || g.Z > l+reach {
				continue
			}
			st.AddGhost(atom.Ghost{Tag: st.Tag[i], Type: st.Type[i], Pos: g, Charge: st.Charge[i]})
		}
	}
	return st, sync
}

func TestFilterComputeMatchesSinglePass(t *testing.T) {
	const qqr2e = 332.06371
	type reference func(*atom.Store, *neighbor.List, pair.GhostSync) (pair.Result, []vec.V3)
	lj := func(p *pair.LJCut, shift bool, prec pair.Precision) (pair.Style, reference) {
		p.Shift, p.Prec = shift, prec
		return p, func(st *atom.Store, nl *neighbor.List, _ pair.GhostSync) (pair.Result, []vec.V3) {
			if prec == pair.Double {
				return refLJ[float64](p, st, nl)
			}
			return refLJ[float32](p, st, nl)
		}
	}
	type testCase struct {
		name    string
		spacing float64
		ntypes  int
		style   pair.Style
		ref     reference
	}
	var cases []testCase
	for _, prec := range []pair.Precision{pair.Double, pair.Single} {
		for _, shift := range []bool{false, true} {
			id := fmt.Sprintf(" %v shift=%v", prec, shift)
			s, ref := lj(pair.NewLJCut(1, 1, 2.5, prec), shift, prec)
			cases = append(cases, testCase{"lj" + id, 1.1, 1, s, ref})
			s, ref = lj(pair.NewLJCutMixed([]float64{1, 0.6}, []float64{1, 1.2}, 2.5, prec), shift, prec)
			cases = append(cases, testCase{"lj mixed" + id, 1.1, 2, s, ref})
		}
		ch := pair.NewCharmm([]float64{0.15, 0.3}, []float64{1.0, 1.1}, 2.0, 2.5, prec)
		cases = append(cases, testCase{"charmm " + prec.String(), 1.1, 2, ch,
			func(st *atom.Store, nl *neighbor.List, _ pair.GhostSync) (pair.Result, []vec.V3) {
				if prec == pair.Double {
					return refCharmm[float64](ch, st, nl, qqr2e, ch.CoulFactors)
				}
				return refCharmm[float32](ch, st, nl, qqr2e, ch.CoulFactors)
			}})
		eam := pair.NewEAMCopper(prec)
		cases = append(cases, testCase{"eam " + prec.String(), 2.55, 1, eam,
			func(st *atom.Store, nl *neighbor.List, sync pair.GhostSync) (pair.Result, []vec.V3) {
				if prec == pair.Double {
					return refEAM[float64](eam, st, nl, sync)
				}
				return refEAM[float32](eam, st, nl, sync)
			}})
		morse := &pair.Morse{D0: 1.5, Alpha: 2.0, R0: 1.1, RCut: 2.5, Prec: prec}
		cases = append(cases, testCase{"morse " + prec.String(), 1.1, 1, morse,
			func(st *atom.Store, nl *neighbor.List, _ pair.GhostSync) (pair.Result, []vec.V3) {
				if prec == pair.Double {
					return refMorse[float64](morse, st, nl)
				}
				return refMorse[float32](morse, st, nl)
			}})
	}

	for _, tc := range cases {
		cut := tc.style.Cutoff()
		skin := 0.12 * cut
		st, sync := filterSystem(tc.spacing, cut, cut+skin, tc.ntypes)
		nl := neighbor.NewList(tc.style.ListMode(), cut, skin)
		if _, isCharmm := tc.style.(*pair.CharmmCoulLong); isCharmm {
			// As in core: only coul/long keeps special pairs, tagged.
			nl.SpecialWeight = func(atom.SpecialKind) (float64, bool) { return 0, true }
		}
		nl.Build(st)
		// Row 0 is one entry, in the skin; the filter's scratch starts
		// at twice that, so row 1 outgrows it.
		if row := nl.Row(0); len(row) != 1 || st.Pos[0].Sub(st.Pos[row[0]]).Norm() <= cut {
			t.Fatalf("%s: row 0 is %v, want one entry beyond the cutoff", tc.name, row)
		}
		if len(nl.Row(1)) <= 2 {
			t.Fatalf("%s: row 1 has %d entries, want more than the scratch's first size", tc.name, len(nl.Row(1)))
		}
		want, wantF := tc.ref(st, nl, sync)
		if want.Pairs == 0 || want.Pairs == int64(len(nl.RowPtr())-1) {
			t.Fatalf("%s: reference evaluated %d pairs", tc.name, want.Pairs)
		}
		for _, workers := range []int{1, 3} {
			pool := par.NewPool(workers)
			st.ZeroForces()
			got := tc.style.Compute(&pair.Context{Store: st, List: nl, Sync: sync, QQr2E: qqr2e, Dt: 0.005, Pool: pool})
			pool.Close()
			if got.Pairs != want.Pairs ||
				math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
				math.Float64bits(got.Virial) != math.Float64bits(want.Virial) {
				t.Errorf("%s workers=%d: result %+v, single-pass reference %+v", tc.name, workers, got, want)
			}
			for i, f := range wantF {
				g := st.Force[i]
				if math.Float64bits(g.X) != math.Float64bits(f.X) || math.Float64bits(g.Y) != math.Float64bits(f.Y) ||
					math.Float64bits(g.Z) != math.Float64bits(f.Z) {
					t.Fatalf("%s workers=%d: force on atom %d is %v, single-pass reference %v", tc.name, workers, i, g, f)
				}
			}
		}
	}
}

// TestCharmmTableVsExact states the accuracy of the tabulated kernel: on
// the filter lattice (special pairs included) and on the benchmark's own
// system after ten steps, against the exact single-pass reference —
// energy to 1e-10 relative, virial to 1e-8, every atom's force to 1e-8 of
// the rms force, and the same pairs evaluated.
func TestCharmmTableVsExact(t *testing.T) {
	const qqr2e = 332.06371
	compare := func(name string, ch *pair.CharmmCoulLong, st *atom.Store, nl *neighbor.List, ctx pair.Context) {
		t.Helper()
		var want pair.Result
		var wantF []vec.V3
		if ch.Prec == pair.Double {
			want, wantF = refCharmm[float64](ch, st, nl, ctx.QQr2E, nil)
		} else {
			want, wantF = refCharmm[float32](ch, st, nl, ctx.QQr2E, nil)
		}
		var rms float64
		for _, f := range wantF[:st.N] {
			rms += f.Dot(f)
		}
		rms = math.Sqrt(rms / float64(st.N))
		for _, workers := range []int{1, 3} {
			pool := par.NewPool(workers)
			ctx.Pool = pool
			st.ZeroForces()
			got := ch.Compute(&ctx)
			pool.Close()
			var worst float64
			for i, f := range wantF[:st.N] {
				worst = math.Max(worst, st.Force[i].Sub(f).Norm())
			}
			relE := math.Abs(got.Energy-want.Energy) / math.Abs(want.Energy)
			relV := math.Abs(got.Virial-want.Virial) / math.Abs(want.Virial)
			t.Logf("%s workers=%d: %d pairs, energy off by %.2g, virial %.2g, worst |ΔF| %.2g of rms |F| %.3g",
				name, workers, got.Pairs, relE, relV, worst, rms)
			if got.Pairs != want.Pairs || relE > 1e-10 || relV > 1e-8 || worst > 1e-8*rms {
				t.Errorf("%s workers=%d: table kernel %+v, exact reference %+v, worst |ΔF| %g (rms |F| %g)",
					name, workers, got, want, worst, rms)
			}
		}
	}
	for _, prec := range []pair.Precision{pair.Double, pair.Mixed} {
		ch := pair.NewCharmm([]float64{0.15, 0.3}, []float64{1.0, 1.1}, 2.0, 2.5, prec)
		cut := ch.Cutoff()
		st, sync := filterSystem(1.1, cut, 1.12*cut, 2)
		nl := neighbor.NewList(ch.ListMode(), cut, 0.12*cut)
		nl.SpecialWeight = func(atom.SpecialKind) (float64, bool) { return 0, true }
		nl.Build(st)
		compare("lattice "+prec.String(), ch, st, nl, pair.Context{Store: st, List: nl, Sync: sync, QQr2E: qqr2e})

		cfg, rst := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: 1500, Seed: 2022, Precision: prec})
		s := core.New(cfg, rst)
		s.Run(10)
		compare("rhodo-1500 "+prec.String(), cfg.Pair.(*pair.CharmmCoulLong), s.Store, s.NL, *s.PairContext())
		s.Close()
	}
}

// TestParsePrecision: every precision parses back from its String, and
// an unknown name is an error that lists the valid ones.
func TestParsePrecision(t *testing.T) {
	for _, p := range []pair.Precision{pair.Single, pair.Mixed, pair.Double} {
		if got, err := pair.ParsePrecision(p.String()); err != nil || got != p {
			t.Errorf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := pair.ParsePrecision("quad"); err == nil || err.Error() != `unknown precision "quad" (want single, mixed, double)` {
		t.Errorf("ParsePrecision(quad): %v", err)
	}
}

// shuffledLattice is a jittered n³ sc lattice of spacing a with ntypes
// types, charges of both signs and zero, and each atom bonded to its
// lattice successor as a special pair, indexed in random order: with no
// index locality, nearly every target past a row pass's first chunk is a
// boundary target (neighbor.Boundary). Open boundaries, no ghosts.
func shuffledLattice(n int, a float64, ntypes int, seed uint64) *atom.Store {
	r := rng.New(seed)
	order := make([]int, n*n*n)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	st := atom.New(len(order))
	for _, c := range order {
		jit := vec.New(r.Range(-0.15, 0.15), r.Range(-0.15, 0.15), r.Range(-0.15, 0.15))
		at := atom.Atom{
			Tag: int64(c + 1), Type: int32(1 + c%ntypes), Charge: []float64{0.4, -0.4, 0}[c%3],
			Pos: vec.New(float64(c%n), float64(c/n%n), float64(c/(n*n))).Add(jit).Scale(a),
		}
		if c > 0 {
			at.Special = append(at.Special, atom.SpecialRef{Tag: int64(c), Kind: atom.SpecialKind(1 + c%3)})
		}
		if c < len(order)-1 {
			at.Special = append(at.Special, atom.SpecialRef{Tag: int64(c + 2), Kind: atom.SpecialKind(1 + (c+1)%3)})
		}
		st.Add(at)
	}
	return st
}

// TestThreadedMatchesSerialAcrossRebuild: on a store with no index
// locality (the worst case for the boundary split), the threaded row
// loops of lj/cut, charmm and eam give the serial forces, energy, virial
// and pair count bit for bit, and keep doing so across rebuilds — which a
// boundary magnitude left in the per-entry scratch by the previous list
// would break.
func TestThreadedMatchesSerialAcrossRebuild(t *testing.T) {
	const qqr2e = 332.06371
	styles := []struct {
		name    string
		spacing float64
		ntypes  int
		mk      func() pair.Style
	}{
		{"lj mixed", 1.1, 2, func() pair.Style {
			return pair.NewLJCutMixed([]float64{1, 0.6}, []float64{1, 1.2}, 2.5, pair.Mixed)
		}},
		{"lj double", 1.1, 1, func() pair.Style { return pair.NewLJCut(1, 1, 2.5, pair.Double) }},
		{"charmm mixed", 1.1, 2, func() pair.Style {
			return pair.NewCharmm([]float64{0.15, 0.3}, []float64{1.0, 1.1}, 2.0, 2.5, pair.Mixed)
		}},
		{"eam double", 2.55, 1, func() pair.Style { return pair.NewEAMCopper(pair.Double) }},
		{"eam mixed", 2.55, 1, func() pair.Style { return pair.NewEAMCopper(pair.Mixed) }},
	}
	for _, sty := range styles {
		for _, w := range []int{2, 7} {
			serial, threaded := sty.mk(), sty.mk()
			st := shuffledLattice(7, sty.spacing, sty.ntypes, 51)
			cut := serial.Cutoff()
			nl := neighbor.NewList(serial.ListMode(), cut, 0.12*cut)
			if _, isCharmm := serial.(*pair.CharmmCoulLong); isCharmm {
				nl.SpecialWeight = func(atom.SpecialKind) (float64, bool) { return 0, true }
			}
			pool := par.NewPool(w)
			r := rng.New(52)
			for build := 1; build <= 3; build++ {
				id := fmt.Sprintf("%s workers=%d build=%d", sty.name, w, build)
				nl.Build(st)
				if b := nl.Boundary(w); len(b.Targets) < st.N/2 {
					t.Fatalf("%s: %d boundary targets of %d owned, want most", id, len(b.Targets), st.N)
				}
				st.ZeroForces()
				want := serial.Compute(&pair.Context{Store: st, List: nl, Sync: noSync{}, QQr2E: qqr2e})
				wantF := slices.Clone(st.Force[:st.N])
				st.ZeroForces()
				got := threaded.Compute(&pair.Context{Store: st, List: nl, Sync: noSync{}, QQr2E: qqr2e, Pool: pool})
				requireSameBits(t, id, got, want, st.Force, wantF)
				// Move every atom so that the next list pairs differently
				// and entries change places in the flat index space.
				for i := range st.Pos[:st.N] {
					d := 0.2 * sty.spacing
					st.Pos[i] = st.Pos[i].Add(vec.New(r.Range(-d, d), r.Range(-d, d), r.Range(-d, d)))
				}
			}
			pool.Close()
		}
	}
}
