package pair

import (
	"math"

	"gomd/internal/neighbor"
	"gomd/internal/vec"
)

// historyKey identifies a contact from the perspective of one owned atom.
type historyKey struct {
	i, j int64 // ordered: i is the perspective atom's tag
}

// GranHookeHistory is the Hookean granular contact model with tangential
// displacement history of the Chute benchmark (pair_style
// gran/hooke/history). Grains are monodisperse spheres of diameter D and
// mass M. The normal force is a damped linear spring on the overlap; the
// tangential force is a spring on the accumulated tangential displacement
// ("shear history"), truncated by a Coulomb friction cone.
//
// Like the LAMMPS granular styles — and as the paper highlights for Chute
// — this style does not exploit Newton's third law: it consumes a full
// neighbor list and applies force only to the perspective atom, so every
// contact is evaluated twice.
//
// Simplification vs LAMMPS: grain rotation (angular velocity and torque)
// is not tracked; tangential velocity is the translational relative
// velocity projected on the contact plane. The workload signature —
// full-list traversal, per-contact mutable history, ~7 neighbors/atom —
// is preserved.
type GranHookeHistory struct {
	Kn, Kt         float64 // normal/tangential spring constants
	GammaN, GammaT float64 // normal/tangential damping
	Xmu            float64 // Coulomb friction coefficient
	D              float64 // grain diameter
	M              float64 // grain mass

	history map[historyKey]vec.V3
}

// NewGranChute returns the parameterization of the LAMMPS chute bench:
// kn=2000, kt=2/7 kn, gamma_n=50, gamma_t=gamma_n/2, xmu=0.5, unit grains.
func NewGranChute() *GranHookeHistory {
	kn := 2000.0
	return &GranHookeHistory{
		Kn:     kn,
		Kt:     kn * 2 / 7,
		GammaN: 50,
		GammaT: 25,
		Xmu:    0.5,
		D:      1,
		M:      1,
	}
}

// Name implements Style.
func (p *GranHookeHistory) Name() string { return "gran/hooke/history" }

// Cutoff implements Style. Contact exists only at overlap, so the cutoff
// is the grain diameter.
func (p *GranHookeHistory) Cutoff() float64 { return p.D }

// ListMode implements Style.
func (p *GranHookeHistory) ListMode() neighbor.Mode { return neighbor.Full }

// Contacts returns the number of live contact-history entries; exposed
// for tests and the Modify/Neigh accounting.
func (p *GranHookeHistory) Contacts() int { return len(p.history) }

// ExtractHistory removes and returns all history entries whose
// perspective atom is tag; the domain exchange calls it when an atom
// migrates so its contact memory follows it.
func (p *GranHookeHistory) ExtractHistory(tag int64) map[int64]vec.V3 {
	if len(p.history) == 0 {
		return nil
	}
	var out map[int64]vec.V3
	for k, v := range p.history {
		if k.i == tag {
			if out == nil {
				out = make(map[int64]vec.V3)
			}
			out[k.j] = v
			delete(p.history, k)
		}
	}
	return out
}

// InjectHistory installs migrated history entries for perspective atom tag.
func (p *GranHookeHistory) InjectHistory(tag int64, h map[int64]vec.V3) {
	if p.history == nil {
		p.history = make(map[historyKey]vec.V3)
	}
	for j, v := range h {
		p.history[historyKey{tag, j}] = v
	}
}

// Compute implements Style. Granular contacts are dissipative; Energy is
// reported as zero and Virial carries the normal-force virial.
func (p *GranHookeHistory) Compute(ctx *Context) Result {
	st := ctx.Store
	nl := ctx.List
	dt := ctx.Dt
	var res Result
	if p.history == nil {
		p.history = make(map[historyKey]vec.V3)
	}
	d2 := p.D * p.D
	meff := p.M * 0.5 // equal masses
	owned := st.N

	for i := 0; i < owned; i++ {
		pi := st.Pos[i]
		vi := st.Vel[i]
		ti := st.Tag[i]
		var f vec.V3
		for _, j32 := range nl.Row(i) {
			j := int(j32)
			del := pi.Sub(st.Pos[j])
			r2 := del.Norm2()
			key := historyKey{ti, st.Tag[j]}
			if r2 >= d2 {
				delete(p.history, key)
				continue
			}
			res.Pairs++
			r := math.Sqrt(r2)
			rinv := 1 / r
			n := del.Scale(rinv) // contact normal, from j to i
			overlap := p.D - r

			vr := vi.Sub(st.Vel[j])
			vn := n.Scale(vr.Dot(n))
			vt := vr.Sub(vn)

			// Normal force: spring + dashpot.
			fn := n.Scale(p.Kn * overlap).Sub(vn.Scale(p.GammaN * meff))
			fnMag := fn.Norm()

			// Tangential history update.
			shear := p.history[key].Add(vt.Scale(dt))
			// Project accumulated shear back onto the tangent plane (the
			// normal rotates as grains move).
			shear = shear.Sub(n.Scale(shear.Dot(n)))
			ft := shear.Scale(-p.Kt).Sub(vt.Scale(p.GammaT * meff))
			// Coulomb cone: |ft| <= xmu |fn|; rescale history on sliding.
			ftMag := ft.Norm()
			fcap := p.Xmu * fnMag
			if ftMag > fcap {
				if ftMag > 0 {
					scale := fcap / ftMag
					ft = ft.Scale(scale)
					// Keep the spring consistent with the truncated force:
					// shear = -(ft + gamma_t*m_eff*vt)/kt.
					shear = ft.Add(vt.Scale(p.GammaT * meff)).Scale(-1 / p.Kt)
				} else {
					ft = vec.V3{}
				}
			}
			p.history[key] = shear

			f = f.Add(fn).Add(ft)
			// Full list: each side evaluates its own copy, so the virial
			// is halved per evaluation.
			res.Virial += 0.5 * fn.Dot(del)
		}
		st.Force[i] = st.Force[i].Add(f)
	}
	return res
}
