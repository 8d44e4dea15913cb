package fix

import (
	"math"

	"gomd/internal/vec"
)

// Shake enforces holonomic bond-length (and, via a satellite-satellite
// pseudo-bond, angle) constraints with the SHAKE iteration, like the
// LAMMPS fix shake the Rhodopsin benchmark adds to its CHARMM topology.
//
// Constrained clusters are discovered from the store's bond topology: a
// bond whose type appears in BondDist is constrained to that distance; an
// angle whose type appears in AngleDist constrains the two outer atoms of
// the angle to that distance (rigidifying the triangle). Clusters must be
// rank-local, which the domain exchange guarantees by migrating molecules
// atomically.
//
// The SHAKE reference geometry (the constrained positions x(t) before the
// unconstrained drift) is reconstructed as x - v*dt from the velocity
// Verlet update, so the fix carries no state between steps (its buffers
// are scratch, kept for their capacity) — corrections are identical no
// matter how atoms have been reordered or migrated between ranks.
//
// As in the paper's GPU characterization, SHAKE is a host-side (CPU-only)
// fix: the GPU offload schedule never accelerates it.
type Shake struct {
	Base
	// BondDist maps constrained bond types to target lengths.
	BondDist map[int32]float64
	// AngleDist maps constrained angle types to outer-atom distances.
	AngleDist map[int32]float64
	Tol       float64 // relative convergence tolerance
	MaxIter   int

	// Iterations counts SHAKE sweeps for the Modify work model.
	Iterations int64

	// Scratch rebuilt every call and kept only for its capacity, so that
	// a step allocates nothing: the constraint list and the reference
	// bond vectors.
	pairs []shakePair
	ref   []vec.V3
}

// NewShake returns a Shake fix with LAMMPS-like defaults.
func NewShake() *Shake {
	return &Shake{
		BondDist:  map[int32]float64{},
		AngleDist: map[int32]float64{},
		Tol:       1e-6,
		MaxIter:   40,
	}
}

// Name implements Fix.
func (*Shake) Name() string { return "shake" }

type shakePair struct {
	a, b int
	d2   float64
}

// gatherConstraints lists the constraint pairs anchored at owned atoms,
// in f.pairs.
func (f *Shake) gatherConstraints(c *Context) []shakePair {
	st := c.Store
	out := f.pairs[:0]
	for i := 0; i < st.N; i++ {
		for _, b := range st.Bonds[i] {
			if d, ok := f.BondDist[b.Type]; ok {
				j := st.MustLookup(b.Partner)
				out = append(out, shakePair{i, j, d * d})
			}
		}
		for _, a := range st.Angles[i] {
			if d, ok := f.AngleDist[a.Type]; ok {
				ja := st.MustLookup(a.A)
				jc := st.MustLookup(a.C)
				out = append(out, shakePair{ja, jc, d * d})
			}
		}
	}
	f.pairs = out
	return out
}

// InitialIntegrate implements Fix. Registered after the integrator, it
// sees the unconstrained positions x(t+dt) = x(t) + v dt and corrects
// them along the pre-drift bond vectors, propagating the corrections
// into the velocities.
func (f *Shake) InitialIntegrate(c *Context) {
	st := c.Store
	pairs := f.gatherConstraints(c)
	if len(pairs) == 0 {
		return
	}
	invM := func(i int) float64 { return 1 / c.Mass[st.Type[i]-1] }
	dt := c.Dt
	dtInv := 1 / dt

	// Reference (pre-drift) bond vectors, reconstructed from the Verlet
	// update; computed once since corrections shift x and v coherently
	// (x - v*dt is invariant under a SHAKE correction pair).
	if cap(f.ref) < len(pairs) {
		f.ref = make([]vec.V3, len(pairs))
	}
	ref := f.ref[:len(pairs)]
	for k, p := range pairs {
		xa := st.Pos[p.a].Sub(st.Vel[p.a].Scale(dt))
		xb := st.Pos[p.b].Sub(st.Vel[p.b].Scale(dt))
		ref[k] = xa.Sub(xb)
	}

	for iter := 0; iter < f.MaxIter; iter++ {
		f.Iterations++
		converged := true
		for k, p := range pairs {
			r := st.Pos[p.a].Sub(st.Pos[p.b])
			diff := r.Norm2() - p.d2
			if math.Abs(diff) > f.Tol*p.d2 {
				converged = false
			} else {
				continue
			}
			rOld := ref[k]
			ima, imb := invM(p.a), invM(p.b)
			denom := 2 * (ima + imb) * rOld.Dot(r)
			if denom == 0 {
				continue
			}
			g := diff / denom
			da := rOld.Scale(-g * ima)
			db := rOld.Scale(g * imb)
			st.Pos[p.a] = st.Pos[p.a].Add(da)
			st.Pos[p.b] = st.Pos[p.b].Add(db)
			st.Vel[p.a] = st.Vel[p.a].Add(da.Scale(dtInv))
			st.Vel[p.b] = st.Vel[p.b].Add(db.Scale(dtInv))
			c.Ops++
		}
		if converged {
			break
		}
	}
}

// EndOfStep implements Fix: the RATTLE velocity stage, removing relative
// velocity components along constrained bonds after the final kick.
// Constraints within a cluster couple (the vertex atom appears in all
// three), so the projection iterates to convergence.
func (f *Shake) EndOfStep(c *Context) {
	st := c.Store
	pairs := f.gatherConstraints(c)
	invM := func(i int) float64 { return 1 / c.Mass[st.Type[i]-1] }
	for iter := 0; iter < f.MaxIter; iter++ {
		converged := true
		for _, p := range pairs {
			r := st.Pos[p.a].Sub(st.Pos[p.b])
			vrel := st.Vel[p.a].Sub(st.Vel[p.b])
			ima, imb := invM(p.a), invM(p.b)
			r2 := r.Norm2()
			if r2 == 0 {
				continue
			}
			lam := vrel.Dot(r) / (r2 * (ima + imb))
			if lam*lam*r2 > f.Tol*f.Tol {
				converged = false
			} else {
				continue
			}
			st.Vel[p.a] = st.Vel[p.a].Sub(r.Scale(lam * ima))
			st.Vel[p.b] = st.Vel[p.b].Add(r.Scale(lam * imb))
			c.Ops++
		}
		if converged {
			break
		}
	}
}
