package kspace

import (
	"math"

	"gomd/internal/atom"
	"gomd/internal/box"
	"gomd/internal/neighbor"
	"gomd/internal/vec"
)

// Result carries the accounting of one long-range solve.
type Result struct {
	Energy float64
	Virial float64
	// Work counters consumed by the performance model (§2: the Kspace
	// task) and by the GPU kernel mapping (make_rho, particle_map,
	// interp, FFT).
	SpreadOps  int64 // charge-assignment grid updates (make_rho)
	InterpOps  int64 // force-interpolation grid reads (interp)
	MapOps     int64 // particle-to-cell mapping ops (particle_map)
	FFTOps     int64 // complex butterflies across all transforms
	GridOps    int64 // per-k-point Green's function multiplications
	GridPoints int64 // total mesh size
	KVectors   int64 // Ewald reference: k vectors summed
}

// Solver is a long-range electrostatics solver.
type Solver interface {
	Name() string
	// Setup prepares the solver for a box and charge population; it must
	// be called before Compute and again if the box changes materially.
	// A grid the accuracy would size past neighbor.MaxBins cells, or that
	// no mesh meets, is a *GridError, returned before anything is
	// allocated.
	Setup(bx box.Box, natoms int, q2sum, qqr2e float64) error
	// GEwald returns the real/reciprocal splitting parameter for the
	// short-range erfc damping in the pair style.
	GEwald() float64
	// SetShare sets the fraction of the (globally computed) reciprocal
	// energy and virial this instance reports. Decomposed engines with a
	// replicated mesh set 1/nranks so the cross-rank energy reduction is
	// exact; serial engines leave the default 1.
	SetShare(f float64)
	// Compute accumulates reciprocal-space forces on owned atoms and
	// returns energy/virial including the self-energy correction.
	// reduce, when non-nil, element-wise sums a replicated mesh across
	// ranks (decomposed runs); Ewald passes the structure factor instead.
	Compute(st *atom.Store, bx box.Box, reduce func([]float64)) Result
}

// Ewald is the classical Ewald summation solver: an O(N·K) direct sum
// over reciprocal vectors. It is exact to the chosen k-space cutoff and
// serves as the correctness reference for PPPM, mirroring the relationship
// between kspace_style ewald and pppm in LAMMPS.
type Ewald struct {
	Accuracy float64
	RCut     float64
	share    float64
	// GOverride, when positive, pins the splitting parameter (tests use
	// it to compare solvers at an identical real/reciprocal split).
	GOverride float64

	g     float64
	qqr2e float64
	q2sum float64
	kvecs []vec.V3
	coefA []float64 // A(k) = exp(-k^2/4g^2)/k^2
}

// NewEwald returns a solver with the given relative accuracy and
// real-space cutoff (used to choose the splitting parameter).
func NewEwald(accuracy, rcut float64) *Ewald {
	return &Ewald{Accuracy: accuracy, RCut: rcut}
}

// Name implements Solver.
func (e *Ewald) Name() string { return "ewald" }

// GEwald implements Solver.
func (e *Ewald) GEwald() float64 { return e.g }

// SetShare implements Solver.
func (e *Ewald) SetShare(f float64) { e.share = f }

// Setup implements Solver. The k vectors are drawn from a
// (2nmax+1)-per-dimension cube, which is what the cell bound counts.
func (e *Ewald) Setup(bx box.Box, natoms int, q2sum, qqr2e float64) error {
	g := SplitParameter(e.Accuracy, e.RCut)
	if e.GOverride > 0 {
		g = e.GOverride
	}
	// Include every k with |k| below the cutoff where the Gaussian factor
	// has decayed to the accuracy target.
	kcut := 2 * g * math.Sqrt(-math.Log(e.Accuracy))
	l := bx.Lengths()
	unit := vec.New(2*math.Pi/l.X, 2*math.Pi/l.Y, 2*math.Pi/l.Z)
	span := [3]float64{math.Floor(kcut / unit.X), math.Floor(kcut / unit.Y), math.Floor(kcut / unit.Z)}
	cells := (2*span[0] + 3) * (2*span[1] + 3) * (2*span[2] + 3)
	if !(cells <= neighbor.MaxBins) { // NaN included
		return &GridError{Solver: "ewald", Accuracy: e.Accuracy, Cells: cells}
	}
	e.qqr2e = qqr2e
	e.q2sum = q2sum
	e.g = g
	nmax := [3]int{int(span[0]) + 1, int(span[1]) + 1, int(span[2]) + 1}
	e.kvecs = e.kvecs[:0]
	e.coefA = e.coefA[:0]
	kcut2 := kcut * kcut
	g4 := 4 * e.g * e.g
	// Half-space of k vectors (k and -k contribute identically for real
	// charges); the z > 0 half plus boundary conventions below.
	for nx := -nmax[0]; nx <= nmax[0]; nx++ {
		for ny := -nmax[1]; ny <= nmax[1]; ny++ {
			for nz := -nmax[2]; nz <= nmax[2]; nz++ {
				if nx == 0 && ny == 0 && nz == 0 {
					continue
				}
				// Keep one of each +-k pair: lexicographically positive.
				if nx < 0 || (nx == 0 && ny < 0) || (nx == 0 && ny == 0 && nz < 0) {
					continue
				}
				k := vec.New(float64(nx)*unit.X, float64(ny)*unit.Y, float64(nz)*unit.Z)
				k2 := k.Norm2()
				if k2 > kcut2 {
					continue
				}
				e.kvecs = append(e.kvecs, k)
				e.coefA = append(e.coefA, math.Exp(-k2/g4)/k2)
			}
		}
	}
	return nil
}

// Compute implements Solver. reduce is accepted for interface symmetry;
// Ewald sums structure factors over owned atoms, so decomposed callers
// pass a reducer that sums the packed (Re, Im) structure-factor array.
func (e *Ewald) Compute(st *atom.Store, bx box.Box, reduce func([]float64)) Result {
	var res Result
	n := st.N
	vol := bx.Volume()
	c := 2 * math.Pi * e.qqr2e / vol
	nk := len(e.kvecs)
	res.KVectors = int64(nk)

	// Structure factors.
	sf := make([]float64, 2*nk)
	for i := 0; i < n; i++ {
		q := st.Charge[i]
		if q == 0 {
			continue
		}
		p := st.Pos[i]
		for kI, k := range e.kvecs {
			ph := k.Dot(p)
			s, cphi := math.Sincos(ph)
			sf[2*kI] += q * cphi
			sf[2*kI+1] += q * s
		}
	}
	// Decomposed runs sum partial structure factors across ranks; the
	// backend's reducer uses the same butterfly as the PPPM mesh.
	if reduce != nil {
		reduce(sf)
	}

	share := e.share
	if share == 0 {
		share = 1
	}
	g4 := 4 * e.g * e.g
	for kI := range e.kvecs {
		a := e.coefA[kI]
		s2 := sf[2*kI]*sf[2*kI] + sf[2*kI+1]*sf[2*kI+1]
		t := 2 * c * a * s2 * share // factor 2: half-space of k vectors
		res.Energy += t
		k2 := e.kvecs[kI].Norm2()
		// Isotropic virial trace of a reciprocal term T(k) is
		// T * (1 - k^2/(2 g^2)); g4 holds 4 g^2.
		res.Virial += t * (1 - 2*k2/g4)
	}

	// Forces.
	for i := 0; i < n; i++ {
		q := st.Charge[i]
		if q == 0 {
			continue
		}
		p := st.Pos[i]
		var f vec.V3
		for kI, k := range e.kvecs {
			ph := k.Dot(p)
			s, cphi := math.Sincos(ph)
			// Im(S* e^{ik r}) = s*Re(S) - c*Im(S) ... with S = sum q e^{ikr}
			im := sf[2*kI]*s - sf[2*kI+1]*cphi
			f = f.Add(k.Scale(2 * 2 * c * e.coefA[kI] * q * im))
		}
		st.Force[i] = st.Force[i].Add(f)
	}

	// Self-energy correction (owned atoms' own q^2 sum).
	var q2own float64
	for i := 0; i < n; i++ {
		q2own += st.Charge[i] * st.Charge[i]
	}
	res.Energy -= e.qqr2e * e.g / math.Sqrt(math.Pi) * q2own
	return res
}

// SplitParameter returns the Ewald splitting parameter g for a relative
// accuracy and real-space cutoff, using the LAMMPS fallback estimate
// g = (1.35 - 0.15 ln(accuracy)) / rcut.
func SplitParameter(accuracy, rcut float64) float64 {
	return (1.35 - 0.15*math.Log(accuracy)) / rcut
}
