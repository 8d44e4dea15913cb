// Package pair implements the non-bonded pairwise force fields of the
// benchmark suite (Table 2 of the paper): Lennard-Jones with cutoff (LJ
// and Chain), CHARMM-style LJ + long-range-compatible Coulomb (Rhodopsin),
// the EAM many-body metallic potential (EAM), and Hookean granular contact
// with tangential history (Chute).
//
// All analytic kernels are generic over the arithmetic precision
// (float32/float64) to support the paper's §8 sensitivity study; forces
// are always accumulated in float64 ("mixed" is float32 arithmetic with
// float64 accumulation, the LAMMPS INTEL package default).
package pair

import (
	"fmt"

	"gomd/internal/atom"
	"gomd/internal/neighbor"
	"gomd/internal/par"
	"gomd/internal/vec"
)

// Real is the precision type parameter of the arithmetic kernels.
type Real interface {
	~float32 | ~float64
}

// Precision selects the arithmetic width of the pairwise computation.
type Precision int

const (
	// Mixed computes in float32 and accumulates in float64 — the zero
	// value, matching the LAMMPS INTEL package default the paper
	// benchmarks against.
	Mixed Precision = iota
	// Double computes and accumulates in float64.
	Double
	// Single computes and accumulates in float32.
	Single
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case Double:
		return "double"
	case Mixed:
		return "mixed"
	case Single:
		return "single"
	default:
		return "precision(?)"
	}
}

// ParsePrecision maps a precision name (String's spelling) to its
// Precision; the error lists the valid names.
func ParsePrecision(s string) (Precision, error) {
	for _, p := range []Precision{Single, Mixed, Double} {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown precision %q (want single, mixed, double)", s)
}

// GhostSync propagates per-atom values from owners to ghost copies; the
// EAM style needs it between its density and force passes. The serial
// engine satisfies it by tag lookup; the decomposed engine by halo
// messages.
type GhostSync interface {
	// ForwardScalar overwrites buf[g] for every ghost g with the owner's
	// value. len(buf) equals the store's Total().
	ForwardScalar(buf []float64)
}

// Result carries the per-invocation accounting of a pair compute.
type Result struct {
	// Energy is the potential energy contribution (owned-ghost pairs are
	// counted at half weight so that summing over ranks is exact).
	Energy float64
	// Virial is the scalar virial sum r·f with the same weighting; used
	// by the pressure compute and the NPT barostat.
	Virial float64
	// Pairs is the number of in-cutoff pair evaluations performed; the
	// performance model uses it as the Pair-task work measure.
	Pairs int64
}

// Context is the state handed to a pair style on every compute call.
type Context struct {
	Store *atom.Store
	List  *neighbor.List
	Sync  GhostSync
	// QQr2E is the Coulomb energy prefactor of the active unit system.
	QQr2E float64
	// Dt is the timestep, needed by history-dependent (granular) styles.
	Dt float64
	// Pool, when non-nil and sized above one worker, runs the analytic
	// kernels (lj/cut, eam, charmm) on intra-rank workers via their
	// deterministic two-phase path; nil or one worker selects the
	// single-pass serial path. Both paths produce bit-identical forces,
	// energies, and virials (see DESIGN.md "Intra-rank threading").
	Pool *par.Pool
}

// Style is a pairwise force field.
type Style interface {
	// Name returns the LAMMPS-style identifier, e.g. "lj/cut".
	Name() string
	// Cutoff returns the interaction cutoff used for neighbor lists.
	Cutoff() float64
	// ListMode returns the neighbor discipline the style requires.
	ListMode() neighbor.Mode
	// Compute accumulates forces into ctx.Store.Force and returns the
	// energy/virial/ops accounting.
	Compute(ctx *Context) Result
}

// scaleHalf returns the energy/virial weight of a pair: 1 for owned-owned
// (stored once in half lists), 0.5 for owned-ghost (computed by both
// owning ranks).
func scaleHalf(j, owned int) float64 {
	if j < owned {
		return 1
	}
	return 0.5
}

// cutoffFilter is pass 1 of every cutoff-filtered row loop: it returns
// the positions within row, ascending, of the entries whose partner lies
// within cut2 of (xi, yi, zi). A third to a half of a Verlet list's
// entries sit in the skin, so a branch on the distance is one the
// predictor loses; here every position is stored and the cursor advances
// by the comparison's result. Pass 2 then runs the style's arithmetic
// over the survivors only, in row order, recomputing the separation with
// the same expressions — so which pairs are evaluated, and in which
// order, is exactly what a single loop with a cutoff branch would do.
//
// keep is the calling worker's scratch: the survivors alias it, and it
// is replaced by a larger one when a row outgrows it.
func cutoffFilter[T Real](keep *[]int32, pos []vec.V3, row []int32, xi, yi, zi, cut2 T) []int32 {
	if len(*keep) < len(row) {
		*keep = make([]int32, 2*len(row))
	}
	out := (*keep)[:len(row)]
	n := 0
	for k, e := range row {
		pj := &pos[e&neighbor.IdxMask]
		dx := xi - T(pj.X)
		dy := yi - T(pj.Y)
		dz := zi - T(pj.Z)
		r2 := dx*dx + dy*dy + dz*dz
		out[n] = int32(k)
		if !(r2 > cut2) {
			n++
		}
	}
	return out[:n]
}

// pairScratch is the per-style scratch of the two-phase parallel path:
// phase 1 (rows) stores each in-cutoff entry's force magnitude in pairF
// (0 marks out-of-cutoff), the row's own-force sum in ownF, and the
// row's energy/virial partials in rowE/rowV; phase 2 (targets) gathers
// scatter contributions through the list transpose. Scalars fold
// serially over rows, so every total is independent of worker count.
type pairScratch struct {
	pairF  []float64
	ownF   [][3]float64
	rowE   []float64
	rowV   []float64
	pairsW []int64
	keep   [][]int32 // cutoffFilter scratch, one per worker
}

// filters returns the cutoffFilter scratch of W workers; the serial
// loops use slot 0.
func (s *pairScratch) filters(W int) [][]int32 {
	for len(s.keep) < W {
		s.keep = append(s.keep, nil)
	}
	return s.keep
}

// reserve sizes the scratch for owned rows, flat entries, and W workers.
func (s *pairScratch) reserve(owned, flat, W int) {
	s.filters(W)
	s.pairF = growSlice(s.pairF, flat)
	s.ownF = growSlice(s.ownF, owned)
	s.rowE = growSlice(s.rowE, owned)
	s.rowV = growSlice(s.rowV, owned)
	s.pairsW = growSlice(s.pairsW, W)
	for w := range s.pairsW {
		s.pairsW[w] = 0
	}
}

// fold accumulates the per-row partials in ascending row order — the
// same grouping the serial kernels use — plus the per-worker pair
// counts, into res.
func (s *pairScratch) fold(owned int, res *Result) {
	for i := 0; i < owned; i++ {
		res.Energy += s.rowE[i]
		res.Virial += s.rowV[i]
	}
	for _, n := range s.pairsW {
		res.Pairs += n
	}
}

// growSlice resizes s to length n reusing capacity; contents are
// undefined until written.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
