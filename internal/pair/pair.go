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
	// Pool runs the analytic kernels (lj/cut, eam, charmm) on intra-rank
	// workers: each kernel has one row loop, called over all rows on a
	// nil or one-worker pool and over par.Chunk rows per worker
	// otherwise, with the scatter into boundary targets replayed after
	// the barrier. Forces, energies and virials are bit-identical at
	// every worker count (see DESIGN.md "Intra-rank threading").
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

// pairScratch is a style's scratch for its threaded row loop (DESIGN.md
// "Intra-rank threading"). A worker scatters straight into an interior
// target; for a boundary target (neighbor.Boundary) it stores the
// entry's magnitude in pairF, at the entry's slot, and a boundary row's
// own sum in ownF, and replay applies both after the barrier. replay
// zeroes what it reads, so pairF is all zeros between calls. Energy and
// virial follow the serial row order too: chunk 0 adds its rows to e and
// v as it goes, later chunks leave theirs in rowE and rowV, and fold
// adds those after the barrier.
type pairScratch struct {
	bnd        *neighbor.Boundary
	pairF      []float64
	ownF       [][3]float64
	rowE, rowV []float64
	e, v       float64
	pairsW     []int64
	keep       [][]int32 // cutoffFilter scratch, one per worker
}

// reserve sizes the scratch for a row pass of W workers over owned rows
// split by b, and clears the pair counts.
func (s *pairScratch) reserve(b *neighbor.Boundary, owned, W int) {
	for len(s.keep) < W {
		s.keep = append(s.keep, nil)
	}
	s.bnd = b
	if n := int(b.Ptr[len(b.Targets)]); cap(s.pairF) < n {
		s.pairF = make([]float64, n)
	} else {
		s.pairF = s.pairF[:n] // zero by the invariant
	}
	if W > 1 { // one worker writes neither: no boundary row, no chunk past 0
		s.ownF = growSlice(s.ownF, owned)
		s.rowE = growSlice(s.rowE, owned)
		s.rowV = growSlice(s.rowV, owned)
	}
	s.pairsW = growSlice(s.pairsW, W)
	clear(s.pairsW)
}

// begin starts a row pass whose energy and virial continue from res.
func (s *pairScratch) begin(res *Result) { s.e, s.v = res.Energy, res.Virial }

// sum records row i's energy and virial partials from worker w.
func (s *pairScratch) sum(w, i int, e, v float64) {
	if w == 0 {
		s.e += e
		s.v += v
		return
	}
	s.rowE[i], s.rowV[i] = e, v
}

// fold ends a row pass of W workers over owned rows: res gets chunk 0's
// totals plus every later row's partials in row order, and the pairs
// counted so far.
func (s *pairScratch) fold(res *Result, owned, W int) {
	_, hi := par.Chunk(owned, W, 0)
	res.Energy, res.Virial = s.e, s.v
	for i := hi; i < owned; i++ {
		res.Energy += s.rowE[i]
		res.Virial += s.rowV[i]
	}
	res.Pairs = 0
	for _, n := range s.pairsW {
		res.Pairs += n
	}
}

// hold stores f, the magnitude of the entry at flat index e, whose target
// is a boundary target, in the entry's slot for replay. It stays out of
// line on purpose: inlined, its operands take registers from every row
// loop's hot path, which then spills, and the one-worker loop runs ≈ 4%
// slower.
//
//go:noinline
func (s *pairScratch) hold(e int, f float64) { s.pairF[s.bnd.Slot[e]] = f }

// own adds row i's own force: straight into force[i] for an interior
// row, into ownF for replay for a boundary one.
func (s *pairScratch) own(force []vec.V3, i int, fx, fy, fz float64) {
	if s.bnd.Flag[i] {
		s.ownF[i] = [3]float64{fx, fy, fz}
		return
	}
	force[i] = force[i].Add(vec.New(fx, fy, fz))
}

// replay applies, target by target, the scatter a row pass deferred for
// the boundary targets of s.bnd: force[j] minus each stored contribution in
// (row, entry) order, then plus the target's own sum — the serial
// loop's operations in the serial loop's order. A contribution is the
// magnitude times the separation pos[i]−pos[j] in T; tProduct selects
// the product in T widened (lj/cut) or in float64 (charmm, eam), as the
// style's row loop computes it. A zero magnitude is an entry the cutoff
// dropped.
func replay[T Real](pool *par.Pool, s *pairScratch, pos, force []vec.V3, tProduct bool) {
	b := s.bnd
	pool.Run("pair_boundary", len(b.Targets), func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			j := b.Targets[t]
			pj := pos[j]
			xj, yj, zj := T(pj.X), T(pj.Y), T(pj.Z)
			f := force[j]
			for k := b.Ptr[t]; k < b.Ptr[t+1]; k++ {
				fp := s.pairF[k]
				if fp == 0 {
					continue
				}
				s.pairF[k] = 0
				pi := pos[b.Row[k]]
				dx, dy, dz := T(pi.X)-xj, T(pi.Y)-yj, T(pi.Z)-zj
				if tProduct {
					ft := T(fp)
					f = f.Sub(vec.New(float64(ft*dx), float64(ft*dy), float64(ft*dz)))
				} else {
					f = f.Sub(vec.New(fp*float64(dx), fp*float64(dy), fp*float64(dz)))
				}
			}
			o := s.ownF[j]
			force[j] = f.Add(vec.New(o[0], o[1], o[2]))
		}
	})
}

// growSlice resizes s to length n reusing capacity; contents are
// undefined until written.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
