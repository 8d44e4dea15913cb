// Package neighbor implements the cutoff-neighbor machinery at the heart
// of short-range MD: spatial binning (cell lists), half and full neighbor
// lists with a skin distance, displacement-triggered rebuilds, and
// special-bond exclusion filtering.
//
// Terminology follows the paper (§2): the list stores, for each owned
// atom, every partner within cutoff+skin; it is rebuilt only when some
// atom has moved more than skin/2 since the last build, so that no
// interacting pair can be missed between rebuilds.
package neighbor

import (
	"fmt"
	"math"
	"time"

	"gomd/internal/atom"
	"gomd/internal/obs"
	"gomd/internal/par"
	"gomd/internal/vec"
)

// Mode selects the list construction discipline.
type Mode int

const (
	// Half lists store each owned-owned pair once (i < j) and every
	// owned-ghost pair on the owning side; pair kernels apply equal and
	// opposite forces for owned-owned pairs and single-sided forces for
	// owned-ghost pairs (newton-off halo discipline).
	Half Mode = iota
	// Full lists store every neighbor of every owned atom; used by the
	// granular pair style, which (like the paper's Chute experiment) does
	// not exploit Newton's third law.
	Full
)

// Special-pair entries are stored with the SpecialKind encoded in the
// top bits of the index when the list keeps them (coul/long styles);
// kernels that enable SpecialWeight must decode with IdxMask/KindShift.
const (
	// KindShift is the bit offset of the special kind within an entry.
	KindShift = 29
	// IdxMask extracts the local atom index from an entry.
	IdxMask = 1<<KindShift - 1
)

// Decode splits a neighbor entry into its atom index and special kind
// (0 for ordinary pairs).
func Decode(entry int32) (idx int, kind atom.SpecialKind) {
	return int(entry & IdxMask), atom.SpecialKind(entry >> KindShift)
}

// Stats aggregates list construction counters for the characterization
// harness (they feed Table 2's neighbors/atom and the Neigh task model).
type Stats struct {
	Builds         int
	TotalPairs     int64 // pairs stored across all builds
	LastPairs      int64 // pairs stored by the most recent build
	LastOwnedPairs int64 // most recent build's owned-owned pairs
	LastGhostPairs int64 // most recent build's owned-ghost pairs
	DistanceChecks int64 // candidate pairs tested during builds
}

// List is a reusable neighbor list.
type List struct {
	Mode   Mode
	Cutoff float64 // interaction cutoff
	Skin   float64 // extra bookkeeping distance

	// SpecialScale, when non-nil, maps a (i, j) special pair to a weight
	// to apply instead of exclusion. nil means special pairs are skipped
	// entirely (the FENE convention of the Chain benchmark).
	SpecialWeight func(atom.SpecialKind) (weight float64, keep bool)

	Stats Stats

	// Span, when non-nil, receives one kernel span per build on the
	// owning rank's timeline; Rebuilds, when non-nil, counts builds in
	// the metrics registry. Both default off (internal/obs).
	Span     *obs.Rank
	Rebuilds *obs.Counter

	// Pool, when non-nil, parallelizes binning and the per-atom scan
	// across intra-rank workers. The produced list is bit-identical for
	// any worker count: binning is a counting sort whose within-bin
	// order is ascending atom index regardless of chunking, and each
	// worker writes only its own rows. The pair kernels split the rows
	// the same way (par.Chunk) and ask Boundary for the split's targets;
	// it needs no pool, only the worker count.
	Pool *par.Pool

	lastPos []vec.V3 // owned positions snapshot at last build

	// scratch bin storage reused across builds (counting-sort cells)
	binStart []int32  // CSR offsets per bin, len nbins+1
	binAtoms []int32  // atom indices sorted by bin, ascending within bin
	binPos   []vec.V3 // positions in binAtoms order, so candidates stream
	binCnt   []int32  // flat per-worker x per-bin counts / cursors
	wlo, whi []vec.V3
	checksW  []int64
	pairsW   []int64
	ghostW   []int64

	// neigh holds every row's entries back to back; rowPtr[i] is where
	// owned row i starts and rowPtr[owned] the total. It is the only
	// index space: Row slices it, pair kernels address entries by
	// rowPtr[i]+k, and Boundary's Slot maps from it. For entries
	// produced with special-bond filtering, excluded partners are absent.
	neigh  []int32
	rowPtr []int32
	segs   [][]int32 // scan output of workers 1.., appended to neigh after the scan

	// bnd is the boundary split of the most recent Build for bndW
	// workers (0: not computed since the Build); bndCnt is its scratch.
	bnd    Boundary
	bndW   int
	bndCnt []int32
}

// NewList returns a list with the given discipline, cutoff, and skin.
func NewList(mode Mode, cutoff, skin float64) *List {
	return &List{Mode: mode, Cutoff: cutoff, Skin: skin}
}

// BuildCutoff returns the distance used for list construction.
func (l *List) BuildCutoff() float64 { return l.Cutoff + l.Skin }

// NeedsRebuild reports whether any owned atom has moved more than skin/2
// since the last build (or the list has never been built, or the atom
// count changed).
func (l *List) NeedsRebuild(st *atom.Store) bool {
	if l.lastPos == nil || len(l.lastPos) != st.N {
		return true
	}
	half2 := 0.25 * l.Skin * l.Skin
	for i := 0; i < st.N; i++ {
		if st.Pos[i].Sub(l.lastPos[i]).Norm2() > half2 {
			return true
		}
	}
	return false
}

// MaxBins bounds the cells Build grids the atoms' bounding box into: 16
// per atom of the largest system an input may ask for, the bound the
// script admission check applies at the first run.
const MaxBins = 16 * atom.MaxAtoms

// BinError is Build's refusal of a bin grid over MaxBins cells: the atoms
// spread too far for the bin size (an atom flung far outside the box, or
// a box a barostat inflated).
type BinError struct {
	Lo, Hi vec.V3  // the atoms' bounding box
	Bin    float64 // bin edge: half of cutoff+skin
	Cells  float64 // cells the grid would take
}

// Error implements error.
func (e *BinError) Error() string {
	return fmt.Sprintf("neighbor: atoms span %v to %v; bins of %g would take %.3g cells, over the limit of %d",
		e.Lo, e.Hi, e.Bin, e.Cells, MaxBins)
}

// Build constructs the neighbor list over the owned+ghost atoms of st.
// Positions must already include up-to-date ghosts extending at least
// cutoff+skin beyond the owned region.
//
// With a Pool attached the bounds pass, binning, and per-atom scan run
// across workers; the stored list (entry order included) is identical
// for every worker count.
//
// A bin grid over MaxBins cells is refused with a *BinError before
// anything is allocated for it; the list is left as it was.
func (l *List) Build(st *atom.Store) error {
	var tObs time.Time
	if l.Span != nil {
		tObs = time.Now()
	}
	total := st.Total()
	cut := l.BuildCutoff()
	cut2 := cut * cut
	pool := l.Pool
	W := pool.Workers()
	l.bndW = 0

	// Bin geometry: cover the bounding box of all atoms with bins of
	// roughly half the interaction range and a distance-pruned stencil,
	// the standard LAMMPS discipline — candidate counts per atom drop
	// ~2.5x versus cutoff-sized bins.
	//
	// The bounds pass reduces per-worker extents; min/max merging is
	// exact under any grouping, so the geometry is worker-independent.
	l.wlo = grow(l.wlo, W)
	l.whi = grow(l.whi, W)
	var lo, hi vec.V3
	if total == 0 {
		lo, hi = vec.V3{}, vec.Splat(1)
	} else {
		for w := 0; w < W; w++ {
			// Seed every slot with a real position so workers whose
			// chunk is empty (W > total) contribute a no-op extent.
			l.wlo[w], l.whi[w] = st.Pos[0], st.Pos[0]
		}
		pool.Run("neigh_bounds", total, func(w, alo, ahi int) {
			l.wlo[w], l.whi[w] = bounds(st.Pos[alo:ahi])
		})
		lo, hi = l.wlo[0], l.whi[0]
		for w := 1; w < W; w++ {
			lo.X = math.Min(lo.X, l.wlo[w].X)
			lo.Y = math.Min(lo.Y, l.wlo[w].Y)
			lo.Z = math.Min(lo.Z, l.wlo[w].Z)
			hi.X = math.Max(hi.X, l.whi[w].X)
			hi.Y = math.Max(hi.Y, l.whi[w].Y)
			hi.Z = math.Max(hi.Z, l.whi[w].Z)
		}
	}
	// Expand marginally so the max coordinate bins inside the grid.
	eps := 1e-9 * (1 + hi.Sub(lo).MaxComponent())
	lo = lo.Sub(vec.Splat(eps))
	hi = hi.Add(vec.Splat(eps))
	span := hi.Sub(lo)
	half := cut / 2
	// Cell counts are taken in float64 so no extent can overflow them. A
	// count that is not finite (a NaN or infinite position, which the
	// numerical guard reports as a lost atom) keeps one bin on its axis.
	var n [3]float64
	for d := range n {
		n[d] = math.Floor(span.Component(d) / half)
		if !(n[d] >= 1) || math.IsInf(n[d], 1) {
			n[d] = 1
		}
	}
	if cells := n[0] * n[1] * n[2]; cells > MaxBins {
		return &BinError{Lo: lo, Hi: hi, Bin: half, Cells: cells}
	}
	nb := [3]int{int(n[0]), int(n[1]), int(n[2])}
	inv := vec.New(float64(nb[0])/span.X, float64(nb[1])/span.Y, float64(nb[2])/span.Z)
	nbins := nb[0] * nb[1] * nb[2]

	binOf := func(p vec.V3) int {
		bx := clampInt(int((p.X-lo.X)*inv.X), 0, nb[0]-1)
		by := clampInt(int((p.Y-lo.Y)*inv.Y), 0, nb[1]-1)
		bz := clampInt(int((p.Z-lo.Z)*inv.Z), 0, nb[2]-1)
		return bx + nb[0]*(by+nb[1]*bz)
	}

	// Counting-sort binning. Each worker counts its contiguous atom
	// chunk, a serial prefix turns the per-(worker,bin) counts into
	// write cursors, and the same chunking scatters atoms into place.
	// Within a bin, cursor regions follow worker order and chunks are
	// ascending, so bin contents are ascending atom index for ANY
	// worker count — unlike the previous head-insertion linked list,
	// whose within-bin order was descending and inherently serial.
	l.binCnt = grow(l.binCnt, W*nbins)
	clear(l.binCnt)
	pool.Run("neigh_bin_count", total, func(w, alo, ahi int) {
		c := l.binCnt[w*nbins : (w+1)*nbins]
		for i := alo; i < ahi; i++ {
			c[binOf(st.Pos[i])]++
		}
	})
	l.binStart = grow(l.binStart, nbins+1)
	ofs := int32(0)
	for b := 0; b < nbins; b++ {
		l.binStart[b] = ofs
		for w := 0; w < W; w++ {
			c := &l.binCnt[w*nbins+b]
			n := *c
			*c = ofs
			ofs += n
		}
	}
	l.binStart[nbins] = ofs
	l.binAtoms = grow(l.binAtoms, total)
	l.binPos = grow(l.binPos, total)
	pool.Run("neigh_bin_fill", total, func(w, alo, ahi int) {
		cur := l.binCnt[w*nbins : (w+1)*nbins]
		for i := alo; i < ahi; i++ {
			b := binOf(st.Pos[i])
			l.binAtoms[cur[b]] = int32(i)
			l.binPos[cur[b]] = st.Pos[i]
			cur[b]++
		}
	})

	// Stencil: bin offsets whose nearest corner lies within the cutoff.
	binSize := vec.New(span.X/float64(nb[0]), span.Y/float64(nb[1]), span.Z/float64(nb[2]))
	reach := [3]int{
		minInt(int(cut/binSize.X)+1, nb[0]-1),
		minInt(int(cut/binSize.Y)+1, nb[1]-1),
		minInt(int(cut/binSize.Z)+1, nb[2]-1),
	}
	stencil := stencilLines(reach, binSize, cut2)

	// Per-atom scan: each worker owns a contiguous row range and appends
	// its rows to a private segment — worker 0, whose rows lead the flat
	// array, to the array itself; counters accumulate per worker and are
	// summed in worker order (integers, so the sum is exact).
	//
	// Bins consecutive in x are consecutive in binStart, so the bins one
	// stencil line selects are a single run of binAtoms/binPos. Runs are
	// visited in (dz, dy) order and a run is ascending in (dx, atom
	// index) — the order a bin-by-bin walk of the stencil gives.
	l.checksW = grow(l.checksW, W)
	l.pairsW = grow(l.pairsW, W)
	l.ghostW = grow(l.ghostW, W)
	clear(l.checksW)
	clear(l.pairsW)
	clear(l.ghostW)
	l.rowPtr = grow(l.rowPtr, st.N+1)
	l.reserve(st, W, span.X*span.Y*span.Z)
	halfMode := l.Mode == Half
	pool.Run("neigh_scan", st.N, func(w, rlo, rhi int) {
		var checks, pairs, ghostPairs int64
		out := l.segs[w][:0]
		if w == 0 {
			out = l.neigh // only worker 0 touches it during the scan
		}
		for i := rlo; i < rhi; i++ {
			l.rowPtr[i] = int32(len(out)) // segment-relative until concatenation
			pi := st.Pos[i]
			bx := clampInt(int((pi.X-lo.X)*inv.X), 0, nb[0]-1)
			by := clampInt(int((pi.Y-lo.Y)*inv.Y), 0, nb[1]-1)
			bz := clampInt(int((pi.Z-lo.Z)*inv.Z), 0, nb[2]-1)
			hasSpecial := len(st.Special[i]) > 0
			for _, o := range stencil {
				z := bz + o.dz
				y := by + o.dy
				if z < 0 || z >= nb[2] || y < 0 || y >= nb[1] {
					continue
				}
				rb := nb[0] * (y + nb[1]*z)
				klo := l.binStart[rb+maxInt(bx-o.rx, 0)]
				khi := l.binStart[rb+minInt(bx+o.rx, nb[0]-1)+1]
				atoms := l.binAtoms[klo:khi]
				pos := l.binPos[klo:khi]
				for k, j := range atoms {
					ji := int(j)
					// Half discipline: owned-owned stored once (ji < i
					// implies ji is owned).
					if ji == i || halfMode && ji < i {
						continue
					}
					checks++
					if pi.Sub(pos[k]).Norm2() > cut2 {
						continue
					}
					entry := j
					if hasSpecial {
						if kind, ok := st.IsSpecial(i, st.Tag[ji]); ok {
							if l.SpecialWeight == nil {
								continue
							}
							if _, keep := l.SpecialWeight(kind); !keep {
								continue
							}
							entry |= int32(kind) << KindShift
						}
					}
					out = append(out, entry)
					pairs++
					if ji >= st.N {
						ghostPairs++
					}
				}
			}
		}
		if w > 0 {
			l.segs[w] = out
		} else {
			l.neigh = out
		}
		l.checksW[w] = checks
		l.pairsW[w] = pairs
		l.ghostW[w] = ghostPairs
	})
	checks := int64(0)
	pairs := int64(0)
	ghostPairs := int64(0)
	for w := 0; w < W; w++ {
		checks += l.checksW[w]
		pairs += l.pairsW[w]
		ghostPairs += l.ghostW[w]
	}
	if pairs > math.MaxInt32 {
		panic("neighbor: pair count exceeds int32 flat index space")
	}
	// Append the other workers' segments in worker order, rebasing their
	// row offsets from segment-relative to flat.
	for w := 1; w < W; w++ {
		rlo, rhi := par.Chunk(st.N, W, w)
		if rlo == rhi {
			continue // the worker did not run; its segment is stale
		}
		base := int32(len(l.neigh))
		for i := rlo; i < rhi; i++ {
			l.rowPtr[i] += base
		}
		l.neigh = append(l.neigh, l.segs[w]...)
	}
	l.rowPtr[st.N] = int32(pairs)

	l.Stats.Builds++
	l.Stats.TotalPairs += pairs
	l.Stats.LastPairs = pairs
	l.Stats.LastOwnedPairs = pairs - ghostPairs
	l.Stats.LastGhostPairs = ghostPairs
	l.Stats.DistanceChecks += checks
	l.Rebuilds.Inc()
	if l.Span != nil {
		l.Span.Span(obs.CatKernel, "neigh_build", tObs, time.Since(tObs))
	}

	// Snapshot owned positions for the displacement trigger.
	if cap(l.lastPos) < st.N {
		l.lastPos = make([]vec.V3, st.N)
	}
	l.lastPos = l.lastPos[:st.N]
	copy(l.lastPos, st.Pos[:st.N])
	return nil
}

// NeighborsPerAtom returns the average neighbor count per owned atom of
// the most recent build, normalized to a full-list convention so it is
// comparable to Table 2 of the paper regardless of Mode.
func (l *List) NeighborsPerAtom(owned int) float64 {
	if owned == 0 {
		return 0
	}
	per := float64(l.Stats.LastPairs) / float64(owned)
	if l.Mode == Half {
		// A Half list stores each owned-owned pair once, but an
		// owned-ghost pair's mirror already lives on the ghost's owning
		// rank, so only the owned-owned count doubles under the full
		// convention. Doubling everything would overstate decomposed
		// runs against Table 2 by the surface/volume ratio.
		per = float64(2*l.Stats.LastOwnedPairs+l.Stats.LastGhostPairs) /
			float64(owned)
	}
	return per
}

// Row returns the entries of owned atom i in the most recent Build: the
// local indices of its neighbors, with the special kind in the top bits
// where SpecialWeight kept a special pair (see Decode). The slice
// aliases the list's storage and is valid until the next Build.
func (l *List) Row(i int) []int32 { return l.neigh[l.rowPtr[i]:l.rowPtr[i+1]] }

// RowPtr returns the CSR offsets of each owned row's entries in the
// flat pair-entry index space of the most recent Build: entry k of row
// i has flat index RowPtr()[i]+k, and RowPtr()[owned] is the total
// entry count.
func (l *List) RowPtr() []int32 { return l.rowPtr }

// Boundary is the split of a half list's owned targets that lets W
// workers scatter pair forces without changing a bit. The rows are cut
// into par.Chunk(owned, W, w) chunks. Every entry of row i points at an
// owned j > i or at a ghost, so an owned target's contributions come
// from rows at or before its own. A target is interior when all of them
// lie in its own chunk, whose worker therefore meets them in serial
// order; it is a boundary target when some row of an earlier chunk
// points at it. At W = 1 there are none.
type Boundary struct {
	// Flag[j] reports whether owned atom j is a boundary target.
	Flag []bool
	// Targets lists the boundary targets in ascending order. The entries
	// that point at Targets[t] are the slots k in [Ptr[t], Ptr[t+1]), in
	// ascending (row, entry) order — the order a serial pass touches the
	// target; Row[k] is the row of slot k.
	Targets, Ptr, Row []int32
	// Slot maps the flat index (RowPtr()[i]+position) of every entry that
	// points at a boundary target to its slot; other entries' values are
	// undefined. A kernel that stores per slot writes scattered and
	// reads each target's run in order.
	Slot []int32
}

// Boundary returns the boundary split of the most recent Build for W
// workers, computed serially on the first call and cached until the next
// Build or a call with another W. Full-mode lists, whose kernels never
// scatter, have no use for it.
func (l *List) Boundary(W int) *Boundary {
	b := &l.bnd
	if l.bndW == W {
		return b
	}
	l.bndW = W
	owned := len(l.rowPtr) - 1
	b.Flag = grow(b.Flag, owned)
	clear(b.Flag)
	b.Targets, b.Ptr, b.Row = b.Targets[:0], append(b.Ptr[:0], 0), b.Row[:0]
	if W <= 1 {
		return b
	}
	// Flag the targets a row of an earlier chunk points at (they lie past
	// that chunk's end) and count every owned target's entries.
	cnt := grow(l.bndCnt, owned)
	l.bndCnt = cnt
	clear(cnt)
	for w := 0; w < W; w++ {
		rlo, rhi := par.Chunk(owned, W, w)
		for _, e := range l.neigh[l.rowPtr[rlo]:l.rowPtr[rhi]] {
			if j := int(e & IdxMask); j < owned {
				cnt[j]++
				if j >= rhi {
					b.Flag[j] = true
				}
			}
		}
	}
	// Offsets over the boundary targets; cnt becomes the write cursor.
	off := int32(0)
	for j, f := range b.Flag {
		if f {
			b.Targets = append(b.Targets, int32(j))
			off += cnt[j]
			b.Ptr = append(b.Ptr, off)
			cnt[j] = off - cnt[j]
		}
	}
	b.Row = grow(b.Row, int(off))
	b.Slot = grow(b.Slot, len(l.neigh))
	for i := 0; i < owned; i++ {
		for e := l.rowPtr[i]; e < l.rowPtr[i+1]; e++ {
			if j := int(l.neigh[e] & IdxMask); j < owned && b.Flag[j] {
				t := cnt[j]
				b.Row[t], b.Slot[e] = int32(i), t
				cnt[j] = t + 1
			}
		}
	}
	return b
}

// stencilLine is one (dz, dy) line of the pruned bin stencil; the x
// offsets it keeps are -rx..rx.
type stencilLine struct{ dz, dy, rx int }

// stencilLines returns, in ascending (dz, dy) order, the lines of the
// stencil of bin offsets whose nearest corner lies within the cutoff.
// The gap to a bin is even and monotone in |dx|, so the dx a line keeps
// are a symmetric interval — the property that lets the scan read a
// line as one contiguous run of bins. It panics if a line is not.
func stencilLines(reach [3]int, binSize vec.V3, cut2 float64) []stencilLine {
	gap := func(o int, sz float64) float64 {
		if o < 0 {
			o = -o
		}
		if o == 0 {
			return 0
		}
		return float64(o-1) * sz
	}
	lines := make([]stencilLine, 0, 25)
	for dz := -reach[2]; dz <= reach[2]; dz++ {
		gz := gap(dz, binSize.Z)
		for dy := -reach[1]; dy <= reach[1]; dy++ {
			gy := gap(dy, binSize.Y)
			kept, rx := 0, -1
			for dx := -reach[0]; dx <= reach[0]; dx++ {
				gx := gap(dx, binSize.X)
				if gx*gx+gy*gy+gz*gz <= cut2 {
					kept++
					rx = maxInt(rx, maxInt(dx, -dx))
				}
			}
			if kept == 0 {
				continue
			}
			if kept != 2*rx+1 {
				panic("neighbor: a stencil line keeps a set of x offsets that is not a symmetric interval")
			}
			lines = append(lines, stencilLine{dz, dy, rx})
		}
	}
	return lines
}

// reserve empties the scan's output and sizes it before the scan runs,
// so that append does not grow it by doubling: the first build from the mean density (the
// atoms in a cutoff sphere, half of them stored by a Half list), later
// builds from what the previous one stored, both plus 20%.
func (l *List) reserve(st *atom.Store, W int, volume float64) {
	est := float64(len(l.neigh))
	if l.lastPos == nil {
		cut := l.BuildCutoff()
		per := float64(st.Total()) / volume * 4 / 3 * math.Pi * cut * cut * cut
		per = math.Min(per, float64(st.Total()))
		if l.Mode == Half {
			per /= 2
		}
		est = per * float64(st.N)
	}
	n := int(1.2 * est)
	if cap(l.neigh) < n {
		l.neigh = make([]int32, 0, n)
	}
	l.neigh = l.neigh[:0]
	if len(l.segs) != W {
		l.segs = make([][]int32, W)
	}
	for w := 1; w < W; w++ {
		if cap(l.segs[w]) < n/W {
			l.segs[w] = make([]int32, 0, n/W)
		}
	}
}

func bounds(pos []vec.V3) (lo, hi vec.V3) {
	if len(pos) == 0 {
		return vec.V3{}, vec.Splat(1)
	}
	lo, hi = pos[0], pos[0]
	for _, p := range pos[1:] {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		lo.Z = math.Min(lo.Z, p.Z)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
		hi.Z = math.Max(hi.Z, p.Z)
	}
	return lo, hi
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// grow resizes s to length n, reusing capacity; contents are undefined
// until written (callers clear or overwrite).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
