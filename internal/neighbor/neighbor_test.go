package neighbor_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gomd/internal/atom"
	"gomd/internal/neighbor"
	"gomd/internal/par"
	"gomd/internal/rng"
	"gomd/internal/vec"
)

// randomStore fills a store with n atoms in an l-cube (no ghosts; the
// list is built over open boundaries here).
func randomStore(n int, l float64, seed uint64) *atom.Store {
	st := atom.New(n)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		st.Add(atom.Atom{
			Tag:  int64(i + 1),
			Type: 1,
			Pos:  vec.New(r.Range(0, l), r.Range(0, l), r.Range(0, l)),
		})
	}
	return st
}

// brutePairs returns the set of in-range unordered pairs.
func brutePairs(st *atom.Store, cut float64) map[[2]int]bool {
	out := map[[2]int]bool{}
	c2 := cut * cut
	for i := 0; i < st.N; i++ {
		for j := i + 1; j < st.N; j++ {
			if st.Pos[i].Sub(st.Pos[j]).Norm2() <= c2 {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

func listPairsHalf(l *neighbor.List) map[[2]int]bool {
	out := map[[2]int]bool{}
	for i := 0; i < len(l.RowPtr())-1; i++ {
		for _, e := range l.Row(i) {
			j, _ := neighbor.Decode(e)
			a, b := i, j
			if a > b {
				a, b = b, a
			}
			out[[2]int{a, b}] = true
		}
	}
	return out
}

// TestHalfListCompleteness: the half list must contain exactly the
// brute-force in-range pairs (within cutoff+skin).
func TestHalfListCompleteness(t *testing.T) {
	f := func(seed uint64) bool {
		st := randomStore(150, 6, seed)
		nl := neighbor.NewList(neighbor.Half, 1.5, 0.3)
		nl.Build(st)
		want := brutePairs(st, 1.8)
		got := listPairsHalf(nl)
		if len(want) != len(got) {
			return false
		}
		for p := range want {
			if !got[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFullListSymmetry: the full list stores each pair from both sides.
func TestFullListSymmetry(t *testing.T) {
	st := randomStore(200, 7, 3)
	nl := neighbor.NewList(neighbor.Full, 1.2, 0.2)
	nl.Build(st)
	for i := 0; i < len(nl.RowPtr())-1; i++ {
		for _, e := range nl.Row(i) {
			j, _ := neighbor.Decode(e)
			found := false
			for _, e2 := range nl.Row(j) {
				if k, _ := neighbor.Decode(e2); k == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("pair %d-%d not symmetric", i, j)
			}
		}
	}
	// Full list pair count = 2x brute pairs.
	if int(nl.Stats.LastPairs) != 2*len(brutePairs(st, 1.4)) {
		t.Errorf("full list pair count %d vs brute %d", nl.Stats.LastPairs, len(brutePairs(st, 1.4)))
	}
}

func TestRebuildTrigger(t *testing.T) {
	st := randomStore(50, 10, 1)
	nl := neighbor.NewList(neighbor.Half, 2, 0.5)
	if !nl.NeedsRebuild(st) {
		t.Fatal("fresh list must need building")
	}
	nl.Build(st)
	if nl.NeedsRebuild(st) {
		t.Fatal("just-built list must not need rebuild")
	}
	// Move an atom by less than skin/2: no rebuild.
	st.Pos[0] = st.Pos[0].Add(vec.New(0.2, 0, 0))
	if nl.NeedsRebuild(st) {
		t.Error("sub-half-skin displacement must not trigger")
	}
	// Beyond skin/2: rebuild.
	st.Pos[0] = st.Pos[0].Add(vec.New(0.2, 0, 0))
	if !nl.NeedsRebuild(st) {
		t.Error("past-half-skin displacement must trigger")
	}
	// Atom count change: rebuild.
	nl.Build(st)
	st.Add(atom.Atom{Tag: 51, Type: 1, Pos: vec.New(5, 5, 5)})
	if !nl.NeedsRebuild(st) {
		t.Error("atom count change must trigger")
	}
}

func TestSpecialExclusion(t *testing.T) {
	st := atom.New(3)
	st.Add(atom.Atom{Tag: 1, Type: 1, Pos: vec.New(0, 0, 0),
		Special: []atom.SpecialRef{{Tag: 2, Kind: atom.Special12}}})
	st.Add(atom.Atom{Tag: 2, Type: 1, Pos: vec.New(0.5, 0, 0),
		Special: []atom.SpecialRef{{Tag: 1, Kind: atom.Special12}}})
	st.Add(atom.Atom{Tag: 3, Type: 1, Pos: vec.New(0, 0.5, 0)})

	// Exclusion mode: special pair absent.
	nl := neighbor.NewList(neighbor.Half, 1, 0.1)
	nl.Build(st)
	for i := 0; i < len(nl.RowPtr())-1; i++ {
		for _, e := range nl.Row(i) {
			j, _ := neighbor.Decode(e)
			if (i == 0 && j == 1) || (i == 1 && j == 0) {
				t.Error("excluded special pair present in list")
			}
		}
	}

	// Keep mode: pair present with kind bits.
	nl2 := neighbor.NewList(neighbor.Half, 1, 0.1)
	nl2.SpecialWeight = func(atom.SpecialKind) (float64, bool) { return 0, true }
	nl2.Build(st)
	found := false
	for i := 0; i < len(nl2.RowPtr())-1; i++ {
		for _, e := range nl2.Row(i) {
			j, kind := neighbor.Decode(e)
			if (i == 0 && j == 1) || (i == 1 && j == 0) {
				found = true
				if kind != atom.Special12 {
					t.Errorf("special kind not encoded: %v", kind)
				}
			}
		}
	}
	if !found {
		t.Error("kept special pair missing from list")
	}
}

func TestNeighborsPerAtomNormalization(t *testing.T) {
	st := randomStore(400, 8, 5)
	half := neighbor.NewList(neighbor.Half, 1.5, 0.2)
	half.Build(st)
	full := neighbor.NewList(neighbor.Full, 1.5, 0.2)
	full.Build(st)
	h := half.NeighborsPerAtom(st.N)
	f := full.NeighborsPerAtom(st.N)
	if diff := h - f; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("half/full normalized density mismatch: %v vs %v", h, f)
	}
}

// TestNeighborsPerAtomWithGhosts: on a decomposed rank the Half list
// stores owned-ghost pairs once per side, so only owned-owned pairs may
// be doubled when normalizing to the full convention — the old
// unconditional x2 overstated the density whenever ghosts were present.
func TestNeighborsPerAtomWithGhosts(t *testing.T) {
	st := randomStore(300, 7, 11)
	r := rng.New(99)
	for g := 0; g < 150; g++ {
		st.AddGhost(atom.Ghost{
			Tag:  int64(10000 + g),
			Type: 1,
			Pos:  vec.New(r.Range(7, 8), r.Range(0, 7), r.Range(0, 7)),
		})
	}
	half := neighbor.NewList(neighbor.Half, 1.5, 0.2)
	half.Build(st)
	full := neighbor.NewList(neighbor.Full, 1.5, 0.2)
	full.Build(st)
	if half.Stats.LastGhostPairs == 0 {
		t.Fatal("setup produced no owned-ghost pairs; test is vacuous")
	}
	if got := half.Stats.LastOwnedPairs + half.Stats.LastGhostPairs; got != half.Stats.LastPairs {
		t.Fatalf("pair split %d+%d does not sum to %d",
			half.Stats.LastOwnedPairs, half.Stats.LastGhostPairs, half.Stats.LastPairs)
	}
	h := half.NeighborsPerAtom(st.N)
	f := full.NeighborsPerAtom(st.N)
	if diff := h - f; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("half/full mismatch with ghosts: %v vs %v", h, f)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	for _, kind := range []atom.SpecialKind{0, atom.Special12, atom.Special13, atom.Special14} {
		for _, idx := range []int{0, 1, 12345, neighbor.IdxMask} {
			e := int32(idx) | int32(kind)<<neighbor.KindShift
			gi, gk := neighbor.Decode(e)
			if gi != idx || gk != kind {
				t.Fatalf("decode(%d<<|%d) = (%d,%d)", kind, idx, gi, gk)
			}
		}
	}
}

func ExampleList_Build() {
	st := atom.New(2)
	st.Add(atom.Atom{Tag: 1, Type: 1, Pos: vec.New(0, 0, 0)})
	st.Add(atom.Atom{Tag: 2, Type: 1, Pos: vec.New(1, 0, 0)})
	nl := neighbor.NewList(neighbor.Half, 1.5, 0.3)
	nl.Build(st)
	fmt.Println(len(nl.Row(0)), nl.Stats.Builds)
	// Output: 1 1
}

func BenchmarkBuildLJDensity(b *testing.B) {
	st := randomStore(4000, 16.8, 7) // LJ-melt density
	nl := neighbor.NewList(neighbor.Half, 2.5, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl.Build(st)
	}
	b.ReportMetric(float64(nl.Stats.DistanceChecks)/float64(b.Elapsed().Nanoseconds()+1), "checks/ns")
}

func BenchmarkRebuildCheck(b *testing.B) {
	st := randomStore(4000, 16.8, 7)
	nl := neighbor.NewList(neighbor.Half, 2.5, 0.3)
	nl.Build(st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nl.NeedsRebuild(st) {
			b.Fatal("static store must not trigger")
		}
	}
}

// referenceBuild is the builder this package had before the list went
// flat, kept as the oracle for Build: one slice per row, filled by
// walking the full three-dimensional stencil one bin at a time. Build
// must store the same entries in the same order and count the same
// distance checks. It returns the rows and the counters of one build.
func referenceBuild(st *atom.Store, mode neighbor.Mode, cut float64,
	special func(atom.SpecialKind) (float64, bool)) ([][]int32, neighbor.Stats) {
	total := st.Total()
	cut2 := cut * cut
	lo, hi := vec.V3{}, vec.Splat(1)
	if total > 0 {
		lo, hi = st.Pos[0], st.Pos[0]
		for _, p := range st.Pos[1:total] {
			lo = vec.New(math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z))
			hi = vec.New(math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z))
		}
	}
	eps := 1e-9 * (1 + hi.Sub(lo).MaxComponent())
	lo = lo.Sub(vec.Splat(eps))
	hi = hi.Add(vec.Splat(eps))
	span := hi.Sub(lo)
	half := cut / 2
	nb := [3]int{max(1, int(span.X/half)), max(1, int(span.Y/half)), max(1, int(span.Z/half))}
	inv := vec.New(float64(nb[0])/span.X, float64(nb[1])/span.Y, float64(nb[2])/span.Z)
	clamp := func(v, hi int) int { return min(max(v, 0), hi) }
	binOf := func(p vec.V3) (x, y, z int) {
		return clamp(int((p.X-lo.X)*inv.X), nb[0]-1),
			clamp(int((p.Y-lo.Y)*inv.Y), nb[1]-1),
			clamp(int((p.Z-lo.Z)*inv.Z), nb[2]-1)
	}
	bins := make([][]int32, nb[0]*nb[1]*nb[2]) // ascending atom index within a bin
	for i := 0; i < total; i++ {
		x, y, z := binOf(st.Pos[i])
		b := x + nb[0]*(y+nb[1]*z)
		bins[b] = append(bins[b], int32(i))
	}

	binSize := vec.New(span.X/float64(nb[0]), span.Y/float64(nb[1]), span.Z/float64(nb[2]))
	reach := [3]int{
		min(int(cut/binSize.X)+1, nb[0]-1),
		min(int(cut/binSize.Y)+1, nb[1]-1),
		min(int(cut/binSize.Z)+1, nb[2]-1),
	}
	gap := func(o int, sz float64) float64 {
		if o > 0 {
			return float64(o-1) * sz
		}
		if o < 0 {
			return float64(-o-1) * sz
		}
		return 0
	}
	var stencil [][3]int
	for dz := -reach[2]; dz <= reach[2]; dz++ {
		for dy := -reach[1]; dy <= reach[1]; dy++ {
			for dx := -reach[0]; dx <= reach[0]; dx++ {
				gx, gy, gz := gap(dx, binSize.X), gap(dy, binSize.Y), gap(dz, binSize.Z)
				if gx*gx+gy*gy+gz*gz <= cut2 {
					stencil = append(stencil, [3]int{dx, dy, dz})
				}
			}
		}
	}

	rows := make([][]int32, st.N)
	var stats neighbor.Stats
	for i := 0; i < st.N; i++ {
		pi := st.Pos[i]
		bx, by, bz := binOf(pi)
		for _, o := range stencil {
			x, y, z := bx+o[0], by+o[1], bz+o[2]
			if x < 0 || x >= nb[0] || y < 0 || y >= nb[1] || z < 0 || z >= nb[2] {
				continue
			}
			for _, j := range bins[x+nb[0]*(y+nb[1]*z)] {
				ji := int(j)
				if ji == i || mode == neighbor.Half && ji < st.N && ji < i {
					continue
				}
				stats.DistanceChecks++
				if pi.Sub(st.Pos[ji]).Norm2() > cut2 {
					continue
				}
				entry := j
				if kind, ok := st.IsSpecial(i, st.Tag[ji]); ok {
					if special == nil {
						continue
					}
					if _, keep := special(kind); !keep {
						continue
					}
					entry |= int32(kind) << neighbor.KindShift
				}
				rows[i] = append(rows[i], entry)
				stats.LastPairs++
				if ji >= st.N {
					stats.LastGhostPairs++
				}
			}
		}
	}
	stats.Builds = 1
	stats.TotalPairs = stats.LastPairs
	stats.LastOwnedPairs = stats.LastPairs - stats.LastGhostPairs
	return rows, stats
}

// bondNeighbours marks every owned atom and its successor by tag as a
// special pair, cycling through the three kinds.
func bondNeighbours(st *atom.Store) {
	for i := 0; i+1 < st.N; i++ {
		kind := atom.SpecialKind(1 + i%3)
		st.Special[i] = append(st.Special[i], atom.SpecialRef{Tag: st.Tag[i+1], Kind: kind})
		st.Special[i+1] = append(st.Special[i+1], atom.SpecialRef{Tag: st.Tag[i], Kind: kind})
	}
}

// slab is randomStore squeezed to thickness lz in z, so the bin grid
// has int(lz/(cut/2)) layers there and the stencil's reach clamps.
func slab(n int, l, lz float64, seed uint64) *atom.Store {
	st := randomStore(n, l, seed)
	for i := range st.Pos[:st.N] {
		st.Pos[i].Z *= lz / l
	}
	return st
}

// TestBuildMatchesReference: the run-based scan over the flat list
// stores what the bin-by-bin reference stores — entries and their order
// — and reports the same counters, for both disciplines, with ghosts,
// with special pairs dropped, kept and tagged, at several worker counts,
// on degenerate grids, and again when the list is rebuilt.
func TestBuildMatchesReference(t *testing.T) {
	const cutoff, skin = 1.5, 0.3
	keepAll := func(atom.SpecialKind) (float64, bool) { return 0, true }
	keep14 := func(k atom.SpecialKind) (float64, bool) { return 0, k == atom.Special14 }
	systems := []struct {
		name string
		st   func() *atom.Store
	}{
		{"gas", func() *atom.Store { return randomStore(400, 7, 21) }},
		{"ghosts", func() *atom.Store { return ghostedStore(250, 5.5, cutoff+skin, 22) }},
		{"bonded", func() *atom.Store { st := ghostedStore(250, 5.5, cutoff+skin, 23); bondNeighbours(st); return st }},
		{"one-layer", func() *atom.Store { return slab(300, 7, 0.5, 24) }},
		{"two-layers", func() *atom.Store { return slab(300, 7, 2.0, 25) }},
		{"empty", func() *atom.Store { return atom.New(0) }},
		{"one-atom", func() *atom.Store { return randomStore(1, 7, 26) }},
	}
	specials := []struct {
		name string
		fn   func(atom.SpecialKind) (float64, bool)
	}{{"drop-all", nil}, {"keep-all", keepAll}, {"keep-14", keep14}}
	for _, sys := range systems {
		for _, mode := range []neighbor.Mode{neighbor.Half, neighbor.Full} {
			for _, sp := range specials {
				if sp.fn != nil && sys.name != "bonded" {
					continue
				}
				for _, w := range []int{1, 2, 3, 7} {
					st := sys.st()
					nl := neighbor.NewList(mode, cutoff, skin)
					nl.SpecialWeight = sp.fn
					pool := par.NewPool(w)
					nl.Pool = pool
					for build := 1; build <= 2; build++ {
						id := fmt.Sprintf("%s mode=%v %s workers=%d build=%d", sys.name, mode, sp.name, w, build)
						before := nl.Stats
						nl.Build(st)
						rows, want := referenceBuild(st, mode, cutoff+skin, sp.fn)
						want.Builds += before.Builds
						want.TotalPairs += before.TotalPairs
						want.DistanceChecks += before.DistanceChecks
						if nl.Stats != want {
							t.Errorf("%s: stats %+v, reference %+v", id, nl.Stats, want)
						}
						if got := len(nl.RowPtr()) - 1; got != st.N {
							t.Fatalf("%s: %d rows for %d owned atoms", id, got, st.N)
						}
						for i := range rows {
							if !slices.Equal(nl.Row(i), rows[i]) {
								t.Fatalf("%s: row %d is %v, reference %v", id, i, nl.Row(i), rows[i])
							}
						}
						// Move everything a little so the second build
						// bins and stores something different.
						for i := range st.Pos {
							st.Pos[i] = st.Pos[i].Add(vec.New(0.05, -0.03, 0.02).Scale(float64(i%5) - 2))
						}
					}
					pool.Close()
				}
			}
		}
	}
}

// latticeStore is a jittered sc lattice of side n and spacing a, its atoms
// indexed in lattice order (x fastest, z slowest) or, shuffled, in a
// random order that leaves no index locality.
func latticeStore(n int, a float64, shuffled bool, seed uint64) *atom.Store {
	r := rng.New(seed)
	pos := make([]vec.V3, n*n*n)
	for i := range pos {
		jit := vec.New(r.Range(-0.1, 0.1), r.Range(-0.1, 0.1), r.Range(-0.1, 0.1))
		pos[i] = vec.New(float64(i%n), float64(i/n%n), float64(i/(n*n))).Add(jit).Scale(a)
	}
	if shuffled {
		for i := len(pos) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			pos[i], pos[j] = pos[j], pos[i]
		}
	}
	st := atom.New(len(pos))
	for i, p := range pos {
		st.Add(atom.Atom{Tag: int64(i + 1), Type: 1, Pos: p})
	}
	return st
}

// refBoundary is List.Boundary by its definition, entry by entry: an
// owned target is a boundary target when a row of an earlier par.Chunk
// chunk points at it, and its entries are listed in (row, entry) order.
//
// It returns the flat index of each slot's entry beside the reference.
func refBoundary(t *testing.T, nl *neighbor.List, W int) (neighbor.Boundary, []int32) {
	t.Helper()
	rp := nl.RowPtr()
	owned := len(rp) - 1
	chunk := make([]int, owned)
	for w := 0; w < W; w++ {
		lo, hi := par.Chunk(owned, W, w)
		for i := lo; i < hi; i++ {
			chunk[i] = w
		}
	}
	into := make([][][2]int32, owned)
	ref := neighbor.Boundary{Flag: make([]bool, owned), Ptr: []int32{0}}
	var idx []int32
	for i := 0; i < owned; i++ {
		for k, e := range nl.Row(i) {
			j, _ := neighbor.Decode(e)
			if j >= owned {
				continue
			}
			if j <= i {
				t.Fatalf("half list: row %d holds owned %d", i, j)
			}
			into[j] = append(into[j], [2]int32{int32(i), rp[i] + int32(k)})
			if chunk[i] < chunk[j] {
				ref.Flag[j] = true
			}
		}
	}
	for j, f := range ref.Flag {
		if !f {
			continue
		}
		ref.Targets = append(ref.Targets, int32(j))
		for _, e := range into[j] {
			ref.Row = append(ref.Row, e[0])
			idx = append(idx, e[1])
		}
		ref.Ptr = append(ref.Ptr, int32(len(ref.Row)))
	}
	return ref, idx
}

// TestBoundaryMatchesReference: List.Boundary gives the flags and the
// restricted transpose of its definition on lattice-ordered and
// index-shuffled stores, with ghosts, with special-kind bits in the
// entries, for W up to more workers than owned atoms, whichever W was
// asked before, and again after a rebuild. At W = 1 nothing is a
// boundary target; with no index locality nearly every target past the
// first chunk is.
func TestBoundaryMatchesReference(t *testing.T) {
	const cutoff, skin = 1.5, 0.3
	keepAll := func(atom.SpecialKind) (float64, bool) { return 0, true }
	systems := []struct {
		name    string
		st      func() *atom.Store
		special func(atom.SpecialKind) (float64, bool)
	}{
		{"lattice", func() *atom.Store { return latticeStore(7, 1, false, 41) }, nil},
		{"shuffled", func() *atom.Store { return latticeStore(7, 1, true, 42) }, nil},
		{"ghosts", func() *atom.Store { return ghostedStore(250, 5.5, cutoff+skin, 43) }, nil},
		{"special-kinds", func() *atom.Store { st := ghostedStore(250, 5.5, cutoff+skin, 44); bondNeighbours(st); return st }, keepAll},
		{"five-atoms", func() *atom.Store { return randomStore(5, 1.2, 45) }, nil},
		{"empty", func() *atom.Store { return atom.New(0) }, nil},
	}
	share := map[string]float64{}
	for _, sys := range systems {
		st := sys.st()
		nl := neighbor.NewList(neighbor.Half, cutoff, skin)
		nl.SpecialWeight = sys.special
		for build := 1; build <= 2; build++ {
			nl.Build(st)
			if sys.special != nil && !hasKindBits(nl) {
				t.Fatalf("%s: no entry carries a special kind", sys.name)
			}
			for _, w := range []int{1, 2, 3, 7, 2, 1} {
				id := fmt.Sprintf("%s build=%d W=%d", sys.name, build, w)
				got := nl.Boundary(w)
				want, idx := refBoundary(t, nl, w)
				if !slices.Equal(got.Flag, want.Flag) || !slices.Equal(got.Targets, want.Targets) ||
					!slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Row, want.Row) {
					t.Fatalf("%s: Boundary %+v, reference %+v", id, *got, want)
				}
				for k, e := range idx {
					if got.Slot[e] != int32(k) {
						t.Fatalf("%s: entry %d has slot %d, reference %d", id, e, got.Slot[e], k)
					}
				}
				if w == 1 && len(got.Targets) != 0 {
					t.Fatalf("%s: %d boundary targets at one worker", id, len(got.Targets))
				}
				if w == 2 && st.N > 0 {
					share[sys.name] = float64(len(got.Targets)) / float64(st.N)
				}
			}
			for i := range st.Pos {
				st.Pos[i] = st.Pos[i].Add(vec.New(0.05, -0.03, 0.02).Scale(float64(i%5) - 2))
			}
		}
	}
	// At W=2 the shuffled store makes nearly every target past chunk 0 a
	// boundary target; the lattice only the layers next to the cut.
	if share["shuffled"] < 0.45 || share["lattice"] > share["shuffled"]/2 {
		t.Errorf("boundary share at W=2: shuffled %.2f, lattice %.2f", share["shuffled"], share["lattice"])
	}
}

// hasKindBits reports whether any entry of nl carries a special kind.
func hasKindBits(nl *neighbor.List) bool {
	for i := 0; i < len(nl.RowPtr())-1; i++ {
		for _, e := range nl.Row(i) {
			if _, kind := neighbor.Decode(e); kind != 0 {
				return true
			}
		}
	}
	return false
}

// TestBuildRefusesHugeBinGrid: one atom flung to x = 1e12 would bin the
// bounding box into ~1e12 cells. Build refuses it with a typed
// *BinError naming the extents and the bin size, and allocates almost
// nothing on the way; before the cap, make panicked with an untyped
// runtime error (or a wide box ran the host out of memory).
func TestBuildRefusesHugeBinGrid(t *testing.T) {
	st := atom.New(2)
	st.Add(atom.Atom{Tag: 1, Type: 1, Pos: vec.New(0, 0, 0)})
	st.Add(atom.Atom{Tag: 2, Type: 1, Pos: vec.New(1e12, 1, 1)})
	nl := neighbor.NewList(neighbor.Half, 2.5, 0.3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := nl.Build(st)
	runtime.ReadMemStats(&after)
	var be *neighbor.BinError
	if !errors.As(err, &be) {
		t.Fatalf("Build = %v, want a *neighbor.BinError", err)
	}
	if be.Hi.X < 1e12 || be.Bin != 1.4 || be.Cells <= neighbor.MaxBins {
		t.Errorf("BinError = %+v, want the 1e12 extent, bin 1.4 and a cell count over %d", be, neighbor.MaxBins)
	}
	for _, want := range []string{"1e+12", "bins of 1.4", "over the limit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error text lacks %q: %v", want, err)
		}
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refused Build allocated %d bytes, want < 1 MiB", got)
	}
	if nl.Stats.Builds != 0 {
		t.Errorf("refused Build counted as a build: %+v", nl.Stats)
	}

	// The same store within bounds builds as before.
	st.Pos[1] = vec.New(2, 1, 1)
	if err := nl.Build(st); err != nil {
		t.Fatalf("Build of a compact store: %v", err)
	}
	if nl.Stats.LastPairs != 1 {
		t.Errorf("pairs = %d, want 1", nl.Stats.LastPairs)
	}
}
