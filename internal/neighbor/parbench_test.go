package neighbor_test

import (
	"fmt"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/neighbor"
	"gomd/internal/par"
	"gomd/internal/vec"
)

// ghostedStore builds a random periodic box of n owned atoms plus
// explicit ghost images of every owned atom whose periodic copy lands
// within rng of the domain, replicating what core.SerialBackend
// constructs for a serial periodic run.
func ghostedStore(n int, l, rng float64, seed uint64) *atom.Store {
	st := randomStore(n, l, seed)
	for i := 0; i < n; i++ {
		p := st.Pos[i]
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					g := vec.New(p.X+float64(dx)*l, p.Y+float64(dy)*l, p.Z+float64(dz)*l)
					if g.X < -rng || g.X > l+rng ||
						g.Y < -rng || g.Y > l+rng ||
						g.Z < -rng || g.Z > l+rng {
						continue
					}
					st.AddGhost(atom.Ghost{Tag: st.Tag[i], Type: 1, Pos: g})
				}
			}
		}
	}
	return st
}

// bruteSet lists every stored (row, neighbor-index) pair an exact O(N^2)
// scan over owned rows and all owned+ghost candidates would produce:
// Half stores owned-owned once (j > i) and owned-ghost from the owned
// side; Full stores every in-range j != i.
func bruteSet(st *atom.Store, mode neighbor.Mode, cut float64) map[[2]int]bool {
	out := map[[2]int]bool{}
	c2 := cut * cut
	for i := 0; i < st.N; i++ {
		for j := 0; j < st.Total(); j++ {
			if j == i {
				continue
			}
			if mode == neighbor.Half && j < st.N && j < i {
				continue
			}
			if st.Pos[i].Sub(st.Pos[j]).Norm2() <= c2 {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

func listSet(l *neighbor.List) map[[2]int]bool {
	out := map[[2]int]bool{}
	for i := 0; i < len(l.RowPtr())-1; i++ {
		for _, e := range l.Row(i) {
			j, _ := neighbor.Decode(e)
			out[[2]int{i, j}] = true
		}
	}
	return out
}

// TestListMatchesBruteForceWithGhosts: across randomized boxes, both list
// disciplines, and worker counts, the cell-binned build must produce
// exactly the brute-force reference pair set — ghosts included — and the
// stored rows must be bit-identical to the serial (workers=1) build.
func TestListMatchesBruteForceWithGhosts(t *testing.T) {
	const cutoff, skin = 1.5, 0.3
	rng := cutoff + skin
	for _, mode := range []neighbor.Mode{neighbor.Half, neighbor.Full} {
		for seed := uint64(1); seed <= 6; seed++ {
			n := 80 + int(seed)*23
			var serialRows [][]int32
			for _, w := range []int{1, 3} {
				st := ghostedStore(n, 5.5, rng, seed)
				nl := neighbor.NewList(mode, cutoff, skin)
				pool := par.NewPool(w)
				nl.Pool = pool
				nl.Build(st)

				want := bruteSet(st, mode, rng)
				got := listSet(nl)
				if len(got) != len(want) {
					t.Errorf("mode=%v seed=%d workers=%d: %d stored pairs, brute force has %d",
						mode, seed, w, len(got), len(want))
				}
				for p := range want {
					if !got[p] {
						t.Errorf("mode=%v seed=%d workers=%d: missing pair %v", mode, seed, w, p)
					}
				}
				for p := range got {
					if !want[p] {
						t.Errorf("mode=%v seed=%d workers=%d: spurious pair %v", mode, seed, w, p)
					}
				}

				if w == 1 {
					serialRows = make([][]int32, st.N)
					for i := range serialRows {
						serialRows[i] = append([]int32(nil), nl.Row(i)...)
					}
				} else {
					for i := range serialRows {
						if len(nl.Row(i)) != len(serialRows[i]) {
							t.Fatalf("mode=%v seed=%d: row %d length differs across workers", mode, seed, i)
						}
						for k, e := range nl.Row(i) {
							if e != serialRows[i][k] {
								t.Fatalf("mode=%v seed=%d: row %d entry %d differs across workers: %d vs %d",
									mode, seed, i, k, e, serialRows[i][k])
							}
						}
					}
				}
				pool.Close()
			}
		}
	}
}

// BenchmarkNeighBuild times the parallel counting-sort build on a
// 32k-atom melt across worker counts.
func BenchmarkNeighBuild(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			st := randomStore(32000, 33.6, 7) // LJ-melt density
			nl := neighbor.NewList(neighbor.Half, 2.5, 0.3)
			pool := par.NewPool(w)
			defer pool.Close()
			nl.Pool = pool
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nl.Build(st)
			}
			b.ReportMetric(float64(nl.Stats.DistanceChecks)/float64(b.Elapsed().Nanoseconds()+1), "checks/ns")
		})
	}
}
