package neighbor

import (
	"testing"

	"gomd/internal/vec"
)

// TestStencilLinesAreSymmetricIntervals: Build reads the bins one
// (dz, dy) stencil line selects as a single run, which is right only if
// the x offsets the line keeps are exactly -rx..rx. Enumerate the
// offsets the distance criterion keeps, over cubic and skewed bins and
// every reach a clamped grid can produce, and compare with stencilLines.
func TestStencilLinesAreSymmetricIntervals(t *testing.T) {
	gap := func(o int, sz float64) float64 {
		if o < 0 {
			o = -o
		}
		if o == 0 {
			return 0
		}
		return float64(o-1) * sz
	}
	const cut = 2.8
	sizes := []float64{cut / 2, 1.01 * cut / 2, 1.3 * cut / 2, 1.99 * cut / 2, 0.7, 5}
	for _, sx := range sizes {
		for _, sy := range sizes {
			for _, sz := range sizes {
				for _, clampTo := range []int{0, 1, 2, 9} {
					binSize := vec.New(sx, sy, sz)
					reach := [3]int{
						minInt(int(cut/sx)+1, clampTo),
						minInt(int(cut/sy)+1, clampTo+1),
						minInt(int(cut/sz)+1, clampTo),
					}
					lines := stencilLines(reach, binSize, cut*cut)
					next := 0
					for dz := -reach[2]; dz <= reach[2]; dz++ {
						for dy := -reach[1]; dy <= reach[1]; dy++ {
							var kept []int
							for dx := -reach[0]; dx <= reach[0]; dx++ {
								gx, gy, gz := gap(dx, sx), gap(dy, sy), gap(dz, sz)
								if gx*gx+gy*gy+gz*gz <= cut*cut {
									kept = append(kept, dx)
								}
							}
							if len(kept) == 0 {
								continue
							}
							rx := kept[len(kept)-1]
							for k, dx := range kept {
								if dx != -rx+k {
									t.Fatalf("bins %v reach %v line (dz=%d, dy=%d) keeps %v: not a symmetric interval",
										binSize, reach, dz, dy, kept)
								}
							}
							if next == len(lines) || lines[next] != (stencilLine{dz, dy, rx}) {
								t.Fatalf("bins %v reach %v: line %d of stencilLines %v, want {%d %d %d}",
									binSize, reach, next, lines, dz, dy, rx)
							}
							next++
						}
					}
					if next != len(lines) {
						t.Fatalf("bins %v reach %v: stencilLines has %d lines, enumeration %d", binSize, reach, len(lines), next)
					}
				}
			}
		}
	}
}
