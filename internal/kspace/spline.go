package kspace

import "math"

// bsplineWeight evaluates the cardinal B-spline M_order at x (support
// (0, order)) by the Cox-de Boor recurrence
//
//	M_k(x) = x/(k-1)·M_{k-1}(x) + (k-x)/(k-1)·M_{k-1}(x-1)
//
// laid out as a triangle: node (k, j) is M_k(x-j), each row built from
// the one below, so an order-5 weight costs 15 nodes where the plain
// recursion makes 31 calls. Every node applies the recursion's
// expressions to the recursion's operands (x-j is formed by subtracting
// 1 j times, as the recursive calls do), so the weights are the same to
// the last bit — the zero stencils at half-integer mesh coordinates
// included, see TestSplineWeightsHalfIntegerStencil.
func bsplineWeight(order int, x float64) float64 {
	var xs, m [8]float64
	for j := 0; j < order; j++ {
		xs[j] = x
		if !(x <= 0 || x >= 1) {
			m[j] = 1
		}
		x -= 1
	}
	for k := 2; k <= order; k++ {
		fk := float64(k)
		for j := 0; j <= order-k; j++ {
			xj := xs[j]
			if xj <= 0 || xj >= fk {
				m[j] = 0
			} else {
				m[j] = xj/(fk-1)*m[j] + (fk-xj)/(fk-1)*m[j+1]
			}
		}
	}
	return m[0]
}

// splineWeights computes the order-point charge-assignment stencil for a
// particle at fractional mesh coordinate u on an n-point periodic mesh.
// It fills w with M_order weights and idx with the wrapped mesh indices,
// returning the stencil size (== order except at exact grid coincidences,
// where an endpoint weight is zero).
func splineWeights(u float64, n, order int, w *[8]float64, idx *[8]int) int {
	half := float64(order) / 2
	p0 := int(math.Ceil(u - half))
	count := 0
	for t := 0; t < order; t++ {
		p := p0 + t
		x := u - float64(p) + half
		wt := bsplineWeight(order, x)
		if wt == 0 {
			continue
		}
		m := p % n
		if m < 0 {
			m += n
		}
		w[count] = wt
		idx[count] = m
		count++
	}
	return count
}
