package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread the acceptance check bounds.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (percentile(xs, 75) - percentile(xs, 25)) / math.Abs(m)
}

// highPercentile picks the highest percentile of a sample of n that
// still has at least ten samples beyond it (the choosing-metrics rule),
// from the usual ladder; 50 when the sample supports nothing higher.
func highPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func best(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	b := xs[0]
	for _, x := range xs[1:] {
		if x < b {
			b = x
		}
	}
	return b
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
