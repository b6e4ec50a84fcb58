package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for an even
// count); NaN for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) does (the "exclusive" method),
// which is what the acceptance procedure computes spreads with. It
// needs at least two values; with fewer both quartiles are the value.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after the clamp, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of vs as a share of its median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(median(vs))
}

// usOf converts nanoseconds to microseconds.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// ratio is a/b, or missing when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return missing
	}
	return a / b
}
