package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs: the
// smallest sample with at least p of all samples at or below it. xs need not
// be sorted; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based index of the nearest-rank p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// tailSupported reports whether n samples support the p-quantile: at least
// ten samples must lie beyond it, or one slow outlier decides the number.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-1-rank(n, p) >= 10
}

// median returns the median of xs (the mean of the middle pair for an even
// count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// spreads quoted here match the ones an external checker computes. It needs
// at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// iqr is the distance between the quartiles of xs.
func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}
