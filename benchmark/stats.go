package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs is
// not modified. An empty sample set has no percentile; it returns 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond counts the samples strictly above the p-th percentile's
// rank among n samples.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

// median is the 50th percentile by linear interpolation, matching the
// quartile convention below.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed exactly as Python's statistics.quantiles(xs, n=4) does (its
// default "exclusive" method): the i-th quartile sits at position
// i(n+1)/4 of the sorted samples, interpolated between neighbours.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// relIQR is the interquartile range as a share of the median.
func relIQR(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
