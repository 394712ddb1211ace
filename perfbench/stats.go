package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) with its default exclusive method, so the
// spreads printed here are the ones a Python check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// needed is the smallest sample count that leaves ten samples beyond the
// p-th percentile.
func needed(p float64) int {
	for n := 10; ; n++ {
		if beyond(n, p) >= 10 {
			return n
		}
	}
}

// percentile returns the nearest-rank p-th percentile of xs, and false
// when fewer than ten samples lie beyond it: such a percentile is not
// reported.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || beyond(len(xs), p) < 10 {
		return 0, false
	}
	s := sortedCopy(xs)
	return s[int(math.Ceil(p/100*float64(len(s))))-1], true
}
