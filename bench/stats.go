package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so a
// spread computed here matches one computed from the same values with
// Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail reports the highest of tailPercentiles that leaves at least ten
// samples beyond it, with its nearest-rank value. ok is false when xs
// has too few samples for even the median to qualify.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		// Nearest rank, 1-based; the epsilon keeps 99.9% of 10000 at 9990
		// despite 99.9 having no exact binary form.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank < 1 || n-rank < 10 {
			continue
		}
		return p, sorted(xs)[rank-1], true
	}
	return 0, 0, false
}
