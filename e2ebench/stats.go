package main

import (
	"math"
	"sort"
)

// Dist summarizes repeated measurements of one quantity: the sample
// count, the mean, the median, and the first and third quartiles. Quartiles follow
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// the spreads printed here match the ones a reader recomputes from the
// raw samples.
type Dist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Spread is the interquartile distance as a share of the median (0 when
// the median is 0).
func (d Dist) Spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

// distOf summarizes xs without modifying it. An empty input yields the
// zero Dist.
func distOf(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quartiles(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return Dist{N: len(s), Mean: sum / float64(len(s)), Median: median(s), Q1: q[0], Q3: q[2]}
}

// median of sorted values.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted values by the exclusive method of Python's
// statistics.quantiles with n=4. A single value is its own quartiles.
func quartiles(s []float64) [3]float64 {
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out
}
