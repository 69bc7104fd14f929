package main

import (
	"math"
	"testing"
)

// Expected values are Python's statistics.mean, statistics.median and
// statistics.quantiles(xs, n=4) on the same inputs.
func TestDistMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs              []float64
		q1, m, q3, mean float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75, 2.5},
		{[]float64{1, 3}, 0.5, 2, 3.5, 2},
		{[]float64{3, 1, 2}, 1, 2, 3, 2},
		{[]float64{0.5, 0.25, 4, 8, 1}, 0.375, 1, 6, 2.75},
		{[]float64{7}, 7, 7, 7, 7},
	}
	for _, c := range cases {
		d := distOf(c.xs)
		if d.N != len(c.xs) || !near(d.Q1, c.q1) || !near(d.Median, c.m) || !near(d.Q3, c.q3) || !near(d.Mean, c.mean) {
			t.Errorf("distOf(%v) = %+v, want n=%d q1=%g median=%g q3=%g mean=%g", c.xs, d, len(c.xs), c.q1, c.m, c.q3, c.mean)
		}
	}
}

func TestDistSpreadAndEmpty(t *testing.T) {
	d := distOf([]float64{1, 2, 3, 4})
	if want := (3.75 - 1.25) / 2.5; !near(d.Spread(), want) {
		t.Errorf("spread = %g, want %g", d.Spread(), want)
	}
	if e := distOf(nil); e != (Dist{}) || e.Spread() != 0 {
		t.Errorf("empty dist = %+v", e)
	}
}

func TestDistOfLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	distOf(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("distOf reordered its input: %v", xs)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
