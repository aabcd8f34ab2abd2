package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, including its extrapolation for
// two samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{10.5, 2.25, 7.0, 3.5, 9.75, 1.0, 4.0}, 2.25, 9.75},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{19, 0, 0, false},    // even the median would leave 9 beyond
		{20, 50, 10, true},   // rank 10 of 20 leaves 10 beyond
		{100, 90, 90, true},  // p95 would leave only 5
		{200, 95, 190, true}, // p99 would leave only 2
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		pct, val, ok := tail(seq(c.n))
		if pct != c.pct || val != c.val || ok != c.ok {
			t.Errorf("tail of %d samples = p%v %v %v; want p%v %v %v", c.n, pct, val, ok, c.pct, c.val, c.ok)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "engine.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.run", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.run", Start: 30, End: 60},        // overlaps the first child
		{ID: 4, Parent: 1, Name: "trace.generate", Start: 90, End: 120}, // runs past its parent
	}
	got := map[string]float64{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st.SelfMS * 1e6
	}
	// engine.run: 100 minus the union [10,60] and [90,100] = 100-60 = 40.
	want := map[string]float64{"engine.run": 40, "core.run": 60, "trace.generate": 30}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("self time of %s = %v ns, want %v", k, got[k], v)
		}
	}
}
