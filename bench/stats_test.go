package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4) and
	// statistics.quantiles(xs, n=10)[-1], exclusive method.
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
		p90         float64
	}{
		{xs: []float64{1, 2}, q1: 0.75, med: 1.5, q3: 2.25, p90: 2.7},
		{xs: []float64{3, 1, 2}, q1: 1, med: 2, q3: 3, p90: 3.6},
		{xs: []float64{1, 2, 3, 4}, q1: 1.25, med: 2.5, q3: 3.75, p90: 4.5},
		{xs: []float64{5, 1, 4, 2, 3, 9, 7}, q1: 2, med: 4, q3: 7, p90: 9.4},
		{xs: []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, q1: 27.5, med: 55, q3: 82.5, p90: 99},
	} {
		q1, med, q3 := quartiles(tc.xs)
		p90 := quantile(tc.xs, 0.9)
		for _, c := range []struct {
			name      string
			got, want float64
		}{{"q1", q1, tc.q1}, {"median", med, tc.med}, {"q3", q3, tc.q3}, {"p90", p90, tc.p90}} {
			if math.Abs(c.got-c.want) > 1e-9 {
				t.Errorf("%v: %s = %g, want %g", tc.xs, c.name, c.got, c.want)
			}
		}
	}
}

func TestQuartilesEdgeCases(t *testing.T) {
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("one sample: got %g %g %g, want 7 7 7", q1, med, q3)
	}
	if _, med, _ := quartiles(nil); !math.IsNaN(med) {
		t.Errorf("no samples: median %g, want NaN", med)
	}
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quartiles reordered its input: %v", xs)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	for _, tc := range []struct {
		name     string
		span     interval
		children []interval
		want     time.Duration
	}{
		{"no children", ms(0, 100), nil, 100 * time.Millisecond},
		{"disjoint", ms(0, 100), []interval{ms(10, 20), ms(50, 70)}, 70 * time.Millisecond},
		{"overlapping count once", ms(0, 100), []interval{ms(10, 40), ms(30, 60), ms(35, 50)}, 50 * time.Millisecond},
		{"touching", ms(0, 100), []interval{ms(10, 20), ms(20, 30)}, 80 * time.Millisecond},
		{"clipped to the span", ms(0, 100), []interval{ms(-20, 10), ms(90, 150)}, 80 * time.Millisecond},
		{"fully covered", ms(0, 100), []interval{ms(0, 60), ms(40, 100)}, 0},
		{"outside", ms(0, 100), []interval{ms(200, 300)}, 100 * time.Millisecond},
	} {
		if got := selfTime(tc.span, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}
