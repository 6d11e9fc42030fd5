package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// summary is a timing's distribution over one run: median, first and
// third quartile, and sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// quartiles returns Q1, the median and Q3 of xs, interpolated as
// Python's statistics.quantiles(xs, n=4) does (its default "exclusive"
// method), so spreads read the same as the tools that judge them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return quantile(xs, 0.25), median(xs), quantile(xs, 0.75)
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the p-quantile of xs by the exclusive method: position
// h = p·(n+1) in the sorted samples, interpolated linearly between the
// neighbours j = ⌊h⌋ and j+1, with j clamped to [1, n-1] so that
// positions beyond either end extrapolate from the outermost pair, as
// Python does.
func quantile(xs []float64, p float64) float64 {
	switch len(xs) {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := slices.Sorted(slices.Values(xs))
	h := p * float64(len(s)+1)
	j := min(max(int(math.Floor(h)), 1), len(s)-1)
	d := h - float64(j)
	return s[j-1]*(1-d) + s[j]*d
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a / b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nsPer is a duration in nanoseconds per operation.
func nsPer(d time.Duration, ops float64) float64 { return ratio(float64(d.Nanoseconds()), ops) }

// tailPercentiles are the percentiles a tail may be reported at.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile is the highest of tailPercentiles that leaves at least
// ten of n samples beyond it, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// interval is a [start, end) stretch of time.
type interval struct{ start, end time.Duration }

// covered is the length of the union of the intervals, each clipped to
// within.
func covered(within interval, ivs []interval) time.Duration {
	var clip []interval
	for _, iv := range ivs {
		s, e := max(iv.start, within.start), min(iv.end, within.end)
		if e > s {
			clip = append(clip, interval{s, e})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].start < clip[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clip {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clip) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover;
// overlapping children count once.
func selfTime(span interval, children []interval) time.Duration {
	return span.end - span.start - covered(span, children)
}
