package main

import "sort"

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// summary is a metric's value over the measured slices: the median is what
// is reported and gated, the quartiles and count say how far to trust it.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	xs = append([]float64(nil), xs...)
	return summary{Median: median(xs), Q1: percentile(xs, 0.25), Q3: percentile(xs, 0.75), N: len(xs)}
}

// usOf converts nanosecond samples to microseconds.
func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
