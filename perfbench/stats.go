package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a percentile with fewer samples beyond it is one outlier away from a
// different number, so it is not reported.
const minBeyond = 10

// samplesFor is the smallest sample count whose q-quantile has at least
// minBeyond samples above it.
func samplesFor(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}

// quantile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses, with an error naming the shortfall, when fewer than
// minBeyond samples lie above the quantile's rank.
func quantile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %v outside (0,1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d (at least %d samples)",
			q*100, n, n-rank, minBeyond, samplesFor(q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of xs (the mean of the two middle values for an
// even count); it is used for per-run aggregates over repetitions, where
// the ten-beyond rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
