package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark trusts it: with fewer, the "percentile" is one of a handful of
// outliers and moves with whichever request happened to be slowest.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, and whether at least minBeyond samples lie beyond it. An empty
// sample yields (0, false).
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := nearestRank(n, p)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// nearestRank is ceil(p/100 · n), computed so that a product that is
// mathematically whole (99.9% of 10000) is not pushed up by rounding.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// highestSupported returns the highest of the reported percentiles that
// has at least minBeyond samples beyond it in a sample of n, or 0 if none.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if n-nearestRank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// sample is a set of measurements in one unit.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// p returns the nearest-rank percentile of s (0 when s is empty).
func (s sample) p(q float64) float64 {
	v, _ := percentile(s.sorted(), q)
	return v
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// ratio is num/den, or 0 when den is 0 (an idle layer reports 0, not NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
