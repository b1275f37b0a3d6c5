package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50}, {100, 90, 90}, {100, 99, 99}, {100, 100, 100},
		{10, 50, 5}, {10, 99, 10}, {3, 50, 2}, {1, 99, 1},
		{1000, 99, 990}, {999, 99, 990}, {7, 0.1, 1},
	} {
		got, _ := percentile(seq(tc.n), tc.p)
		if got != tc.want {
			t.Errorf("p%g of 1..%d = %g, want %g", tc.p, tc.n, got, tc.want)
		}
	}
	if v, ok := percentile(nil, 50); v != 0 || ok {
		t.Errorf("empty sample: got (%g, %v), want (0, false)", v, ok)
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},  // rank 90, 10 beyond
		{99, 90, false},  // rank 90, 9 beyond
		{100, 99, false}, // rank 99, 1 beyond
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{19, 50, false},  // rank 10, 9 beyond
		{100000, 99.9, true},
	} {
		if _, ok := percentile(seq(tc.n), tc.p); ok != tc.want {
			t.Errorf("p%g of %d samples supported = %v, want %v", tc.p, tc.n, ok, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}
