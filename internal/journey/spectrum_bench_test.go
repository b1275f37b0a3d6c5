package journey

import (
	"fmt"
	"testing"

	"tvgwait/internal/gen"
	"tvgwait/internal/tvg"
)

// benchLadder8 is the acceptance ladder: K=8 rungs spanning the whole
// expressivity chain, nowait to wait.
func benchLadder8(b *testing.B) Ladder {
	b.Helper()
	ladder, err := NewLadder(
		NoWait(), BoundedWait(1), BoundedWait(2), BoundedWait(4),
		BoundedWait(8), BoundedWait(16), BoundedWait(32), Wait(),
	)
	if err != nil {
		b.Fatal(err)
	}
	return ladder
}

// benchRungs splits a ladder into its one-rung ladders.
func benchRungs(b *testing.B, ladder Ladder) []Ladder {
	b.Helper()
	rungs := make([]Ladder, ladder.Len())
	for r := range rungs {
		rungs[r] = rungOf(b, ladder.Mode(r))
	}
	return rungs
}

// BenchmarkWaitSpectrum256 is the headline spectrum benchmark: all
// eight rung matrices of the K=8 ladder at N=256 edge-Markovian in one
// sweep per 64-source block. The acceptance target is ≥5× over
// BenchmarkSpectrumIndependent256 (the ledger records the gap in
// BENCH_spectrum.json).
func BenchmarkWaitSpectrum256(b *testing.B) {
	c := markov256(b)
	ladder := benchLadder8(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sweepOf(b, c, ladder, 0, SweepOpts{})
		if _, ok := res.FirstConnected(); !ok {
			b.Fatal("benchmark network must be connected at some rung")
		}
	}
}

// BenchmarkSpectrumIndependent256 is the before: the same eight rungs
// as eight independent one-rung sweeps — what a K-bound sweep cost
// prior to the spectrum sweep (and what engine.Metrics paid per cold
// multi-mode request).
func BenchmarkSpectrumIndependent256(b *testing.B) {
	c := markov256(b)
	rungs := benchRungs(b, benchLadder8(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		connected := false
		for _, rung := range rungs {
			m := sweepOf(b, c, rung, 0, SweepOpts{}).Arrivals(0)
			connected = connected || m.Connected()
		}
		if !connected {
			b.Fatal("benchmark network must be connected at some rung")
		}
	}
}

// markovPersistent256 is the contact-dominated benchmark network:
// long-lived edges (mean lifetime 20 ticks) at N=256 produce ~1M
// contacts over the horizon, so sweep cost is dominated by contact
// iteration — the part the spectrum pays once and K independent passes
// pay K times. All eight rungs are temporally connected.
func markovPersistent256(b *testing.B) *tvg.ContactSet {
	b.Helper()
	c, err := gen.EdgeMarkovian(gen.EdgeMarkovianParams{
		Nodes: 256, PBirth: 0.01, PDeath: 0.05, Horizon: 100, Seed: 1,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkWaitSpectrum256Connected is the spectrum on the
// contact-dominated connected network — the regime the sharing is
// strongest in (see BENCH_spectrum.json for the recorded ratio).
func BenchmarkWaitSpectrum256Connected(b *testing.B) {
	c := markovPersistent256(b)
	ladder := benchLadder8(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sweepOf(b, c, ladder, 0, SweepOpts{})
		if first, ok := res.FirstConnected(); !ok || first != 0 {
			b.Fatalf("benchmark network must be connected at every rung (first=%d, ok=%v)", first, ok)
		}
	}
}

// BenchmarkSpectrumIndependent256Connected is the same ladder as eight
// independent one-rung sweeps on the contact-dominated network.
func BenchmarkSpectrumIndependent256Connected(b *testing.B) {
	c := markovPersistent256(b)
	rungs := benchRungs(b, benchLadder8(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rung := range rungs {
			sweepOf(b, c, rung, 0, SweepOpts{})
		}
	}
}

// BenchmarkWaitSpectrumRungs charts how the ladder kernel scales with
// ladder length: the marginal cost of one more rung should be far below
// one more single-mode pass. The kernel is forced, so k=1 measures the
// ladder kernel too (Sweep hands a one-rung ladder to the single-mode
// kernel).
func BenchmarkWaitSpectrumRungs(b *testing.B) {
	c := markov256(b)
	full := []Mode{
		NoWait(), BoundedWait(1), BoundedWait(2), BoundedWait(4),
		BoundedWait(8), BoundedWait(16), BoundedWait(32), Wait(),
	}
	for _, k := range []int{1, 2, 4, 8} {
		ladder, err := NewLadder(full[len(full)-k:]...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ladderKernelOf(b, c, ladder, 0, SweepOpts{})
			}
		})
	}
}
