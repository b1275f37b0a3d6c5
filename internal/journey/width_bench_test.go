package journey

import (
	"fmt"
	"testing"

	"tvgwait/internal/gen"
	"tvgwait/internal/tvg"
)

// markov1024 compiles the N=1024 edge-Markovian benchmark network: the
// per-node contact rate of markov256 (PBirth scaled by 1/4 against 4×
// the pair count) at four times the node count, so the sweep's block
// dimension — not the stream density — is what grows. Generated with
// run-length sampling; the per-tick path would spend longer drawing
// ~52M pair-ticks than the sweeps take.
func markov1024(b *testing.B) *tvg.ContactSet {
	b.Helper()
	c, err := gen.EdgeMarkovian(gen.EdgeMarkovianParams{
		Nodes: 1024, PBirth: 0.001, PDeath: 0.6, Horizon: 100, Seed: 1,
		SkipSampling: true,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchWidths runs one sub-benchmark per supported sweep width plus the
// automatic choice, all single-threaded — the ledger's apples-to-apples
// axis: w1 is the pre-width 64-bit path, w8 the full 512-source block.
func benchWidths(b *testing.B, fn func(b *testing.B, width int)) {
	for _, w := range sweepWidths {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			b.ReportAllocs()
			fn(b, w)
		})
	}
}

// BenchmarkWidthAllForemost256 materializes the 256×256 foremost matrix
// at every sweep width (one block at w4 and w8, so the widths past the
// node count measure the clamp's overhead floor).
func BenchmarkWidthAllForemost256(b *testing.B) {
	c := markov256(b)
	wait := rungOf(b, Wait())
	benchWidths(b, func(b *testing.B, width int) {
		for i := 0; i < b.N; i++ {
			m := sweepOf(b, c, wait, 0, SweepOpts{Width: width}).Arrivals(0)
			if !m.Connected() {
				b.Fatal("benchmark network must be connected under wait")
			}
		}
	})
}

// BenchmarkWidthAllForemost1024 is the headline width benchmark: the
// 1024×1024 foremost matrix, 16 source blocks at w1 against 2 at w8 —
// the acceptance target is ≥2× from w1 to the widest block.
func BenchmarkWidthAllForemost1024(b *testing.B) {
	c := markov1024(b)
	wait := rungOf(b, Wait())
	benchWidths(b, func(b *testing.B, width int) {
		for i := 0; i < b.N; i++ {
			m := sweepOf(b, c, wait, 0, SweepOpts{Width: width}).Arrivals(0)
			if !m.Connected() {
				b.Fatal("benchmark network must be connected under wait")
			}
		}
	})
}

// BenchmarkWidthDiameter256 and BenchmarkWidthDiameter1024 measure the
// user-facing TemporalDiameter, which picks its width automatically —
// the ledger's record of what the auto rule actually delivers.
func BenchmarkWidthDiameter256(b *testing.B) {
	c := markov256(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := TemporalDiameter(c, Wait(), 0); !ok {
			b.Fatal("benchmark network must be connected under wait")
		}
	}
}

func BenchmarkWidthDiameter1024(b *testing.B) {
	c := markov1024(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := TemporalDiameter(c, Wait(), 0); !ok {
			b.Fatal("benchmark network must be connected under wait")
		}
	}
}

// benchLadder is the spectrum benchmark's 4-rung ladder (both gap ends
// plus two bounded budgets).
func benchLadder(b *testing.B) Ladder {
	b.Helper()
	ladder, err := NewLadder(NoWait(), BoundedWait(2), BoundedWait(8), Wait())
	if err != nil {
		b.Fatal(err)
	}
	return ladder
}

// BenchmarkWidthSpectrum256 sweeps the 4-rung wait spectrum at every
// width; the rung dimension multiplies the per-contact work, so the
// stream-scan amortization shows up smaller than in the one-rung sweep.
func BenchmarkWidthSpectrum256(b *testing.B) {
	c := markov256(b)
	ladder := benchLadder(b)
	benchWidths(b, func(b *testing.B, width int) {
		for i := 0; i < b.N; i++ {
			res := sweepOf(b, c, ladder, 0, SweepOpts{Width: width})
			if !res.Arrivals(ladder.Len() - 1).Connected() {
				b.Fatal("benchmark network must be connected under wait")
			}
		}
	})
}

func BenchmarkWidthSpectrum1024(b *testing.B) {
	c := markov1024(b)
	ladder := benchLadder(b)
	benchWidths(b, func(b *testing.B, width int) {
		for i := 0; i < b.N; i++ {
			res := sweepOf(b, c, ladder, 0, SweepOpts{Width: width})
			if !res.Arrivals(ladder.Len() - 1).Connected() {
				b.Fatal("benchmark network must be connected under wait")
			}
		}
	})
}
