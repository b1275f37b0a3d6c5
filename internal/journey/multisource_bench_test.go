package journey

import (
	"os"
	"runtime"
	"testing"

	"tvgwait/internal/gen"
	"tvgwait/internal/tvg"
)

// requireSlowBench gates the single-source baselines (minutes per op):
// they exist to measure the ledger speedup, not to run on every
// `-bench .` sweep (CI's contact-set ledger step included).
func requireSlowBench(b *testing.B) {
	b.Helper()
	if os.Getenv("TVGWAIT_SLOW_BENCH") == "" {
		b.Skip("single-source baseline takes minutes per op; set TVGWAIT_SLOW_BENCH=1 and -benchtime 1x to run")
	}
}

// markov256 compiles the N=256 edge-Markovian benchmark network: sparse
// enough that NoWait is not temporally connected while Wait (and
// wait[8]) reach everything with diameter 18 — the paper's expressivity
// gap at benchmark scale (~43k contacts).
func markov256(b *testing.B) *tvg.ContactSet {
	b.Helper()
	c, err := gen.EdgeMarkovian(gen.EdgeMarkovianParams{
		Nodes: 256, PBirth: 0.004, PDeath: 0.6, Horizon: 100, Seed: 1,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTemporalDiameter256 is the headline multi-source benchmark:
// the all-pairs temporal diameter at N=256 via the bit-parallel sweep
// (4 source blocks over the contact stream). The acceptance target is
// ≥10× over BenchmarkTemporalDiameter256SingleSource; the recorded
// ledger gap is several orders of magnitude.
func BenchmarkTemporalDiameter256(b *testing.B) {
	c := markov256(b)
	for _, mode := range []Mode{BoundedWait(8), Wait()} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := TemporalDiameter(c, mode, 0); !ok {
					b.Fatalf("benchmark network must be connected under %s", mode)
				}
			}
		})
	}
}

// BenchmarkTemporalDiameter256SingleSource is the preserved pre-
// multisource path (N² Foremost searches) on the same network — the
// baseline the ledger speedup is measured against. It is minutes per
// op; run it with TVGWAIT_SLOW_BENCH=1 and -benchtime 1x.
func BenchmarkTemporalDiameter256SingleSource(b *testing.B) {
	requireSlowBench(b)
	c := markov256(b)
	b.Run("wait", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := singleSourceDiameter(c, Wait(), 0); !ok {
				b.Fatal("benchmark network must be connected under wait")
			}
		}
	})
}

// BenchmarkTemporallyConnected256 measures the boolean connectivity
// query: nowait answers false at the first incomplete block, wait
// early-exits each block on an all-ones mask.
func BenchmarkTemporallyConnected256(b *testing.B) {
	c := markov256(b)
	want := map[string]bool{"nowait": false, "wait": true}
	for _, mode := range []Mode{NoWait(), Wait()} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := TemporallyConnected(c, mode, 0); got != want[mode.String()] {
					b.Fatalf("TemporallyConnected(%s) = %v, want %v", mode, got, want[mode.String()])
				}
			}
		})
	}
}

// BenchmarkTemporallyConnected256SingleSource is the preserved
// N × ReachableSet loop on the same network (seconds per op; gated
// like the diameter baseline).
func BenchmarkTemporallyConnected256SingleSource(b *testing.B) {
	requireSlowBench(b)
	c := markov256(b)
	want := map[string]bool{"nowait": false, "wait": true}
	for _, mode := range []Mode{NoWait(), Wait()} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := singleSourceConnected(c, mode, 0); got != want[mode.String()] {
					b.Fatalf("singleSourceConnected(%s) = %v, want %v", mode, got, want[mode.String()])
				}
			}
		})
	}
}

// BenchmarkAllForemost256 measures a one-rung wait Sweep, which
// materializes the full 256×256 foremost-arrival matrix on the
// single-mode kernel (a single-mode /metrics request).
func BenchmarkAllForemost256(b *testing.B) {
	c := markov256(b)
	wait := rungOf(b, Wait())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := sweepOf(b, c, wait, 0, SweepOpts{}).Arrivals(0)
		if !m.Connected() {
			b.Fatal("benchmark network must be connected under wait")
		}
	}
}

// BenchmarkAllForemost256Parallel measures the same matrix with the
// four 64-source blocks fanned out across goroutines. On a single-core
// host it matches the sequential sweep (the fan-out is pure overhead
// recovery); with ≥4 cores it approaches a 4× speedup.
func BenchmarkAllForemost256Parallel(b *testing.B) {
	c := markov256(b)
	wait := rungOf(b, Wait())
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := sweepOf(b, c, wait, 0, SweepOpts{Workers: workers}).Arrivals(0)
		if !m.Connected() {
			b.Fatal("benchmark network must be connected under wait")
		}
	}
}
