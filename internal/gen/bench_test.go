package gen

import (
	"testing"

	"tvgwait/internal/tvg"
)

// markov256Params is the ledger workload: the N=256 edge-Markovian
// regime of the multi-source benchmarks (sparse: PBirth ≪ 1).
func markov256Params() EdgeMarkovianParams {
	return EdgeMarkovianParams{
		Nodes: 256, PBirth: 0.004, PDeath: 0.6, Horizon: 100, Seed: 1,
	}
}

// BenchmarkGenerateMarkov256 compares one replicate generation at
// N=256 across the three paths tracked in BENCH_genstream.json:
//
//   - graphcompile: the historical Graph→Compile pipeline (per-pair
//     TimeSets, then a full presence rescan);
//   - stream: the same RNG stream emitted straight into CSR through a
//     reused Builder — the engine's replicate path;
//   - streamskip: the geometric run-length sampler on top — O(contacts)
//     RNG draws instead of O(N²·horizon).
func BenchmarkGenerateMarkov256(b *testing.B) {
	p := markov256Params()
	b.Run("graphcompile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := EdgeMarkovianGraph(p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tvg.Compile(g, p.Horizon); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		builder := tvg.NewBuilder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EdgeMarkovian(p, builder); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streamskip", func(b *testing.B) {
		p := p
		p.SkipSampling = true
		builder := tvg.NewBuilder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EdgeMarkovian(p, builder); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// coldShapes are spec-cold's markov shapes, copied from coldShapes in
// perfbench/workload.go (keep the two in step): the generation every
// spec-cold request pays before its sweep, flood or search.
var coldShapes = []struct {
	name string
	p    EdgeMarkovianParams
}{
	{"markov64", EdgeMarkovianParams{Nodes: 64, PBirth: 0.01, PDeath: 0.6, Horizon: 200}},
	{"markov96", EdgeMarkovianParams{Nodes: 96, PBirth: 0.01, PDeath: 0.1, Horizon: 30}},
	{"markov128skip", EdgeMarkovianParams{Nodes: 128, PBirth: 0.004, PDeath: 0.4, Horizon: 150, SkipSampling: true}},
	{"markov256skip_d0.5", EdgeMarkovianParams{Nodes: 256, PBirth: 0.001, PDeath: 0.5, Horizon: 100, SkipSampling: true}},
	{"markov256skip_d0.05", EdgeMarkovianParams{Nodes: 256, PBirth: 0.001, PDeath: 0.05, Horizon: 30, SkipSampling: true}},
}

// BenchmarkGenerateColdShapes generates each spec-cold shape into a
// pooled builder, as the engine does on a cold request. The seed
// changes every iteration, as it does across spec-cold's requests.
func BenchmarkGenerateColdShapes(b *testing.B) {
	for _, shape := range coldShapes {
		b.Run(shape.name, func(b *testing.B) {
			p := shape.p
			builder := tvg.NewBuilder()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Seed = int64(i)
				if _, err := EdgeMarkovian(p, builder); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateMobility compares the two mobility paths (the walk
// itself dominates; the streaming path removes the TimeSet/Compile
// overhead).
func BenchmarkGenerateMobility(b *testing.B) {
	p := MobilityParams{Width: 6, Height: 6, Nodes: 32, Horizon: 200, Seed: 4}
	b.Run("graphcompile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := GridMobilityGraph(p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tvg.Compile(g, p.Horizon); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		builder := tvg.NewBuilder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GridMobility(p, builder); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGeneratePeriodic compares the two random-periodic paths over
// a long horizon, where Compile's per-tick pattern probing is the cost.
func BenchmarkGeneratePeriodic(b *testing.B) {
	p := PeriodicParams{Nodes: 32, Edges: 128, MaxPeriod: 6, AlphabetSize: 3, MaxLatency: 3, Seed: 13}
	const horizon = 2000
	b.Run("graphcompile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := RandomPeriodicGraph(p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tvg.Compile(g, horizon); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		builder := tvg.NewBuilder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RandomPeriodic(p, horizon, builder); err != nil {
				b.Fatal(err)
			}
		}
	})
}
