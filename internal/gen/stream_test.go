package gen

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tvgwait/internal/tvg"
)

// streamProbs are the probabilities the stream differential tests pin:
// both certainties, values a hair inside each, and the regimes the
// served workloads use.
var streamProbs = []float64{0, 1, 1e-12, 1 - 1e-12, 0.001, 0.05, 0.5}

// fuzzProb picks a probability from streamProbs, or folds the raw fuzz
// float into [0, 1] when sel is past the table.
func fuzzProb(sel uint8, raw float64) float64 {
	if int(sel) < len(streamProbs) {
		return streamProbs[sel]
	}
	raw = math.Abs(raw)
	if raw <= 1 {
		return raw
	}
	if f := raw - math.Floor(raw); f >= 0 && f <= 1 { // NaN and ±Inf fail
		return f
	}
	return 0.5
}

// FuzzEdgeMarkovianStream holds both edge-Markovian construction paths,
// per-tick and skip-sampled, to the math/rand oracle in
// reference_test.go: the same parameters must yield the same contacts,
// edge offsets and edge endpoints.
func FuzzEdgeMarkovianStream(f *testing.F) {
	seeds := []int64{0, 1, -1, 89482311, math.MinInt64, math.MaxInt64}
	for i := range streamProbs {
		for j := range streamProbs {
			seed := seeds[(i+j)%len(seeds)]
			f.Add(uint8(5), uint16(40), seed, false, uint8(i), 0.0, uint8(j), 0.0)
			f.Add(uint8(5), uint16(40), seed, true, uint8(i), 0.0, uint8(j), 0.0)
		}
	}
	f.Add(uint8(38), uint16(200), int64(7), false, uint8(255), 0.01, uint8(255), 0.6)
	f.Add(uint8(38), uint16(298), int64(8), true, uint8(255), 0.004, uint8(255), 0.4)
	f.Add(uint8(20), uint16(0), int64(9), true, uint8(255), 0.3, uint8(255), 1.7)
	f.Fuzz(func(t *testing.T, nodes uint8, horizon uint16, seed int64, skip bool,
		bsel uint8, braw float64, dsel uint8, draw float64) {
		p := EdgeMarkovianParams{
			Nodes:        2 + int(nodes)%39,
			PBirth:       fuzzProb(bsel, braw),
			PDeath:       fuzzProb(dsel, draw),
			Horizon:      tvg.Time(horizon) % 301,
			Seed:         seed,
			SkipSampling: skip,
		}
		want, err := refEdgeMarkovian(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EdgeMarkovian(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameContactSet(t, got, want)
		g, gerr := EdgeMarkovianGraph(p)
		assertSameContactSet(t, compile(t, g, gerr, p.Horizon), want)
	})
}

// TestChainRNGMatchesMathRand holds the replayed stream to math/rand's
// Float64 draw for draw, across the seeds math/rand's seeding treats
// specially: zero (replaced by 89482311), the modulus 2^31−1 and its
// multiples (which reduce to zero), negatives and both int64 extremes.
func TestChainRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, math.MaxInt32, 2 * math.MaxInt32, -5 * math.MaxInt32,
		math.MinInt64, math.MaxInt64}
	const draws = 1_000_000
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		var got chainRNG
		got.seed(seed)
		for i := 0; i < draws; i++ {
			if g, w := float64(got.unit())/(1<<63), want.Float64(); g != w {
				t.Fatalf("seed %d: draw %d = %v, want %v", seed, i, g, w)
			}
		}
	}
}

// int63List is a rand.Source yielding fixed Int63 values, to put the
// draws Float64 discards into a stream.
type int63List []int64

func (s *int63List) Int63() int64 {
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}

func (s *int63List) Seed(int64) {}

// TestUnitDiscardsLikeFloat64 feeds the draws around 2^63−512, where
// float64(v)/2^63 starts rounding to 1.0, through both chainRNG and
// Float64: both must skip the same draws and return the same values.
// Random streams reach these draws with probability 2^-54 each.
func TestUnitDiscardsLikeFloat64(t *testing.T) {
	vals := []uint64{0, unitLimit - 1, unitLimit, unitLimit + 1, 1<<63 - 1, 5,
		unitLimit, unitLimit, unitLimit - 1, 1<<63 - 1, 1 << 62, unitLimit}
	for _, v := range []uint64{unitLimit - 1, unitLimit, 1<<63 - 1} {
		if discard := float64(v)/(1<<63) == 1; discard != (v >= unitLimit) {
			t.Errorf("draw %d: Float64 discards it = %v, unitLimit says %v", v, discard, v >= unitLimit)
		}
	}
	var r chainRNG
	list := make(int63List, len(vals))
	for i, v := range vals {
		r.x[i] = v | uint64(i%2)<<63 // the top bit is masked off
		list[i] = int64(v)
	}
	want := rand.New(&list)
	for len(list) > 0 && list[len(list)-1] >= unitLimit {
		list = list[:len(list)-1] // Float64 would read past the list
	}
	for i := 0; len(list) > 0; i++ {
		if g, w := float64(r.unit())/(1<<63), want.Float64(); g != w {
			t.Fatalf("draw %d = %v, want %v", i, g, w)
		}
	}
	if r.pos != len(vals)-1 {
		t.Fatalf("chainRNG consumed %d outputs, Float64 %d", r.pos, len(vals)-1)
	}
}

// TestUnitThresholdCompare checks the per-tick compare v < unitThreshold(p)
// against Float64's float64(v)/2^63 < p at the draws where the two could
// part: either side of the threshold and either side of the discard limit.
func TestUnitThresholdCompare(t *testing.T) {
	probs := append(slices.Clone(streamProbs), 0.01, 0.6, 0.1, 0.4, 0.004, 0.05/1.05,
		math.SmallestNonzeroFloat64, math.Nextafter(1, 0))
	for _, p := range probs {
		th := unitThreshold(p)
		for _, v := range []uint64{th - 1, th, th + 1, 1<<63 - 513, 1<<63 - 512, 1<<63 - 1} {
			if v >= 1<<63 {
				continue // th−1 wrapped, or th+1 past the draws
			}
			if got, want := v < th, float64(v)/(1<<63) < p; got != want {
				t.Errorf("p=%g draw %d: threshold compare %v, Float64 compare %v", p, v, got, want)
			}
		}
	}
}

// refGeometricAt is refGeometric0's formula on the uniform u.
func refGeometricAt(u, p float64, limit tvg.Time) tvg.Time {
	k := math.Log1p(-u) / math.Log1p(-p)
	if !(k < float64(limit)) {
		return limit
	}
	return tvg.Time(k)
}

// TestGeometricClampBand checks the geometric shortcut against the exact
// inversion at the draws around both edges of the clamp band, U·(1±1e-9)
// with U = -expm1(limit·log1p(-p)): one ulp below, at and above each
// edge, and the draws either side of each of those. It covers the
// (p, horizon+2) laws of spec-cold's shapes and extremes.
func TestGeometricClampBand(t *testing.T) {
	type law struct {
		p     float64
		limit tvg.Time
	}
	laws := []law{{0.01, 202}, {0.6, 202}, {0.01, 32}, {0.1, 32}, {0.004, 152}, {0.4, 152},
		{0.001, 102}, {0.5, 102}, {0.001, 32}, {0.05, 32}}
	for _, p := range streamProbs {
		laws = append(laws, law{p, 2}, law{p, 302}, law{p, 1_000_002})
	}
	shortcuts := 0
	for _, l := range laws {
		g := newGeometric(l.p, l.limit)
		if l.p >= 1 {
			var r chainRNG
			r.seed(1)
			if k := g.draw(&r); k != 0 || r.pos != 0 {
				t.Errorf("p=%g: draw = %d after %d draws, want 0 after none", l.p, k, r.pos)
			}
			continue
		}
		if g.clamp < unitLimit {
			shortcuts++
		}
		edge := -math.Expm1(float64(l.limit) * math.Log1p(-l.p))
		for _, e := range []float64{edge * (1 - clampBand), edge * (1 + clampBand)} {
			for _, u := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, 2)} {
				v0 := unitThreshold(u)
				for _, v := range []uint64{v0 - 1, v0, v0 + 1} {
					if v >= unitLimit {
						continue
					}
					if got, want := g.at(v), refGeometricAt(float64(v)/(1<<63), l.p, l.limit); got != want {
						t.Errorf("p=%g limit=%d draw %d: %d, exact %d", l.p, l.limit, v, got, want)
					}
				}
			}
		}
	}
	if shortcuts < len(laws)/2 {
		t.Fatalf("only %d of %d laws can take the shortcut", shortcuts, len(laws))
	}
}
