package gen

// This file preserves the math/rand edge-Markovian samplers verbatim
// modulo renaming, as the reference oracle for the stream differential
// tests in stream_test.go. They draw from rand.New(rand.NewSource(seed))
// through *rand.Rand and report every present tick one call at a time,
// which is the exact surface the generated schedules were first defined
// on. Do not "optimize" them: their value is being a faithful copy of
// the original semantics.

import (
	"math"
	"math/rand"

	"tvgwait/internal/tvg"
)

// refMarkovSink receives the generated chain: pair opens the ordered
// pair (u, v), tick reports one present tick of the current pair
// (strictly increasing), done closes the last pair.
type refMarkovSink interface {
	pair(u, v tvg.Node)
	tick(t tvg.Time)
	done()
}

// refMarkovChainPerTick drives one pair's two-state chain, calling
// sink.tick for every present tick in increasing order: one stationary
// draw, then one uniform per tick (present ticks draw death, absent
// ticks draw birth).
func refMarkovChainPerTick(rng *rand.Rand, p EdgeMarkovianParams, stationary float64, sink refMarkovSink) {
	present := rng.Float64() < stationary
	for t := tvg.Time(0); t <= p.Horizon; t++ {
		if present {
			sink.tick(t)
			if rng.Float64() < p.PDeath {
				present = false
			}
		} else if rng.Float64() < p.PBirth {
			present = true
		}
	}
}

// refGeometric0 draws the number of consecutive failures before the
// first success of a Bernoulli(p) sequence — P(k) = (1-p)^k·p — by
// inversion, clamped to limit.
func refGeometric0(rng *rand.Rand, p float64, limit tvg.Time) tvg.Time {
	if p >= 1 {
		return 0
	}
	k := math.Log1p(-rng.Float64()) / math.Log1p(-p)
	if !(k < float64(limit)) { // also catches NaN/+Inf
		return limit
	}
	return tvg.Time(k)
}

// refMarkovChainRunLength samples the same chain as
// refMarkovChainPerTick by run lengths: present runs are
// Geometric(PDeath), absent gaps are Geometric(PBirth), the start state
// is stationary.
func refMarkovChainRunLength(rng *rand.Rand, p EdgeMarkovianParams, stationary float64, sink refMarkovSink) {
	limit := p.Horizon + 2 // any clamp ≥ horizon+1 means "past the end"
	pos := tvg.Time(0)
	if !(rng.Float64() < stationary) {
		if p.PBirth == 0 {
			return // never born
		}
		// Absent at tick s, the chain turns present at s+1 with
		// probability PBirth: the first present tick is 1 + Geom₀.
		pos = 1 + refGeometric0(rng, p.PBirth, limit)
	}
	for pos <= p.Horizon {
		if p.PDeath == 0 {
			for t := pos; t <= p.Horizon; t++ {
				sink.tick(t)
			}
			return
		}
		// Present at pos, die after each tick with probability PDeath:
		// the run carries 1 + Geom₀ contacts.
		end := pos + refGeometric0(rng, p.PDeath, limit)
		if end > p.Horizon {
			end = p.Horizon
		}
		for t := pos; t <= end; t++ {
			sink.tick(t)
		}
		if end == p.Horizon || p.PBirth == 0 {
			return
		}
		pos = end + 2 + refGeometric0(rng, p.PBirth, limit)
	}
}

// refEachMarkovPair runs the chain of every ordered pair (u, v), u ≠ v,
// in (u, v) order and closes the sink.
func refEachMarkovPair(p EdgeMarkovianParams, sink refMarkovSink) {
	rng := rand.New(rand.NewSource(p.Seed))
	stationary := 0.0
	if p.PBirth+p.PDeath > 0 {
		stationary = p.PBirth / (p.PBirth + p.PDeath)
	}
	for u := 0; u < p.Nodes; u++ {
		for v := 0; v < p.Nodes; v++ {
			if u == v {
				continue
			}
			sink.pair(tvg.Node(u), tvg.Node(v))
			if p.SkipSampling {
				refMarkovChainRunLength(rng, p, stationary, sink)
			} else {
				refMarkovChainPerTick(rng, p, stationary, sink)
			}
		}
	}
	sink.done()
}

// refBuilderSink streams oracle ticks into a tvg.Builder one Append per
// tick, starting each pair's edge lazily at its first contact.
type refBuilderSink struct {
	b       *tvg.Builder
	label   tvg.Symbol
	latency tvg.Time
	u, v    tvg.Node
	started bool
}

func (s *refBuilderSink) pair(u, v tvg.Node) { s.u, s.v, s.started = u, v, false }

func (s *refBuilderSink) tick(t tvg.Time) {
	if !s.started {
		s.b.StartEdge(s.u, s.v, s.label)
		s.started = true
	}
	s.b.Append(t, t+s.latency)
}

func (s *refBuilderSink) done() {}

// refEdgeMarkovian is the oracle's ContactSet: the historical sampler
// streamed tick by tick into a fresh builder.
func refEdgeMarkovian(p EdgeMarkovianParams) (*tvg.ContactSet, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	b := tvg.NewBuilder()
	b.Reset(p.Nodes, p.Horizon)
	refEachMarkovPair(p, &refBuilderSink{b: b, label: p.Label, latency: p.Latency})
	return b.Finalize()
}
