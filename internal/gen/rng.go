package gen

import (
	"math"
	"math/rand"

	"tvgwait/internal/tvg"
)

// The edge-Markovian samplers draw from chainRNG, an exact replay of the
// value stream of rand.New(rand.NewSource(seed)) (DESIGN.md §6).
//
// math/rand's seeded source is the additive lagged-Fibonacci recurrence
// x_n = x_{n−607} + x_{n−273} mod 2^64. Int63 is an output with its top
// bit cleared, and Float64 is Int63/2^63, drawn again while that rounds
// to 1.0. An output depends only on the outputs 607 and 273 places
// back, so the first 607 outputs, read once from the real source, are
// the whole state, and each later block of 607 follows from the one
// before it.
const (
	rngLen = 607 // the long lag: outputs kept as state
	rngTap = 273 // the short lag
	// unitLimit is the first 63-bit draw whose Float64 rounds to 1.0.
	// Float64 discards it and every draw above it.
	unitLimit = 1<<63 - 512
	// clampBand is the relative margin above a geometric law's clamp
	// threshold beyond which a draw returns the clamp without a log. It
	// dwarfs the few-ulp error of log1p, expm1 and the division, so no
	// draw past it can round below the clamp (DESIGN.md §6).
	clampBand = 1e-9
)

// chainRNG replays rand.New(rand.NewSource(seed)): unit returns the
// Int63 value behind each successive Float64 call of that Rand.
type chainRNG struct {
	x   [rngLen]uint64 // outputs n … n+606 of the stream
	pos int            // index in x of the next output
}

// seed reads the stream's first rngLen outputs from math/rand's own
// source, so seeding (including its reduction modulo 2^31−1) is exactly
// math/rand's.
func (r *chainRNG) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range r.x {
		r.x[i] = src.Uint64()
	}
	r.pos = 0
}

// refill advances x to the next rngLen outputs in place. Output n+607+i
// is x[i] plus output n+334+i, which is still the old x[i+334] for
// i < 273 and already the new x[i−273] for i ≥ 273.
func (r *chainRNG) refill() {
	for i := 0; i < rngTap; i++ {
		r.x[i] += r.x[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		r.x[i] += r.x[i-rngTap]
	}
	r.pos = 0
}

// unit returns the 63-bit draw v behind the next Float64, which is
// float64(v)/2^63. Like Float64 it skips draws at or above unitLimit.
func (r *chainRNG) unit() uint64 {
	for {
		if r.pos == rngLen {
			r.refill()
		}
		v := r.x[r.pos] & (1<<63 - 1)
		r.pos++
		if v < unitLimit {
			return v
		}
	}
}

// below consumes one Float64 draw and reports whether it is < p, given
// t = unitThreshold(p).
func (r *chainRNG) below(t uint64) bool { return r.unit() < t }

// unitThreshold returns the number of 63-bit draws v whose Float64 value
// float64(v)/2^63 is below p. float64(v) never decreases as v grows, so
// Float64() < p holds exactly when the draw behind it is below the
// result: one integer compare replaces a conversion and a float compare.
func unitThreshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// geometric draws the number of consecutive failures before the first
// success of a Bernoulli(p) sequence — P(k) = (1-p)^k·p — by inversion,
// math.Log1p(-Float64())/math.Log1p(-p), clamped to limit (callers only
// care whether a run crosses the horizon, and the clamp keeps the
// float→int conversion in range). The constants are computed once per
// law, and a draw past the clamp band skips the log.
type geometric struct {
	certain bool     // p >= 1: always 0, and no draw
	logq    float64  // math.Log1p(-p)
	clamp   uint64   // draws at or above this reach limit
	limit   tvg.Time // the clamp
}

func newGeometric(p float64, limit tvg.Time) geometric {
	logq := math.Log1p(-p)
	// Inversion reaches the clamp at u = 1-(1-p)^limit, computed as
	// -expm1(limit·log1p(-p)); clamp sits clampBand above it.
	edge := -math.Expm1(float64(limit)*logq) * (1 + clampBand)
	return geometric{certain: p >= 1, logq: logq, clamp: unitThreshold(edge), limit: limit}
}

// draw returns the next Geom₀ draw from r.
func (g *geometric) draw(r *chainRNG) tvg.Time {
	if g.certain {
		return 0
	}
	return g.at(r.unit())
}

// at is the draw's value for the 63-bit draw v behind its Float64.
func (g *geometric) at(v uint64) tvg.Time {
	if v >= g.clamp {
		return g.limit
	}
	k := math.Log1p(-float64(v)/(1<<63)) / g.logq
	if !(k < float64(g.limit)) { // also catches NaN/+Inf
		return g.limit
	}
	return tvg.Time(k)
}
