// Package gen provides deterministic random generators for time-varying
// graphs and contact traces: edge-Markovian dynamic graphs (the standard
// model for highly dynamic networks), i.i.d. Bernoulli presence, random
// periodic schedules, and a grid mobility model. All generators take an
// explicit seed and are reproducible across runs.
//
// Each model has two construction paths that consume the identical RNG
// draw sequence and therefore describe the identical schedule (asserted
// by the differential tests):
//
//   - the streaming path (EdgeMarkovian, Bernoulli, RandomPeriodic,
//     GridMobility) emits contacts directly into a tvg.Builder and
//     returns the finalised tvg.ContactSet — the form every decision
//     procedure runs on — without materialising per-edge schedules or
//     rescanning them in tvg.Compile. Passing a pooled Builder makes
//     repeated generation allocate only the result.
//   - the graph path (EdgeMarkovianGraph, BernoulliGraph,
//     RandomPeriodicGraph, GridMobilityGraph) builds a *tvg.Graph with
//     real Presence/Latency schedules, for callers that need the graph
//     itself (automata constructions, rendering, re-compiling at several
//     horizons).
//
// Every generator draws from rand.New(rand.NewSource(Seed)). The
// edge-Markovian samplers, which every generated network of the served
// workloads runs through, reproduce that stream bit for bit through a
// concrete type instead of calling math/rand (rng.go, DESIGN.md §6):
//
//   - the stream is math/rand's lagged-Fibonacci recurrence, so its
//     first 607 outputs, read once from the real source, are its whole
//     state, and later outputs are computed 607 at a time;
//   - a Bernoulli draw Float64() < p is one integer compare of the
//     63-bit draw against a threshold computed once per generation, and
//     draws that Float64 discards (those that round to 1.0) are skipped
//     exactly as Float64 skips them;
//   - a geometric draw computes math.Log1p(-p) once, and returns its
//     horizon clamp without a log when the uniform lies clearly past the
//     clamp threshold; within a relative 1e-9 band of it, and below it,
//     the draw evaluates the exact inversion.
//
// So a (params, seed) pair yields the same contacts it always has; the
// oracle tests hold both samplers to the math/rand originals.
// RandomPeriodic and GridMobility still call math/rand directly.
package gen

import (
	"fmt"
	"math/rand"

	"tvgwait/internal/tvg"
)

// EdgeMarkovianParams configures the edge-Markovian generator: each
// ordered node pair carries an independent two-state Markov chain; an
// absent edge appears with probability PBirth per tick, a present edge
// disappears with probability PDeath per tick.
type EdgeMarkovianParams struct {
	// Nodes is the number of nodes (>= 2).
	Nodes int
	// PBirth and PDeath are the per-tick transition probabilities in [0,1].
	PBirth, PDeath float64
	// Horizon is the last tick for which presence is generated.
	Horizon tvg.Time
	// Latency is the constant edge latency (>= 1; 0 defaults to 1).
	Latency tvg.Time
	// Label is the symbol put on every edge (0 defaults to 'c').
	Label tvg.Symbol
	// Seed drives the deterministic RNG.
	Seed int64
	// SkipSampling replaces the per-tick Bernoulli draws with geometric
	// run-length sampling: instead of one uniform draw per (pair, tick)
	// — O(N²·Horizon) RNG calls — each chain draws the length of every
	// present run and absent gap directly, O(contacts + pairs) calls.
	// The chain it samples is distributionally identical (same
	// stationary start, same geometric run and gap laws), but it is a
	// DIFFERENT RNG stream: a given seed produces a different (equally
	// valid) realisation than the per-tick path, so pinned outputs and
	// seed-reproducibility contracts must not mix the two settings. Use
	// it for sparse regimes (PBirth ≪ 1) at large N, where per-tick
	// sampling is pure overhead; see DESIGN.md §6.
	SkipSampling bool
}

func (p EdgeMarkovianParams) validate() error {
	if p.Nodes < 2 {
		return fmt.Errorf("gen: need at least 2 nodes, got %d", p.Nodes)
	}
	if !(p.PBirth >= 0 && p.PBirth <= 1 && p.PDeath >= 0 && p.PDeath <= 1) { // NaN fails too
		return fmt.Errorf("gen: probabilities must be in [0,1], got birth=%g death=%g", p.PBirth, p.PDeath)
	}
	if p.Horizon < 0 {
		return fmt.Errorf("gen: negative horizon %d", p.Horizon)
	}
	return nil
}

// normalized validates and applies the Latency/Label defaults.
func (p EdgeMarkovianParams) normalized() (EdgeMarkovianParams, error) {
	if err := p.validate(); err != nil {
		return p, err
	}
	if p.Latency == 0 {
		p.Latency = 1
	}
	if p.Latency < 1 {
		return p, fmt.Errorf("gen: latency must be >= 1, got %d", p.Latency)
	}
	if p.Label == 0 {
		p.Label = 'c'
	}
	return p, nil
}

// markovSink receives the generated chain: pair opens the ordered pair
// (u, v), run reports the present ticks [from, to] of the current pair
// (runs arrive in increasing order, never adjacent), done closes the
// last pair. Both construction paths implement it, so one sink
// allocation serves all N² chains.
type markovSink interface {
	pair(u, v tvg.Node)
	run(from, to tvg.Time)
	done()
}

// markovChain is one generation's sampler: the replayed RNG stream and
// every decision constant its draws need, computed once.
type markovChain struct {
	rng                      chainRNG
	p                        EdgeMarkovianParams
	stationary, birth, death uint64    // unitThreshold of each probability
	gap, life                geometric // Geom₀(PBirth) and Geom₀(PDeath)
}

// perTick drives one pair's two-state chain on the historical draw
// sequence: one stationary draw, then one draw per tick (present ticks
// draw death, absent ticks draw birth).
func (c *markovChain) perTick(sink markovSink) {
	r := &c.rng
	h := c.p.Horizon
	from := tvg.Time(0)
	present := r.below(c.stationary)
	// flip is the threshold of the draw that changes the state: death
	// while present, birth while absent.
	flip := c.birth
	if present {
		flip = c.death
	}
	// The draw is chainRNG.unit inlined by hand, with the stream
	// position in a local: this loop makes N²·horizon draws.
	pos := r.pos
	for t := tvg.Time(0); t <= h; t++ {
		var v uint64
		for {
			if uint(pos) >= rngLen {
				r.refill()
				pos = 0
			}
			v = r.x[pos] & (1<<63 - 1)
			pos++
			if v < unitLimit {
				break
			}
		}
		if v < flip {
			if present {
				sink.run(from, t)
				flip = c.birth
			} else {
				from, flip = t+1, c.death
			}
			present = !present
		}
	}
	r.pos = pos
	if present && from <= h {
		sink.run(from, h)
	}
}

// runLength samples the same chain as perTick by run lengths: present
// runs are Geometric(PDeath), absent gaps are Geometric(PBirth), the
// start state is stationary. O(contacts) RNG draws instead of
// O(horizon) — but a different stream: the two variants agree in
// distribution, not draw for draw.
func (c *markovChain) runLength(sink markovSink) {
	h := c.p.Horizon
	pos := tvg.Time(0)
	if !c.rng.below(c.stationary) {
		if c.p.PBirth == 0 {
			return // never born
		}
		// Absent at tick s, the chain turns present at s+1 with
		// probability PBirth: the first present tick is 1 + Geom₀.
		pos = 1 + c.gap.draw(&c.rng)
	}
	for pos <= h {
		if c.p.PDeath == 0 {
			sink.run(pos, h)
			return
		}
		// Present at pos, die after each tick with probability PDeath:
		// the run carries 1 + Geom₀ contacts.
		end := min(pos+c.life.draw(&c.rng), h)
		sink.run(pos, end)
		if end == h || c.p.PBirth == 0 {
			return
		}
		pos = end + 2 + c.gap.draw(&c.rng)
	}
}

// eachMarkovPair runs the chain of every ordered pair (u, v), u ≠ v, in
// (u, v) order — the edge-id order both construction paths share — and
// closes the sink. The sink and the seeding source are the only
// per-generation allocations: the chain lives on the stack and the hot
// loop is free of closures.
func eachMarkovPair(p EdgeMarkovianParams, sink markovSink) {
	stationary := 0.0
	if p.PBirth+p.PDeath > 0 {
		stationary = p.PBirth / (p.PBirth + p.PDeath)
	}
	limit := p.Horizon + 2 // any clamp ≥ horizon+1 means "past the end"
	c := &markovChain{
		p:          p,
		stationary: unitThreshold(stationary),
		birth:      unitThreshold(p.PBirth),
		death:      unitThreshold(p.PDeath),
		gap:        newGeometric(p.PBirth, limit),
		life:       newGeometric(p.PDeath, limit),
	}
	c.rng.seed(p.Seed)
	for u := 0; u < p.Nodes; u++ {
		for v := 0; v < p.Nodes; v++ {
			if u == v {
				continue
			}
			sink.pair(tvg.Node(u), tvg.Node(v))
			if p.SkipSampling {
				c.runLength(sink)
			} else {
				c.perTick(sink)
			}
		}
	}
	sink.done()
}

// builderMarkovSink streams chain runs straight into a tvg.Builder,
// starting each pair's edge lazily at its first contact so never-present
// pairs contribute no edge.
type builderMarkovSink struct {
	b       *tvg.Builder
	label   tvg.Symbol
	latency tvg.Time
	u, v    tvg.Node
	started bool
}

func (s *builderMarkovSink) pair(u, v tvg.Node) { s.u, s.v, s.started = u, v, false }

func (s *builderMarkovSink) run(from, to tvg.Time) {
	if !s.started {
		s.b.StartEdge(s.u, s.v, s.label)
		s.started = true
	}
	s.b.AppendRun(from, to, s.latency)
}

func (s *builderMarkovSink) done() {}

// graphMarkovSink collects chain runs into per-pair TimeSet edges — the
// historical materialisation.
type graphMarkovSink struct {
	g       *tvg.Graph
	label   tvg.Symbol
	latency tvg.Time
	u, v    tvg.Node
	times   []tvg.Time
	primed  bool
}

func (s *graphMarkovSink) pair(u, v tvg.Node) {
	s.flush()
	s.u, s.v, s.primed = u, v, true
}

func (s *graphMarkovSink) run(from, to tvg.Time) {
	for t := from; t <= to; t++ {
		s.times = append(s.times, t)
	}
}

func (s *graphMarkovSink) done() { s.flush() }

func (s *graphMarkovSink) flush() {
	if !s.primed || len(s.times) == 0 {
		s.times = s.times[:0]
		return
	}
	s.g.MustAddEdge(tvg.Edge{
		From:     s.u,
		To:       s.v,
		Label:    s.label,
		Presence: tvg.NewTimeSet(s.times...),
		Latency:  tvg.ConstLatency(s.latency),
	})
	s.times = s.times[:0]
}

// EdgeMarkovian generates an edge-Markovian contact schedule directly
// into a ContactSet over [0, Horizon]. The initial state of each chain
// is drawn from the stationary distribution PBirth/(PBirth+PDeath)
// (all-absent when both probabilities are 0). Pairs that are never
// present contribute no edge, so edge ids enumerate the non-empty pairs
// in (u, v) order — exactly the graph EdgeMarkovianGraph builds.
//
// b may be nil (a fresh builder is used); passing a pooled Builder
// reuses its arenas, so repeated generation allocates only the result.
func EdgeMarkovian(p EdgeMarkovianParams, b *tvg.Builder) (*tvg.ContactSet, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if b == nil {
		b = tvg.NewBuilder()
	}
	b.Reset(p.Nodes, p.Horizon)
	eachMarkovPair(p, &builderMarkovSink{b: b, label: p.Label, latency: p.Latency})
	return b.Finalize()
}

// EdgeMarkovianGraph generates an edge-Markovian TVG as a *tvg.Graph
// with TimeSet presence schedules — the historical construction path,
// kept for callers that need the graph itself. For a given parameter
// set it consumes the same RNG draw sequence as EdgeMarkovian, so
// compiling the result over [0, Horizon] yields a byte-identical
// ContactSet (the differential tests assert it).
func EdgeMarkovianGraph(p EdgeMarkovianParams) (*tvg.Graph, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	g := tvg.New()
	g.AddNodes(p.Nodes)
	eachMarkovPair(p, &graphMarkovSink{g: g, label: p.Label, latency: p.Latency})
	return g, nil
}

// Bernoulli generates a contact schedule in which every ordered node
// pair is present at each tick independently with probability p. b may
// be nil; see EdgeMarkovian.
func Bernoulli(nodes int, p float64, horizon tvg.Time, seed int64, b *tvg.Builder) (*tvg.ContactSet, error) {
	return EdgeMarkovian(bernoulliParams(nodes, p, horizon, seed), b)
}

// BernoulliGraph is the graph-building path of Bernoulli.
func BernoulliGraph(nodes int, p float64, horizon tvg.Time, seed int64) (*tvg.Graph, error) {
	return EdgeMarkovianGraph(bernoulliParams(nodes, p, horizon, seed))
}

func bernoulliParams(nodes int, p float64, horizon tvg.Time, seed int64) EdgeMarkovianParams {
	return EdgeMarkovianParams{
		Nodes:   nodes,
		PBirth:  p,
		PDeath:  1 - p,
		Horizon: horizon,
		Seed:    seed,
	}
}

// PeriodicParams configures RandomPeriodic.
type PeriodicParams struct {
	// Nodes and Edges size the graph.
	Nodes, Edges int
	// MaxPeriod bounds each edge's presence pattern length (>= 1).
	MaxPeriod int
	// AlphabetSize draws edge labels from 'a', 'b', ... (>= 1).
	AlphabetSize int
	// MaxLatency bounds the constant latency per edge (>= 1).
	MaxLatency tvg.Time
	// Seed drives the deterministic RNG.
	Seed int64
}

func (p PeriodicParams) validate() error {
	if p.Nodes < 1 || p.Edges < 0 {
		return fmt.Errorf("gen: invalid sizes nodes=%d edges=%d", p.Nodes, p.Edges)
	}
	if p.MaxPeriod < 1 || p.AlphabetSize < 1 || p.MaxLatency < 1 {
		return fmt.Errorf("gen: invalid parameters period=%d alphabet=%d latency=%d",
			p.MaxPeriod, p.AlphabetSize, p.MaxLatency)
	}
	return nil
}

// periodicEdge is one drawn edge of the random periodic model. The
// field draws happen in the historical order (pattern, anchor, from,
// to, label, latency), so both construction paths see the same stream.
type periodicEdge struct {
	pattern  []bool
	from, to tvg.Node
	label    tvg.Symbol
	latency  tvg.Time
}

func drawPeriodicEdge(rng *rand.Rand, p PeriodicParams, pattern []bool) periodicEdge {
	pattern = pattern[:0]
	for n := 1 + rng.Intn(p.MaxPeriod); len(pattern) < n; {
		pattern = append(pattern, rng.Intn(2) == 0)
	}
	pattern[rng.Intn(len(pattern))] = true
	return periodicEdge{
		pattern: pattern,
		from:    tvg.Node(rng.Intn(p.Nodes)),
		to:      tvg.Node(rng.Intn(p.Nodes)),
		label:   tvg.Symbol('a' + rune(rng.Intn(p.AlphabetSize))),
		latency: 1 + tvg.Time(rng.Int63n(int64(p.MaxLatency))),
	}
}

// RandomPeriodic generates the contact schedule of a random periodic
// TVG over [0, horizon]: each edge carries a random periodic presence
// pattern (at least one presence per period) and a random constant
// latency. Edges whose pattern never fires within the horizon are kept
// with an empty contact range, matching the compile of the full graph.
// b may be nil; see EdgeMarkovian.
func RandomPeriodic(p PeriodicParams, horizon tvg.Time, b *tvg.Builder) (*tvg.ContactSet, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if horizon < 0 {
		return nil, fmt.Errorf("gen: negative horizon %d", horizon)
	}
	if b == nil {
		b = tvg.NewBuilder()
	}
	b.Reset(p.Nodes, horizon)
	rng := rand.New(rand.NewSource(p.Seed))
	var pattern []bool
	for i := 0; i < p.Edges; i++ {
		e := drawPeriodicEdge(rng, p, pattern)
		pattern = e.pattern // reuse the scratch across edges
		b.StartEdge(e.from, e.to, e.label)
		period := tvg.Time(len(e.pattern))
		for t := tvg.Time(0); t <= horizon; t++ {
			if e.pattern[t%period] {
				b.Append(t, t+e.latency)
			}
		}
	}
	return b.Finalize()
}

// RandomPeriodicGraph generates a TVG whose edges carry random periodic
// presence patterns (each with at least one presence per period) and
// random constant latencies. Such graphs are recurrent, so the footprint
// automaton recognizes their exact wait language (see construct). It is
// the graph-building path of RandomPeriodic: compiling the result over
// any horizon yields the ContactSet the streaming path emits directly.
func RandomPeriodicGraph(p PeriodicParams) (*tvg.Graph, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := tvg.New()
	g.AddNodes(p.Nodes)
	for i := 0; i < p.Edges; i++ {
		e := drawPeriodicEdge(rng, p, nil)
		pres, err := tvg.NewPeriodicPresence(e.pattern)
		if err != nil {
			return nil, err
		}
		g.MustAddEdge(tvg.Edge{
			From:     e.from,
			To:       e.to,
			Label:    e.label,
			Presence: pres,
			Latency:  tvg.ConstLatency(e.latency),
		})
	}
	return g, nil
}

// MobilityParams configures GridMobility.
type MobilityParams struct {
	// Width and Height size the grid (>= 1 each).
	Width, Height int
	// Nodes is the number of walkers (>= 2).
	Nodes int
	// Horizon is the number of simulated ticks.
	Horizon tvg.Time
	// Latency is the constant contact latency (0 defaults to 1).
	Latency tvg.Time
	// Seed drives the deterministic RNG.
	Seed int64
}

func (p MobilityParams) validate() error {
	if p.Width < 1 || p.Height < 1 {
		return fmt.Errorf("gen: invalid grid %dx%d", p.Width, p.Height)
	}
	if p.Nodes < 2 {
		return fmt.Errorf("gen: need at least 2 walkers, got %d", p.Nodes)
	}
	if p.Horizon < 0 {
		return fmt.Errorf("gen: negative horizon %d", p.Horizon)
	}
	return nil
}

// mobilityWalk simulates the torus random walk and returns the contact
// times per unordered pair {u < v}. All RNG draws happen here, before
// any edge is materialised, so both construction paths share the
// stream trivially.
func mobilityWalk(p MobilityParams) map[[2]int][]tvg.Time {
	rng := rand.New(rand.NewSource(p.Seed))
	type pos struct{ x, y int }
	cur := make([]pos, p.Nodes)
	for i := range cur {
		cur[i] = pos{rng.Intn(p.Width), rng.Intn(p.Height)}
	}
	contacts := make(map[[2]int][]tvg.Time)
	for t := tvg.Time(0); t <= p.Horizon; t++ {
		// Record contacts of the current placement.
		for u := 0; u < p.Nodes; u++ {
			for v := u + 1; v < p.Nodes; v++ {
				if cur[u] == cur[v] {
					contacts[[2]int{u, v}] = append(contacts[[2]int{u, v}], t)
				}
			}
		}
		// Move every walker one step (or stay) on the torus.
		for i := range cur {
			switch rng.Intn(5) {
			case 0:
				cur[i].x = (cur[i].x + 1) % p.Width
			case 1:
				cur[i].x = (cur[i].x - 1 + p.Width) % p.Width
			case 2:
				cur[i].y = (cur[i].y + 1) % p.Height
			case 3:
				cur[i].y = (cur[i].y - 1 + p.Height) % p.Height
			}
		}
	}
	return contacts
}

// eachMobilityEdge walks the recorded pairs in sorted (u, v) order,
// yielding the directed edge pair u→v then v→u for each — the
// deterministic edge-id order shared by both construction paths. (The
// historical implementation materialised edges in map-iteration order,
// which varies between runs; every derived quantity was insensitive to
// it, and a fixed order is what lets the two paths be compared
// byte-for-byte.)
func eachMobilityEdge(p MobilityParams, contacts map[[2]int][]tvg.Time, edge func(from, to tvg.Node, times []tvg.Time)) {
	for u := 0; u < p.Nodes; u++ {
		for v := u + 1; v < p.Nodes; v++ {
			times := contacts[[2]int{u, v}]
			if len(times) == 0 {
				continue
			}
			edge(tvg.Node(u), tvg.Node(v), times)
			edge(tvg.Node(v), tvg.Node(u), times)
		}
	}
}

// GridMobility simulates independent random walkers on a torus grid and
// produces the contact schedule over [0, Horizon]: a bidirectional pair
// of edges (u, v) and (v, u) is present at tick t whenever walkers u
// and v share a cell. This is the synthetic stand-in for the wireless
// ad hoc mobility traces the paper's introduction motivates. b may be
// nil; see EdgeMarkovian.
func GridMobility(p MobilityParams, b *tvg.Builder) (*tvg.ContactSet, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	latency := p.Latency
	if latency == 0 {
		latency = 1
	}
	if b == nil {
		b = tvg.NewBuilder()
	}
	b.Reset(p.Nodes, p.Horizon)
	eachMobilityEdge(p, mobilityWalk(p), func(from, to tvg.Node, times []tvg.Time) {
		b.StartEdge(from, to, 'c')
		for _, t := range times {
			b.Append(t, t+latency)
		}
	})
	return b.Finalize()
}

// GridMobilityGraph is the graph-building path of GridMobility, for
// callers that need the contact TVG as a *tvg.Graph.
func GridMobilityGraph(p MobilityParams) (*tvg.Graph, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	latency := p.Latency
	if latency == 0 {
		latency = 1
	}
	g := tvg.New()
	g.AddNodes(p.Nodes)
	eachMobilityEdge(p, mobilityWalk(p), func(from, to tvg.Node, times []tvg.Time) {
		g.MustAddEdge(tvg.Edge{
			From:     from,
			To:       to,
			Label:    'c',
			Presence: tvg.NewTimeSet(times...),
			Latency:  tvg.ConstLatency(latency),
		})
	})
	return g, nil
}
