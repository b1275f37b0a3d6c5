package tvgwait

import (
	"context"

	"tvgwait/internal/anbn"
	"tvgwait/internal/automata"
	"tvgwait/internal/construct"
	"tvgwait/internal/core"
	"tvgwait/internal/dtn"
	"tvgwait/internal/engine"
	"tvgwait/internal/journey"
	"tvgwait/internal/lang"
	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// Core model types, re-exported for single-import use.
type (
	// Time is a discrete instant (ticks from 0).
	Time = tvg.Time
	// Symbol is an edge label.
	Symbol = tvg.Symbol
	// Node identifies a vertex of a Graph.
	Node = tvg.Node
	// EdgeID identifies an edge of a Graph.
	EdgeID = tvg.EdgeID
	// Edge is a labeled, directed, time-varying edge.
	Edge = tvg.Edge
	// Graph is a time-varying graph G = (V, E, T, ρ, ζ).
	Graph = tvg.Graph
	// ContactSet is a finite-horizon compiled schedule: the flat CSR
	// contact array every decision procedure runs on.
	ContactSet = tvg.ContactSet
	// Contact is one usable (edge, departure) pair of a ContactSet.
	Contact = tvg.Contact
	// Compiled is the pre-CSR name of ContactSet, kept as an alias.
	Compiled = tvg.Compiled
	// Builder streams contacts in (edge, departure) order and finalises
	// them into a ContactSet in one pass — the allocation-free
	// construction path for generated schedules (see DESIGN.md §6).
	Builder = tvg.Builder
	// Presence is an edge availability schedule (ρ restricted to an edge).
	Presence = tvg.Presence
	// Latency is an edge crossing-time schedule (ζ restricted to an edge).
	Latency = tvg.Latency

	// Mode is a waiting semantics: NoWait, Wait or BoundedWait(d).
	Mode = journey.Mode
	// Journey is a path over time (a walk plus departure times).
	Journey = journey.Journey
	// Hop is one edge traversal of a Journey.
	Hop = journey.Hop
	// ArrivalMatrix is the all-pairs foremost-arrival table of one
	// ladder rung, computed by Sweep in one bit-parallel contact sweep
	// per 64·W sources.
	ArrivalMatrix = journey.ArrivalMatrix
	// ReachMatrix is the packed all-pairs temporal reachability
	// relation of one rung (SpectrumResult.Reach).
	ReachMatrix = journey.ReachMatrix
	// Ladder is a normalized ladder of waiting budgets — the paper's
	// inclusion chain L_nowait ⊆ L_wait[d] ⊆ L_wait — built by
	// NewLadder and swept in one pass by Sweep. One mode is a one-rung
	// ladder.
	Ladder = journey.Ladder
	// SpectrumResult holds one foremost-arrival matrix per ladder rung,
	// computed by a single contact sweep.
	SpectrumResult = journey.SpectrumResult
	// SweepOpts tunes how Sweep runs — worker fan-out, lane width,
	// telemetry — without changing its result.
	SweepOpts = journey.SweepOpts

	// Automaton is a TVG-automaton A(G) = (Σ, S, I, E, F).
	Automaton = core.Automaton
	// Decider is a compiled membership decision procedure.
	Decider = core.Decider

	// Language is a decidable formal language (alphabet + membership).
	Language = lang.Language

	// NFA and DFA are the classical automata used as regularity witnesses.
	NFA = automata.NFA
	DFA = automata.DFA

	// Message and DeliveryResult belong to the store-carry-forward
	// simulator (the paper's motivating setting).
	Message = dtn.Message
	// DeliveryResult describes one simulated message.
	DeliveryResult = dtn.Result

	// Engine is the concurrent batch-simulation engine; EngineOptions
	// configures it.
	Engine = engine.Engine
	// EngineOptions configures NewEngine.
	EngineOptions = engine.Options
	// ScenarioSpec declares one batch scenario (network model, waiting
	// modes, workload, replication, seed).
	ScenarioSpec = engine.ScenarioSpec
	// GraphSpec declares a generated network inside a ScenarioSpec.
	GraphSpec = engine.GraphSpec
	// Report is the deterministic aggregate of one engine run.
	Report = engine.Report
	// ModeReport is one waiting mode's aggregated unicast row.
	ModeReport = engine.ModeReport
	// BroadcastModeReport is one waiting mode's aggregated broadcast row.
	BroadcastModeReport = engine.BroadcastModeReport
	// JourneyRequest asks the engine for one optimal journey.
	JourneyRequest = engine.JourneyRequest
	// JourneyReport describes the journey found.
	JourneyReport = engine.JourneyReport
	// MetricsRequest asks the engine for all-pairs journey metrics
	// (connectivity, diameter, eccentricity distribution) per mode.
	MetricsRequest = engine.MetricsRequest
	// MetricsReport aggregates the per-mode metric rows.
	MetricsReport = engine.MetricsReport
	// ModeMetrics is one waiting mode's all-pairs metrics row.
	ModeMetrics = engine.ModeMetrics
	// SpectrumRequest asks the engine for the waiting spectrum of a
	// generated network: per-rung metrics for a whole budget ladder in
	// one sweep and one cache entry.
	SpectrumRequest = engine.SpectrumRequest
	// SpectrumReport is the per-rung metric table of one network.
	SpectrumReport = engine.SpectrumReport

	// Registry is the telemetry registry: zero-allocation counters,
	// gauges and histograms with Prometheus text and JSON varz renderers
	// (see DESIGN.md §8). Pass one as EngineOptions.Obs to expose the
	// engine's cache, pool and sweep series.
	Registry = obs.Registry
	// SweepStats aggregates the bit-parallel sweeps' telemetry: blocks,
	// contacts swept, early exits, sparse-grid fallbacks, due-bucket
	// expiries, spectrum rung retirements, lane retirements and the
	// most recent sweep width.
	SweepStats = obs.SweepStats
	// CacheTrace accumulates one request's engine-cache outcomes
	// (attach with WithCacheTrace).
	CacheTrace = engine.CacheTrace
)

// Graph construction.

// NewGraph returns an empty time-varying graph.
func NewGraph() *Graph { return tvg.New() }

// Compile scans a graph's schedules over [0, horizon]; all decision
// procedures operate on the compiled form.
func Compile(g *Graph, horizon Time) (*Compiled, error) { return tvg.Compile(g, horizon) }

// NewBuilder returns an empty contact-set builder. Reset it, stream
// edges and contacts in (edge, departure) order, and Finalize into a
// ContactSet without building a Graph first; a pooled Builder reused
// across replicates reaches zero steady-state arena allocation.
func NewBuilder() *Builder { return tvg.NewBuilder() }

// Schedule helpers.

// Always returns a presence schedule that is available at every time.
func Always() Presence { return tvg.Always{} }

// Never returns a presence schedule that is never available.
func Never() Presence { return tvg.Never{} }

// At returns a presence schedule available exactly at the given instants.
func At(times ...Time) Presence { return tvg.NewTimeSet(times...) }

// During returns a presence schedule available on [start, end).
func During(start, end Time) Presence {
	return tvg.NewIntervals(tvg.Interval{Start: start, End: end})
}

// Periodic returns a presence schedule repeating the pattern forever.
func Periodic(pattern []bool) (Presence, error) { return tvg.NewPeriodicPresence(pattern) }

// ConstLatency returns a fixed crossing time.
func ConstLatency(d Time) Latency { return tvg.ConstLatency(d) }

// Waiting semantics.

// NoWait returns the direct-journey semantics (no buffering).
func NoWait() Mode { return journey.NoWait() }

// Wait returns the indirect-journey semantics (unbounded buffering).
func Wait() Mode { return journey.Wait() }

// BoundedWait returns the semantics allowing pauses of at most d ticks.
func BoundedWait(d Time) Mode { return journey.BoundedWait(d) }

// Automata over TVGs.

// NewAutomaton wraps a graph as a TVG-automaton.
func NewAutomaton(g *Graph) *Automaton { return core.NewAutomaton(g) }

// NewDecider compiles a membership decision procedure for the automaton
// under the given waiting semantics and horizon.
func NewDecider(a *Automaton, mode Mode, horizon Time) (*Decider, error) {
	return core.NewDecider(a, mode, horizon)
}

// Journey metrics.

// Foremost returns an earliest-arrival journey from src to dst departing
// no earlier than t0.
func Foremost(c *Compiled, mode Mode, src, dst Node, t0 Time) (Journey, Time, bool) {
	return journey.Foremost(c, mode, src, dst, t0)
}

// MinHop returns a fewest-hops journey from src to dst.
func MinHop(c *Compiled, mode Mode, src, dst Node, t0 Time) (Journey, int, bool) {
	return journey.MinHop(c, mode, src, dst, t0)
}

// Fastest returns a journey minimizing departure-to-arrival span.
func Fastest(c *Compiled, mode Mode, src, dst Node, t0 Time) (Journey, Time, bool) {
	return journey.Fastest(c, mode, src, dst, t0)
}

// TemporallyConnected reports whether every ordered node pair is joined by
// a feasible journey. It short-circuits inside a bit-parallel
// multi-source sweep (64 sources per contact pass).
func TemporallyConnected(c *Compiled, mode Mode, t0 Time) bool {
	return journey.TemporallyConnected(c, mode, t0)
}

// TemporalDiameter returns the worst foremost delay between any ordered
// node pair, or ok=false if the graph is not temporally connected. It
// runs O(⌈N/64⌉) bit-parallel contact sweeps instead of N² Foremost
// searches.
func TemporalDiameter(c *Compiled, mode Mode, t0 Time) (Time, bool) {
	return journey.TemporalDiameter(c, mode, t0)
}

// NewLadder normalizes waiting modes into a Ladder: sorted from least
// to most permissive, duplicates (wait[0] ≡ nowait included) collapsed.
func NewLadder(modes ...Mode) (Ladder, error) { return journey.NewLadder(modes...) }

// Sweep computes the all-pairs foremost-arrival matrix of every ladder
// rung in ONE bit-parallel contact sweep per source block — per rung
// the batch equivalent of N² Foremost calls, bit-identical to them at
// any SweepOpts. Ask about one mode with a one-rung ladder. A cancelled
// ctx aborts the sweep within ~one checkpoint interval (~64K contacts)
// with an error wrapping ErrCanceled; context.Background costs nothing.
func Sweep(ctx context.Context, c *Compiled, ladder Ladder, t0 Time, o SweepOpts) (*SpectrumResult, error) {
	return journey.Sweep(ctx, c, ladder, t0, o)
}

// EnumerateJourneys lists every feasible journey from src (departing no
// earlier than t0) with at most maxHops hops, up to limit entries
// (limit <= 0 means unlimited); the bool reports truncation.
func EnumerateJourneys(c *Compiled, mode Mode, src Node, t0 Time, maxHops, limit int) ([]Journey, bool) {
	return journey.Enumerate(c, mode, src, t0, maxHops, limit)
}

// Paper constructions.

// Figure1 builds the paper's Figure 1 / Table 1 automaton for primes p, q:
// L_nowait(G) = {aⁿbⁿ : n ≥ 1}.
func Figure1(p, q int64) (*Automaton, error) { return anbn.New(anbn.Params{P: p, Q: q}) }

// Figure1Horizon returns a horizon deciding all words of length ≤ maxLen
// exactly on the Figure 1 automaton.
func Figure1Horizon(p, q int64, maxLen int) (Time, error) {
	return anbn.HorizonForLength(anbn.Params{P: p, Q: q}, maxLen)
}

// FromRegex builds a static TVG-automaton recognizing the regular pattern
// under every waiting semantics (Theorem 2.2, easy half).
func FromRegex(pattern string, alphabet []rune) (*Automaton, error) {
	return construct.FromRegex(pattern, alphabet)
}

// FromDecider builds a TVG-automaton with L_nowait(G) = L for any
// decidable language L (Theorem 2.1).
func FromDecider(l Language) (*Automaton, error) { return construct.FromDecider(l) }

// LanguageDFA extracts the minimal DFA of the automaton's horizon-bounded
// language (Theorem 2.2, hard half: the regularity witness).
func LanguageDFA(a *Automaton, mode Mode, horizon Time, alphabet []rune) (*DFA, error) {
	return construct.LanguageDFA(a, mode, horizon, alphabet)
}

// Dilate time-expands an automaton by factor k; Dilate(a, d+1) makes
// wait[d] equivalent to nowait (Theorem 2.3).
func Dilate(a *Automaton, k Time) (*Automaton, error) { return construct.DilateAutomaton(a, k) }

// IntersectDFA builds the product automaton with L_mode(result) =
// L_mode(a) ∩ L(d) for every waiting semantics — regular filtering of TVG
// languages.
func IntersectDFA(a *Automaton, d *DFA) (*Automaton, error) {
	return construct.IntersectDFA(a, d)
}

// Store-carry-forward simulation.

// Deliver floods one message under the buffering policy given by mode.
func Deliver(c *Compiled, mode Mode, msg Message) (DeliveryResult, error) {
	return dtn.Simulate(c, mode, msg)
}

// Batch-simulation engine.

// NewEngine returns a concurrent batch-simulation engine. Run a
// ScenarioSpec with (*Engine).Run; for a fixed spec and seed the Report
// is byte-identical at any worker count.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// ParseMode parses a waiting-mode name ("nowait", "wait", "wait:D" or
// "wait[D]") as used in ScenarioSpec.Modes.
func ParseMode(s string) (Mode, error) { return engine.ParseMode(s) }

// ParseModeList parses a comma-separated mode list, e.g. "nowait,wait:2,wait".
func ParseModeList(s string) ([]Mode, error) { return engine.ParseModeList(s) }

// Telemetry (see DESIGN.md §8).

// NewRegistry returns an empty telemetry registry. Registration is
// startup-time configuration; the instruments' hot-path operations are
// lock-free and allocation-free.
func NewRegistry() *Registry { return obs.NewRegistry() }

// WithCacheTrace derives a context whose engine cache lookups record
// into the returned trace — per-request warm/cold attribution.
func WithCacheTrace(ctx context.Context) (context.Context, *CacheTrace) {
	return engine.WithCacheTrace(ctx)
}

// Cancellation and overload control (see DESIGN.md §10).

// ErrCanceled tags every sweep or flood aborted by its context; errors
// also wrap the context's own error, so both errors.Is(err, ErrCanceled)
// and errors.Is(err, context.Canceled / DeadlineExceeded) match.
var ErrCanceled = journey.ErrCanceled

// ErrTooLarge tags engine requests whose predicted result footprint
// exceeds EngineOptions.MaxCacheBytes; rejected at admission, before
// any matrix memory is allocated.
var ErrTooLarge = engine.ErrTooLarge

// DeliverCtx is Deliver with a cancellation checkpoint threaded into
// the epidemic flood (see Sweep).
func DeliverCtx(ctx context.Context, c *Compiled, mode Mode, msg Message) (DeliveryResult, error) {
	return dtn.SimulateCtx(ctx, c, mode, msg)
}

// Incremental suffix-replay: live-filled contact sets and resumable
// sweeps (see DESIGN.md §11).

type (
	// ContactRecord is one contact of an append batch: endpoints and
	// times, no edge id — AppendContacts assigns fresh ids per batch.
	ContactRecord = tvg.ContactRecord
	// SweepCheckpoint is a resumable bit-parallel sweep frozen at a
	// revision's watermark: resuming on a later revision of the same
	// lineage replays only the appended suffix, bit-identical to a cold
	// sweep of the full set.
	SweepCheckpoint = journey.SweepCheckpoint
	// FloodCheckpoint is the epidemic-flood analogue of SweepCheckpoint.
	FloodCheckpoint = dtn.FloodCheckpoint
	// BroadcastResult summarises one epidemic broadcast flood.
	BroadcastResult = dtn.BroadcastResult
)

// SweepCheckpointed is Sweep plus a SweepCheckpoint frozen at c's
// watermark: after extending c with AppendContacts (or Builder.Extend),
// ck.Advance(ctx, c2, workers, st) replays only the appended suffix and
// returns the result a cold Sweep of c2 would — bit-identical at every
// width.
func SweepCheckpointed(ctx context.Context, c *Compiled, ladder Ladder, t0 Time, o SweepOpts) (*SpectrumResult, *SweepCheckpoint, error) {
	return journey.SweepCheckpointed(ctx, c, ladder, t0, o)
}

// BroadcastCheckpointed floods from src and returns a FloodCheckpoint
// that resumes the flood over appended suffixes, bit-identical to a
// cold flood of the extended set.
func BroadcastCheckpointed(c *Compiled, mode Mode, src Node, t0 Time) (BroadcastResult, *FloodCheckpoint, error) {
	return dtn.BroadcastCheckpointed(c, mode, src, t0)
}
