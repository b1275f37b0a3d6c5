package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"tvgwait/internal/dtn"
	"tvgwait/internal/gen"
	"tvgwait/internal/journey"
	"tvgwait/internal/tvg"
)

// ErrInvalidSpec tags every spec-validation failure, so callers (notably
// cmd/tvgserve) can map them to client errors without string matching.
var ErrInvalidSpec = errors.New("engine: invalid spec")

func specErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// Safety caps on declarative inputs. They bound a single run's memory and
// CPU to something a multi-tenant server can absorb; the library layers
// underneath (gen, dtn) accept arbitrarily large inputs.
const (
	maxNodes      = 4096
	maxHorizon    = 1_000_000
	maxMessages   = 1_000_000
	maxReplicates = 10_000
	maxModes      = 64
	// maxWork bounds nodes² × horizon — the worst-case contact count a
	// single epidemic flood scans. Floods are not context-interruptible
	// mid-run, so this is what keeps one task's latency to seconds
	// rather than hours on a dense network.
	maxWork = 1 << 31
	// maxTasks bounds replicates × modes × messages, the total number
	// of floods (and result slots) of one run.
	maxTasks = 1 << 21
)

// GraphSpec declares a generated time-varying network. Model selects the
// generator; the remaining fields parameterize it (unused fields are
// ignored by the other models).
type GraphSpec struct {
	// Model is one of "markov", "bernoulli", "mobility", "periodic", or
	// "stream" — the last selects no generator at all: the spec names a
	// live-filled contact stream (Stream) registered on the engine via
	// CreateStream/AppendStream, and Metrics/Spectrum answer against its
	// current revision through the incremental checkpoint cache. The
	// generator fields (Nodes, Horizon, probabilities …) are ignored for
	// streams; the stream carries its own shape.
	Model string `json:"model"`
	// Stream names the live contact stream a "stream" spec reads.
	Stream string `json:"stream,omitempty"`
	// Nodes is the number of nodes (walkers for mobility).
	Nodes int `json:"nodes"`
	// Birth and Death are the per-tick edge transition probabilities
	// (markov).
	Birth float64 `json:"birth,omitempty"`
	Death float64 `json:"death,omitempty"`
	// P is the per-tick presence probability (bernoulli).
	P float64 `json:"p,omitempty"`
	// Width and Height size the torus grid (mobility).
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Edges, MaxPeriod, AlphabetSize and MaxLatency parameterize the
	// random periodic generator (periodic).
	Edges        int      `json:"edges,omitempty"`
	MaxPeriod    int      `json:"maxPeriod,omitempty"`
	AlphabetSize int      `json:"alphabetSize,omitempty"`
	MaxLatency   tvg.Time `json:"maxLatency,omitempty"`
	// Horizon is the last simulated tick.
	Horizon tvg.Time `json:"horizon"`
	// SkipSampling opts the markov and bernoulli models into geometric
	// run-length sampling: O(contacts) RNG draws per replicate instead
	// of O(nodes²·horizon). The generated distribution is identical but
	// the RNG stream is not — a given seed draws a different (equally
	// valid) realisation — so results are only comparable to other runs
	// with the same setting (it is part of the schedule-cache key).
	// Ignored by the other models. See gen.EdgeMarkovianParams.
	SkipSampling bool `json:"skipSampling,omitempty"`
}

func (g GraphSpec) validate() error {
	switch g.Model {
	case "markov", "bernoulli", "mobility", "periodic":
	case "stream":
		if g.Stream == "" {
			return specErr("stream model needs a stream name")
		}
		return nil // shape caps were enforced when the stream was created
	default:
		return specErr("unknown model %q (want markov | bernoulli | mobility | periodic | stream)", g.Model)
	}
	if g.Nodes < 2 || g.Nodes > maxNodes {
		return specErr("nodes must be in [2, %d], got %d", maxNodes, g.Nodes)
	}
	if g.Horizon < 0 || g.Horizon > maxHorizon {
		return specErr("horizon must be in [0, %d], got %d", maxHorizon, g.Horizon)
	}
	if work := int64(g.Nodes) * int64(g.Nodes) * (g.Horizon + 1); work > maxWork {
		return specErr("nodes² × horizon is %d, above the per-flood work bound %d", work, int64(maxWork))
	}
	for _, p := range []struct {
		name  string
		value float64
	}{{"birth", g.Birth}, {"death", g.Death}, {"p", g.P}} {
		if !(p.value >= 0 && p.value <= 1) { // NaN fails too
			return specErr("%s must be in [0, 1], got %g", p.name, p.value)
		}
	}
	if g.Width < 0 || g.Height < 0 || g.Edges < 0 || g.MaxPeriod < 0 || g.AlphabetSize < 0 || g.MaxLatency < 0 {
		return specErr("negative generator parameter")
	}
	return nil
}

// markovParams assembles the edge-Markovian parameters of a markov or
// bernoulli spec.
func (g GraphSpec) markovParams(seed int64) gen.EdgeMarkovianParams {
	p := gen.EdgeMarkovianParams{
		Nodes: g.Nodes, PBirth: g.Birth, PDeath: g.Death,
		Horizon: g.Horizon, Seed: seed, SkipSampling: g.SkipSampling,
	}
	if g.Model == "bernoulli" {
		p.PBirth, p.PDeath = g.P, 1-g.P
	}
	return p
}

// mobilityParams applies the mobility defaults.
func (g GraphSpec) mobilityParams(seed int64) gen.MobilityParams {
	width, height := g.Width, g.Height
	if width == 0 {
		width = 6
	}
	if height == 0 {
		height = 6
	}
	return gen.MobilityParams{
		Width: width, Height: height, Nodes: g.Nodes,
		Horizon: g.Horizon, Seed: seed,
	}
}

// periodicParams applies the random-periodic defaults.
func (g GraphSpec) periodicParams(seed int64) gen.PeriodicParams {
	edges, period, alpha, lat := g.Edges, g.MaxPeriod, g.AlphabetSize, g.MaxLatency
	if edges == 0 {
		edges = 2 * g.Nodes
	}
	if period == 0 {
		period = 4
	}
	if alpha == 0 {
		alpha = 2
	}
	if lat == 0 {
		lat = 1
	}
	return gen.PeriodicParams{
		Nodes: g.Nodes, Edges: edges, MaxPeriod: period,
		AlphabetSize: alpha, MaxLatency: lat, Seed: seed,
	}
}

// Build generates the graph of this spec for the given seed, via the
// graph-building generator paths. The engine's own replicate loop uses
// BuildContacts instead; Build is kept for callers that need the
// *tvg.Graph (rendering, re-compiling at other horizons).
func (g GraphSpec) Build(seed int64) (*tvg.Graph, error) {
	switch g.Model {
	case "markov", "bernoulli":
		return gen.EdgeMarkovianGraph(g.markovParams(seed))
	case "mobility":
		return gen.GridMobilityGraph(g.mobilityParams(seed))
	case "periodic":
		return gen.RandomPeriodicGraph(g.periodicParams(seed))
	default:
		return nil, specErr("unknown model %q", g.Model)
	}
}

// BuildContacts generates the contact schedule of this spec for the
// given seed, streaming straight into b (nil for a one-shot builder) —
// the same ContactSet Build+Compile yields, without the intermediate
// graph schedules or the compile rescan.
func (g GraphSpec) BuildContacts(seed int64, b *tvg.Builder) (*tvg.ContactSet, error) {
	switch g.Model {
	case "markov", "bernoulli":
		return gen.EdgeMarkovian(g.markovParams(seed), b)
	case "mobility":
		return gen.GridMobility(g.mobilityParams(seed), b)
	case "periodic":
		return gen.RandomPeriodic(g.periodicParams(seed), g.Horizon, b)
	default:
		return nil, specErr("unknown model %q", g.Model)
	}
}

// key is the schedule-cache key of (spec, seed). It covers every field
// that influences the compiled schedule — SkipSampling included, since
// it selects a different RNG stream.
func (g GraphSpec) key(seed int64) string {
	return fmt.Sprintf("%s|n%d|b%g|d%g|p%g|w%d|h%d|e%d|mp%d|a%d|ml%d|hz%d|ss%t|s%d",
		g.Model, g.Nodes, g.Birth, g.Death, g.P, g.Width, g.Height,
		g.Edges, g.MaxPeriod, g.AlphabetSize, g.MaxLatency, g.Horizon, g.SkipSampling, seed)
}

// ScenarioSpec declares one batch-simulation scenario: a generated
// network, a set of waiting modes, and either a random unicast workload
// (Broadcast == nil) or a broadcast source (Broadcast != nil), replicated
// Replicates times with independent seed-derived streams.
type ScenarioSpec struct {
	// Graph declares the network generator.
	Graph GraphSpec `json:"graph"`
	// Modes lists waiting budgets: "nowait", "wait", "wait:D" (or the
	// display form "wait[D]"). Empty defaults to ["nowait", "wait"].
	Modes []string `json:"modes,omitempty"`
	// Messages sizes the random unicast workload per replicate
	// (default 50; ignored for broadcast scenarios).
	Messages int `json:"messages,omitempty"`
	// Broadcast, when set, floods from this node at t=0 instead of
	// running the unicast sweep.
	Broadcast *tvg.Node `json:"broadcast,omitempty"`
	// Replicates regenerates the scenario with derived seeds and pools
	// the results (default 1).
	Replicates int `json:"replicates,omitempty"`
	// Seed roots every random stream of the run.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the worker pool (default: engine setting).
	Workers int `json:"workers,omitempty"`
	// CrossCheck additionally validates every unicast simulation
	// against an independent journey search (foremost arrival); a
	// mismatch fails the run. Expensive; meant for tests and audits.
	CrossCheck bool `json:"crossCheck,omitempty"`
}

func (s ScenarioSpec) withDefaults() ScenarioSpec {
	if len(s.Modes) == 0 {
		s.Modes = []string{"nowait", "wait"}
	}
	if s.Messages == 0 {
		s.Messages = 50
	}
	if s.Replicates == 0 {
		s.Replicates = 1
	}
	return s
}

func (s ScenarioSpec) validate() error {
	if err := s.Graph.validate(); err != nil {
		return err
	}
	if s.Graph.Model == "stream" {
		// Batch scenarios derive workloads and broadcast sources from the
		// spec's declared node count, which a stream spec does not carry;
		// live streams serve the Metrics and Spectrum paths instead.
		return specErr("stream networks serve /metrics and /spectrum, not batch simulation")
	}
	if len(s.Modes) > maxModes {
		return specErr("at most %d modes, got %d", maxModes, len(s.Modes))
	}
	if s.Messages < 1 || s.Messages > maxMessages {
		return specErr("messages must be in [1, %d], got %d", maxMessages, s.Messages)
	}
	if s.Replicates < 1 || s.Replicates > maxReplicates {
		return specErr("replicates must be in [1, %d], got %d", maxReplicates, s.Replicates)
	}
	if tasks := int64(s.Replicates) * int64(len(s.Modes)) * int64(s.Messages); s.Broadcast == nil && tasks > maxTasks {
		return specErr("replicates × modes × messages is %d, above the per-run bound %d", tasks, int64(maxTasks))
	}
	if s.Broadcast != nil && (*s.Broadcast < 0 || int(*s.Broadcast) >= s.Graph.Nodes) {
		return specErr("broadcast source %d outside [0, %d)", *s.Broadcast, s.Graph.Nodes)
	}
	if s.Workers < 0 {
		return specErr("workers must be >= 0, got %d", s.Workers)
	}
	return nil
}

// WorkloadFor returns replicate rep's unicast workload: Messages random
// (src, dst) pairs with src != dst created at t=0, drawn from the
// replicate's workload stream. The drawing scheme matches dtn.Sweep, so
// replicate 0 reproduces the historical single-run workload for the same
// seed.
func (s ScenarioSpec) WorkloadFor(rep int) []dtn.Message {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(workloadSeed(s.Seed, rep)))
	n := s.Graph.Nodes
	msgs := make([]dtn.Message, s.Messages)
	for i := range msgs {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		msgs[i] = dtn.Message{ID: i, Src: tvg.Node(src), Dst: tvg.Node(dst)}
	}
	return msgs
}

// ParseMode parses one waiting-mode name: "nowait", "wait", "wait:D" or
// the display form "wait[D]".
func ParseMode(s string) (journey.Mode, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "nowait":
		return journey.NoWait(), nil
	case s == "wait":
		return journey.Wait(), nil
	case strings.HasPrefix(s, "wait:"):
		return parseBound(s, strings.TrimPrefix(s, "wait:"))
	case strings.HasPrefix(s, "wait[") && strings.HasSuffix(s, "]"):
		return parseBound(s, s[len("wait["):len(s)-1])
	default:
		return journey.Mode{}, specErr("unknown mode %q", s)
	}
}

func parseBound(whole, digits string) (journey.Mode, error) {
	d, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || d < 0 {
		return journey.Mode{}, specErr("invalid mode %q", whole)
	}
	return journey.BoundedWait(d), nil
}

// ParseModes parses a list of mode names (see ParseMode). It rejects an
// empty list.
func ParseModes(names []string) ([]journey.Mode, error) {
	if len(names) == 0 {
		return nil, specErr("no modes given")
	}
	out := make([]journey.Mode, len(names))
	for i, name := range names {
		m, err := ParseMode(name)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// ParseModeList parses a comma-separated mode list, e.g.
// "nowait,wait:2,wait".
func ParseModeList(s string) ([]journey.Mode, error) {
	parts := strings.Split(s, ",")
	names := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			names = append(names, p)
		}
	}
	return ParseModes(names)
}

// ModeStrings renders modes back to their canonical names, accepted by
// ParseMode.
func ModeStrings(modes []journey.Mode) []string {
	out := make([]string, len(modes))
	for i, m := range modes {
		out[i] = m.String()
	}
	return out
}
