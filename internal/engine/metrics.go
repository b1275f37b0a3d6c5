package engine

import (
	"context"
	"slices"

	"tvgwait/internal/journey"
	"tvgwait/internal/tvg"
)

// MetricsRequest asks for the all-pairs journey metrics of a generated
// network: temporal connectivity, temporal diameter and the per-source
// eccentricity distribution, per waiting mode. These are the
// paper-level questions ("connected under Wait but not NoWait?", "how
// usable is the network?") answered by the bit-parallel multi-source
// sweep instead of N² single-source searches.
type MetricsRequest struct {
	// Graph declares the network generator.
	Graph GraphSpec `json:"graph"`
	// Seed is the generator seed.
	Seed int64 `json:"seed,omitempty"`
	// Modes lists waiting budgets in ParseMode syntax. Empty defaults
	// to ["nowait", "wait"] — the two ends of the expressivity gap.
	Modes []string `json:"modes,omitempty"`
	// T0 is the earliest departure time (default 0).
	T0 tvg.Time `json:"t0,omitempty"`
}

// ModeMetrics is one waiting mode's all-pairs metrics row.
type ModeMetrics struct {
	// Mode is the canonical mode name.
	Mode string `json:"mode"`
	// Connected reports temporal connectivity: every ordered node pair
	// is joined by a feasible journey departing no earlier than t0.
	Connected bool `json:"connected"`
	// ReachablePairs counts ordered (src, dst) pairs with a feasible
	// journey (diagonal included); TotalPairs is nodes².
	ReachablePairs int `json:"reachablePairs"`
	TotalPairs     int `json:"totalPairs"`
	// Diameter is the worst foremost delay over all ordered pairs, in
	// ticks; -1 when not temporally connected (undefined).
	Diameter tvg.Time `json:"diameter"`
	// EccMin / EccP50 / EccP90 / EccMax summarize the per-source
	// eccentricity distribution (nearest-rank quantiles, matching the
	// latency quantiles of Report); all -1 when not connected.
	EccMin tvg.Time `json:"eccMin"`
	EccP50 tvg.Time `json:"eccP50"`
	EccP90 tvg.Time `json:"eccP90"`
	EccMax tvg.Time `json:"eccMax"`
	// EccHistogram[i] counts the sources with temporal eccentricity i
	// ticks (length EccMax+1). Omitted when not connected, or when the
	// diameter exceeds maxEccHistogram buckets (a response-size guard).
	// The slice is shared with the engine's cache; treat as read-only.
	EccHistogram []int `json:"eccHistogram,omitempty"`
}

// MetricsReport aggregates the per-mode metric rows of one compiled
// network.
type MetricsReport struct {
	Model    string        `json:"model"`
	Nodes    int           `json:"nodes"`
	Horizon  tvg.Time      `json:"horizon"`
	Seed     int64         `json:"seed"`
	T0       tvg.Time      `json:"t0"`
	Contacts int           `json:"contacts"`
	Modes    []ModeMetrics `json:"modes"`
}

// maxEccHistogram bounds the histogram length a single mode row will
// carry, so a million-tick diameter cannot balloon a JSON response.
const maxEccHistogram = 4096

// Metrics resolves a metrics request as one ladder query (see
// ladderRows): every requested mode is a rung of the normalized ladder,
// so the whole request costs one bit-parallel all-pairs sweep
// (O(⌈N/64⌉ · contacts) contact visits rather than N² Foremost
// searches) and one cache entry — a single mode is a one-rung ladder
// and shares its entry with the equivalent Spectrum request. Rows come
// back in request order, each labelled in the request's form.
func (e *Engine) Metrics(ctx context.Context, req MetricsRequest) (*MetricsReport, error) {
	if len(req.Modes) == 0 {
		req.Modes = []string{"nowait", "wait"}
	}
	q, err := e.ladderRows(ctx, req.Graph, req.Seed, req.T0, req.Modes)
	if err != nil {
		return nil, err
	}
	report := &MetricsReport{
		Model: req.Graph.Model, Nodes: q.c.Graph().NumNodes(), Horizon: q.c.Horizon(),
		Seed: req.Seed, T0: req.T0, Contacts: q.c.NumContacts(),
	}
	for _, mode := range q.modes {
		i, _ := q.ladder.RungOf(mode)
		row := *q.rows[i]
		row.Mode = mode.String()
		report.Modes = append(report.Modes, row)
	}
	return report, nil
}

// metricsFromMatrix summarizes one rung's foremost-arrival matrix into
// a metrics row.
func metricsFromMatrix(mode journey.Mode, m *journey.ArrivalMatrix) *ModeMetrics {
	n := m.NumNodes()
	mm := &ModeMetrics{
		Mode:           mode.String(),
		ReachablePairs: m.ReachablePairs(),
		TotalPairs:     n * n,
		Diameter:       -1,
		EccMin:         -1, EccP50: -1, EccP90: -1, EccMax: -1,
	}
	mm.Connected = mm.ReachablePairs == mm.TotalPairs
	if !mm.Connected || n == 0 {
		return mm
	}
	eccs := make([]tvg.Time, n)
	for src := 0; src < n; src++ {
		eccs[src], _ = m.Eccentricity(tvg.Node(src))
	}
	slices.Sort(eccs)
	mm.EccMin = eccs[0]
	mm.EccP50 = quantile(eccs, 0.50)
	mm.EccP90 = quantile(eccs, 0.90)
	mm.EccMax = eccs[n-1]
	mm.Diameter = eccs[n-1]
	if int64(mm.EccMax) < maxEccHistogram {
		hist := make([]int, mm.EccMax+1)
		for _, e := range eccs {
			hist[e]++
		}
		mm.EccHistogram = hist
	}
	return mm
}
