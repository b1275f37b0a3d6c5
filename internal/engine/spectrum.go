package engine

import (
	"context"
	"fmt"

	"tvgwait/internal/faultinject"
	"tvgwait/internal/journey"
	"tvgwait/internal/tvg"
)

// SpectrumRequest asks for the waiting spectrum of a generated network:
// the all-pairs journey metrics of an entire ladder of waiting budgets
// {nowait, d1 < … < dK, wait}, computed by ONE bit-parallel contact
// sweep instead of one per budget. This is the paper's inclusion chain
// L_nowait ⊆ L_wait[d] ⊆ L_wait[d'] ⊆ L_wait measured at the network
// level — what changes as you allow more waiting.
type SpectrumRequest struct {
	// Graph declares the network generator.
	Graph GraphSpec `json:"graph"`
	// Seed is the generator seed.
	Seed int64 `json:"seed,omitempty"`
	// Modes lists the ladder's waiting budgets in ParseMode syntax. The
	// ladder is normalized — sorted from least to most permissive,
	// duplicates (including wait:0 ≡ nowait) collapsed — and the
	// response carries one rung per normalized budget. Empty defaults
	// to ["nowait","wait:1","wait:2","wait:4","wait:8","wait"].
	Modes []string `json:"modes,omitempty"`
	// T0 is the earliest departure time (default 0).
	T0 tvg.Time `json:"t0,omitempty"`
}

// defaultLadder is the spectrum ladder used when a request names no
// modes: the two ends of the expressivity gap plus a geometric sweep of
// bounded budgets between them.
var defaultLadder = []string{"nowait", "wait:1", "wait:2", "wait:4", "wait:8", "wait"}

// SpectrumReport is the per-rung metric table of one compiled network,
// least permissive rung first.
type SpectrumReport struct {
	Model    string   `json:"model"`
	Nodes    int      `json:"nodes"`
	Horizon  tvg.Time `json:"horizon"`
	Seed     int64    `json:"seed"`
	T0       tvg.Time `json:"t0"`
	Contacts int      `json:"contacts"`
	// Rungs holds one metrics row per normalized ladder rung.
	Rungs []ModeMetrics `json:"rungs"`
	// FirstConnected names the least permissive rung at which the
	// network is temporally connected — the critical waiting budget.
	// Empty if no rung connects it.
	FirstConnected string `json:"firstConnected,omitempty"`
}

// Spectrum resolves a spectrum request as one ladder query (see
// ladderRows): the whole ladder costs one wait-spectrum sweep (its
// 64-source blocks fanned across the engine's worker width) and one
// cache entry per (spec, seed, t0, ladder). Rows come back one per
// normalized rung, least permissive first.
func (e *Engine) Spectrum(ctx context.Context, req SpectrumRequest) (*SpectrumReport, error) {
	if len(req.Modes) == 0 {
		req.Modes = defaultLadder
	}
	q, err := e.ladderRows(ctx, req.Graph, req.Seed, req.T0, req.Modes)
	if err != nil {
		return nil, err
	}
	report := &SpectrumReport{
		Model: req.Graph.Model, Nodes: q.c.Graph().NumNodes(), Horizon: q.c.Horizon(),
		Seed: req.Seed, T0: req.T0, Contacts: q.c.NumContacts(),
		Rungs: make([]ModeMetrics, len(q.rows)),
	}
	for i, row := range q.rows {
		report.Rungs[i] = *row
		if report.FirstConnected == "" && row.Connected {
			report.FirstConnected = row.Mode
		}
	}
	return report, nil
}

// ladderQuery is one answered ladder query: the contact set swept, the
// request's parsed modes, their normalized ladder and its rows, least
// permissive first. The rows are shared with a cache; treat them as
// read-only (Metrics copies before relabelling).
type ladderQuery struct {
	c      *tvg.ContactSet
	modes  []journey.Mode
	ladder journey.Ladder
	rows   []*ModeMetrics
}

// ladderRows is the one read path of Metrics and Spectrum: it turns
// (generated graph or stream, seed, t0, mode names) into the metric
// rows of the normalized ladder. A generated graph's rows come from
// the spectra cache (spectrumRows), a stream's from the checkpoint
// cache (streamSpectrumRows, suffix replay per revision). The ladder is
// normalized BEFORE any contact set is built, so the admission check
// prices the exact rung count.
func (e *Engine) ladderRows(ctx context.Context, g GraphSpec, seed int64, t0 tvg.Time, names []string) (*ladderQuery, error) {
	modes, err := ParseModes(names)
	if err != nil {
		return nil, err
	}
	if len(modes) > maxModes {
		return nil, specErr("at most %d modes, got %d", maxModes, len(modes))
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	q := &ladderQuery{modes: modes}
	nodes, horizon := g.Nodes, g.Horizon
	if g.Model == "stream" {
		if q.c, err = e.streamSet(g.Stream); err != nil {
			return nil, err
		}
		nodes, horizon = q.c.Graph().NumNodes(), q.c.Horizon()
	}
	if t0 < 0 || t0 > horizon {
		return nil, specErr("t0 %d outside [0, %d]", t0, horizon)
	}
	if q.ladder, err = journey.NewLadder(modes...); err != nil {
		return nil, specErr("%v", err)
	}
	if err := e.admitFootprint(nodes, q.ladder.Len()); err != nil {
		return nil, err
	}
	if q.c != nil {
		q.rows, err = e.streamSpectrumRows(ctx, g.Stream, q.c, t0, q.ladder)
	} else if q.c, err = e.contactSet(ctx, g, seed); err == nil {
		q.rows, err = e.spectrumRows(ctx, q.c, g, seed, t0, q.ladder)
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

// spectrumRows returns the per-rung metric rows of (spec, seed, t0,
// ladder): one ladder sweep, cached as a single spectra LRU entry
// keyed by the normalized ladder.
func (e *Engine) spectrumRows(ctx context.Context, c *tvg.ContactSet, g GraphSpec, seed int64, t0 tvg.Time, ladder journey.Ladder) ([]*ModeMetrics, error) {
	key := fmt.Sprintf("%s|t0%d|ladder:%s", g.key(seed), t0, ladder)
	rows, hit, err := e.spectra.get(ctx, key, func() ([]*ModeMetrics, error) {
		if err := e.fault.Fire(faultinject.SiteSweep); err != nil {
			return nil, err
		}
		res, err := journey.Sweep(e.baseCtx, c, ladder, t0, journey.SweepOpts{Workers: e.workers, Stats: &e.sweeps})
		if err != nil {
			return nil, err
		}
		return rungRows(res), nil
	})
	if err == nil {
		traceFrom(ctx).record(hit)
	}
	return rows, err
}

// rungRows summarizes every rung of a sweep into its metrics row.
func rungRows(res *journey.SpectrumResult) []*ModeMetrics {
	rows := make([]*ModeMetrics, res.NumRungs())
	for i := range rows {
		rows[i] = metricsFromMatrix(res.Mode(i), res.Arrivals(i))
	}
	return rows
}
