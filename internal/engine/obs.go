package engine

import (
	"context"
	"sync/atomic"

	"tvgwait/internal/obs"
)

// CacheTrace accumulates the cache-lookup outcomes of one request, so a
// caller (the HTTP access log, a batch driver) can tell whether the
// work it paid for was served warm. Attach one to a context with
// WithCacheTrace; every engine cache consulted under that context
// records into it. Safe for concurrent use — lookups inside a worker
// fan-out record from many goroutines.
type CacheTrace struct {
	hits, misses atomic.Int64
}

// record folds one lookup outcome in; a nil receiver (no trace on the
// context) is a no-op, so call sites never branch.
func (t *CacheTrace) record(hit bool) {
	if t == nil {
		return
	}
	if hit {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
}

// Hits returns the lookups served from an existing entry.
func (t *CacheTrace) Hits() int64 { return t.hits.Load() }

// Misses returns the lookups that had to build.
func (t *CacheTrace) Misses() int64 { return t.misses.Load() }

// Touched reports whether any engine cache was consulted at all (false
// for requests that never reach a cache, e.g. spec validation errors).
func (t *CacheTrace) Touched() bool { return t.hits.Load()+t.misses.Load() > 0 }

// Warm reports a fully cache-served request: at least one lookup and
// not a single build.
func (t *CacheTrace) Warm() bool { return t.misses.Load() == 0 && t.hits.Load() > 0 }

// traceKey keys a *CacheTrace on a context.
type traceKey struct{}

// WithCacheTrace derives a context whose engine cache lookups record
// into the returned trace.
func WithCacheTrace(ctx context.Context) (context.Context, *CacheTrace) {
	tr := new(CacheTrace)
	return context.WithValue(ctx, traceKey{}, tr), tr
}

// traceFrom extracts the context's trace, or nil.
func traceFrom(ctx context.Context) *CacheTrace {
	tr, _ := ctx.Value(traceKey{}).(*CacheTrace)
	return tr
}

// wireObs registers the engine's instruments on r (called from New when
// Options.Obs is set). Names and semantics are part of the telemetry
// contract pinned in DESIGN.md §8.
func (e *Engine) wireObs(r *obs.Registry) {
	caches := []struct {
		name                               string
		hits, misses, coalesced, evictions *obs.Counter
		entries                            func() int
		bytes                              func() int64
	}{
		{"schedule", nil, nil, nil, nil, e.cache.len, e.cache.bytes},
		{"spectra", nil, nil, nil, nil, e.spectra.len, e.spectra.bytes},
	}
	caches[0].hits, caches[0].misses, caches[0].coalesced, caches[0].evictions = e.cache.counters()
	caches[1].hits, caches[1].misses, caches[1].coalesced, caches[1].evictions = e.spectra.counters()
	for _, cv := range caches {
		lbl := `cache="` + cv.name + `"`
		r.RegisterCounter("tvg_engine_cache_hits_total", lbl,
			"lookups served from an existing completed entry", cv.hits)
		r.RegisterCounter("tvg_engine_cache_misses_total", lbl,
			"lookups that created the entry (cold builds)", cv.misses)
		r.RegisterCounter("tvg_engine_cache_coalesced_total", lbl,
			"lookups that joined an in-flight build instead of starting one", cv.coalesced)
		r.RegisterCounter("tvg_engine_cache_evictions_total", lbl,
			"entries dropped at capacity or by the byte budget (LRU tail)", cv.evictions)
		entries := cv.entries
		r.GaugeFunc("tvg_engine_cache_entries", lbl,
			"live cache entries", func() int64 { return int64(entries()) })
		r.GaugeFunc("tvg_engine_cache_bytes", lbl,
			"estimated bytes held by cache entries", cv.bytes)
	}
	r.RegisterCounter("tvg_engine_checkpoint_hits_total", "",
		"stream sweep requests served at the already-checkpointed revision", &e.checkpoints.hits)
	r.RegisterCounter("tvg_engine_checkpoint_advances_total", "",
		"checkpointed sweeps advanced incrementally by suffix replay", &e.checkpoints.advances)
	r.RegisterCounter("tvg_engine_checkpoint_cold_builds_total", "",
		"checkpointed sweeps built cold (first request, dead lineage or poisoned)", &e.checkpoints.cold)
	r.RegisterCounter("tvg_engine_checkpoint_evictions_total", "",
		"checkpoint entries dropped at capacity or by the byte budget", &e.checkpoints.evictions)
	r.GaugeFunc("tvg_engine_checkpoint_entries", "",
		"live checkpoint-cache entries", func() int64 { return int64(e.checkpoints.len()) })
	r.GaugeFunc("tvg_engine_checkpoint_bytes", "",
		"estimated bytes pinned by checkpoint entries (scratch arenas + rows)", e.checkpoints.bytes)
	r.GaugeFunc("tvg_engine_streams", "",
		"registered live contact streams", e.numStreams)
	r.RegisterCounter("tvg_engine_builder_drops_total", "",
		"pooled builders dropped at the arena retention cap", &e.builderDrops)
	if e.budget != nil {
		r.GaugeFunc("tvg_engine_cache_budget_bytes", "",
			"configured cache byte budget (Options.MaxCacheBytes)", func() int64 { return e.maxBytes })
		r.GaugeFunc("tvg_engine_cache_budget_used_bytes", "",
			"bytes charged against the shared cache byte budget", e.budget.used)
	}
	r.RegisterGauge("tvg_engine_tasks_inflight", "",
		"worker-pool tasks currently executing", &e.busy)
	r.RegisterHistogram("tvg_engine_task_ns", "",
		"worker-pool task wall time in nanoseconds", e.taskDur)
	r.RegisterHistogram("tvg_engine_build_ns", "",
		"cold contact-set generation+compile wall time in nanoseconds", e.buildDur)
	e.sweeps.Register(r, "tvg_sweep")
}
