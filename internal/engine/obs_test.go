package engine

import (
	"context"
	"strings"
	"testing"

	"tvgwait/internal/obs"
)

// TestEngineObsWiring exercises the full telemetry surface of an
// instrumented engine: cache hit/miss/eviction counters, byte and entry
// gauges, pool occupancy, sweep stats and the per-request cache trace.
func TestEngineObsWiring(t *testing.T) {
	r := obs.NewRegistry()
	e := New(Options{Workers: 2, CacheSize: 2, Obs: r})
	spec := markovSpec()
	ctx := context.Background()

	// Cold run: every replicate's schedule is a miss.
	mustRun(t, e, spec)
	hits, misses, _, _ := e.cache.counters()
	if misses.Value() != int64(spec.Replicates) {
		t.Fatalf("cold run: schedule misses = %d, want %d", misses.Value(), spec.Replicates)
	}
	if got := e.cache.bytes(); got <= 0 {
		t.Fatalf("schedule cache bytes = %d after cold run, want > 0", got)
	}

	// CacheSize 2 with 3 replicates: the cold run must have evicted.
	_, _, _, evictions := e.cache.counters()
	if evictions.Value() != int64(spec.Replicates-2) {
		t.Fatalf("evictions = %d, want %d", evictions.Value(), spec.Replicates-2)
	}

	// Warm ContactSet on the resident newest entry is a pure hit.
	before := hits.Value()
	if _, err := e.ContactSet(spec.Graph, graphSeed(spec.Seed, spec.Replicates-1)); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != before+1 {
		t.Fatalf("warm lookup: hits %d -> %d, want +1", before, hits.Value())
	}

	// Metrics runs the sweeps and must report block work.
	mreq := MetricsRequest{Graph: spec.Graph, Seed: 1, Modes: []string{"wait"}}
	if _, err := e.Metrics(ctx, mreq); err != nil {
		t.Fatal(err)
	}
	if e.sweeps.Blocks.Value() <= 0 {
		t.Fatalf("sweep Blocks = %d after Metrics, want > 0", e.sweeps.Blocks.Value())
	}

	// Cache trace: first metrics request under a trace is warm only if
	// repeated; a fresh seed must record a miss.
	tctx, tr := WithCacheTrace(ctx)
	if _, err := e.Metrics(tctx, MetricsRequest{Graph: spec.Graph, Seed: 99, Modes: []string{"wait"}}); err != nil {
		t.Fatal(err)
	}
	if !tr.Touched() || tr.Warm() {
		t.Fatalf("cold metrics trace: touched=%v warm=%v (hits=%d misses=%d)",
			tr.Touched(), tr.Warm(), tr.Hits(), tr.Misses())
	}
	tctx2, tr2 := WithCacheTrace(ctx)
	if _, err := e.Metrics(tctx2, MetricsRequest{Graph: spec.Graph, Seed: 99, Modes: []string{"wait"}}); err != nil {
		t.Fatal(err)
	}
	if !tr2.Warm() {
		t.Fatalf("repeated metrics trace not warm: hits=%d misses=%d", tr2.Hits(), tr2.Misses())
	}

	// Tasks ran through the instrumented pool: occupancy is back to zero
	// and every task priced into the histogram.
	if e.busy.Value() != 0 {
		t.Fatalf("tasks_inflight = %d at rest, want 0", e.busy.Value())
	}
	if e.taskDur.Count() <= 0 {
		t.Fatal("task-duration histogram empty after a run")
	}
	if e.buildDur.Count() <= 0 {
		t.Fatal("build-duration histogram empty after cold builds")
	}

	// The registry carries the full contract surface.
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`tvg_engine_cache_hits_total{cache="schedule"}`,
		`tvg_engine_cache_misses_total{cache="spectra"}`,
		`tvg_engine_cache_evictions_total{cache="spectra"}`,
		`tvg_engine_cache_entries{cache="schedule"}`,
		`tvg_engine_cache_bytes{cache="schedule"}`,
		"tvg_engine_tasks_inflight",
		"tvg_engine_task_ns_count",
		"tvg_engine_build_ns_count",
		"tvg_sweep_blocks_total",
		"tvg_sweep_contacts_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q", want)
		}
	}
	// Single-mode metrics share the spectra cache: no per-mode series.
	if strings.Contains(out, `cache="metrics"`) {
		t.Error(`WriteProm output still carries cache="metrics" series`)
	}
}

// TestEngineObsOptional pins that an un-wired engine still works and
// still tallies (Options.Obs only exposes, never enables).
func TestEngineObsOptional(t *testing.T) {
	e := New(Options{Workers: 2})
	mustRun(t, e, markovSpec())
	_, misses, _, _ := e.cache.counters()
	if misses.Value() <= 0 {
		t.Fatal("un-wired engine did not tally cache misses")
	}
}

// TestCacheTraceNil pins that trace-free contexts cost nothing and that
// the nil receiver is safe (call sites never branch).
func TestCacheTraceNil(t *testing.T) {
	var tr *CacheTrace
	tr.record(true) // must not panic
	if traceFrom(context.Background()) != nil {
		t.Fatal("traceFrom on a bare context should be nil")
	}
}
