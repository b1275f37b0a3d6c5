package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tvgwait/internal/journey"
	"tvgwait/internal/tvg"
)

func metricsGraph() GraphSpec {
	return GraphSpec{Model: "markov", Nodes: 14, Birth: 0.05, Death: 0.5, Horizon: 60}
}

// TestMetricsMatchesJourney pins the engine's metric rows to the
// journey-level implementations on the same compiled schedule.
func TestMetricsMatchesJourney(t *testing.T) {
	e := New(Options{})
	req := MetricsRequest{Graph: metricsGraph(), Seed: 5, Modes: []string{"nowait", "wait:4", "wait"}}
	rep, err := e.Metrics(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.ContactSet(req.Graph, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 14 || rep.Contacts != c.NumContacts() || len(rep.Modes) != 3 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	modes := []journey.Mode{journey.NoWait(), journey.BoundedWait(4), journey.Wait()}
	for i, mode := range modes {
		mm := rep.Modes[i]
		if mm.Mode != mode.String() {
			t.Fatalf("mode %d renders %q, want %q", i, mm.Mode, mode.String())
		}
		if got := journey.TemporallyConnected(c, mode, 0); got != mm.Connected {
			t.Errorf("%s: connected = %v, journey says %v", mm.Mode, mm.Connected, got)
		}
		d, ok := journey.TemporalDiameter(c, mode, 0)
		if ok != mm.Connected {
			t.Errorf("%s: diameter defined = %v, connected = %v", mm.Mode, ok, mm.Connected)
		}
		if ok && mm.Diameter != d {
			t.Errorf("%s: diameter = %d, journey says %d", mm.Mode, mm.Diameter, d)
		}
		if !ok && mm.Diameter != -1 {
			t.Errorf("%s: unconnected diameter = %d, want -1", mm.Mode, mm.Diameter)
		}
		ladder, err := journey.NewLadder(mode)
		if err != nil {
			t.Fatal(err)
		}
		res, err := journey.Sweep(context.Background(), c, ladder, 0, journey.SweepOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Arrivals(0).ReachablePairs(); got != mm.ReachablePairs {
			t.Errorf("%s: reachable pairs = %d, journey says %d", mm.Mode, mm.ReachablePairs, got)
		}
		if mm.TotalPairs != 14*14 {
			t.Errorf("%s: total pairs = %d, want %d", mm.Mode, mm.TotalPairs, 14*14)
		}
		if !mm.Connected {
			continue
		}
		// Histogram totals the sources; quantiles bracket the diameter.
		if mm.EccMax != mm.Diameter || mm.EccMin > mm.EccP50 || mm.EccP50 > mm.EccP90 || mm.EccP90 > mm.EccMax {
			t.Errorf("%s: eccentricity summary out of order: %+v", mm.Mode, mm)
		}
		total := 0
		for _, cnt := range mm.EccHistogram {
			total += cnt
		}
		if total != 14 {
			t.Errorf("%s: histogram sums to %d sources, want 14", mm.Mode, total)
		}
		for src := tvg.Node(0); src < 14; src++ {
			ecc, ok := journey.TemporalEccentricity(c, mode, src, 0)
			if !ok {
				t.Fatalf("%s: connected graph has undefined eccentricity at %d", mm.Mode, src)
			}
			if mm.EccHistogram[ecc] == 0 {
				t.Errorf("%s: histogram missing eccentricity %d of source %d", mm.Mode, ecc, src)
			}
		}
	}
}

// TestMetricsWaitDominatesNoWait checks the paper-level shape: waiting
// can only enlarge the reachable relation.
func TestMetricsWaitDominatesNoWait(t *testing.T) {
	e := New(Options{})
	rep, err := e.Metrics(context.Background(), MetricsRequest{Graph: metricsGraph(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Modes) != 2 {
		t.Fatalf("default modes = %d rows, want 2 (nowait, wait)", len(rep.Modes))
	}
	nowait, wait := rep.Modes[0], rep.Modes[1]
	if nowait.Mode != "nowait" || wait.Mode != "wait" {
		t.Fatalf("default mode order wrong: %q, %q", nowait.Mode, wait.Mode)
	}
	if wait.ReachablePairs < nowait.ReachablePairs {
		t.Errorf("wait reaches %d pairs, fewer than nowait's %d", wait.ReachablePairs, nowait.ReachablePairs)
	}
}

// TestMetricsCaching: every generated-graph Metrics request is one
// ladder query on the spectra LRU, keyed by (spec, seed, t0, normalized
// ladder). A repeat hits, a new t0 or seed misses, a multi-mode request
// pins ONE entry for its whole ladder, and a single-mode request shares
// its entry with the equivalent one-rung Spectrum request.
func TestMetricsCaching(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	req := MetricsRequest{Graph: metricsGraph(), Seed: 1, Modes: []string{"wait"}}
	if _, err := e.Metrics(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := e.spectra.len(); got != 1 {
		t.Fatalf("after first request cache holds %d entries, want 1", got)
	}
	if _, err := e.Metrics(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := e.spectra.len(); got != 1 {
		t.Fatalf("repeat request grew the cache to %d entries", got)
	}
	req.T0 = 3
	if _, err := e.Metrics(ctx, req); err != nil {
		t.Fatal(err)
	}
	req.Seed = 2
	if _, err := e.Metrics(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := e.spectra.len(); got != 3 {
		t.Fatalf("cache holds %d entries, want 3 (wait@t0=0, wait@t0=3, seed2)", got)
	}
	// The one-rung spectrum of the same (spec, seed, t0) is the same
	// query: a warm hit on the single-mode entry, with the same row.
	mrep, err := e.Metrics(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	tctx, tr := WithCacheTrace(ctx)
	srep, err := e.Spectrum(tctx, SpectrumRequest{Graph: req.Graph, Seed: req.Seed, T0: req.T0, Modes: []string{"wait"}})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Warm() {
		t.Fatalf("one-rung spectrum missed the single-mode entry: hits=%d misses=%d", tr.Hits(), tr.Misses())
	}
	if got := e.spectra.len(); got != 3 {
		t.Fatalf("one-rung spectrum added an entry (%d total)", got)
	}
	if !reflect.DeepEqual(srep.Rungs, mrep.Modes) {
		t.Fatalf("one-rung spectrum rows %+v differ from single-mode metrics %+v", srep.Rungs, mrep.Modes)
	}
	// Multi-mode: one entry for the whole ladder.
	req.Modes = []string{"wait", "nowait"}
	if _, err := e.Metrics(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := e.spectra.len(); got != 4 {
		t.Fatalf("multi-mode request left %d entries, want 4 (one new for the ladder)", got)
	}
	// A repeat — and a reordered duplicate-bearing ladder normalizing to
	// the same rungs — hits the same entry.
	req.Modes = []string{"nowait", "wait", "wait:0"}
	if _, err := e.Metrics(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := e.spectra.len(); got != 4 {
		t.Fatalf("normalized-equal ladder added an entry (%d total)", got)
	}
}

// TestMetricsValidation: spec mistakes surface as ErrInvalidSpec.
func TestMetricsValidation(t *testing.T) {
	e := New(Options{})
	cases := []MetricsRequest{
		{Graph: GraphSpec{Model: "nope", Nodes: 8, Horizon: 10}},
		{Graph: metricsGraph(), Modes: []string{"bogus"}},
		{Graph: metricsGraph(), T0: -1},
		{Graph: metricsGraph(), T0: 1000},
	}
	for i, req := range cases {
		if _, err := e.Metrics(context.Background(), req); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("case %d: err = %v, want ErrInvalidSpec", i, err)
		}
	}
}

// TestMetricsHonoursCancellation: a cancelled context aborts before
// any sweep.
func TestMetricsHonoursCancellation(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Metrics(ctx, MetricsRequest{Graph: metricsGraph()}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestMetricsWorkerIndependence pins the parallel-sweep contract at the
// engine level: the metrics report of a multi-block (>64 node) network
// must be identical whatever the engine's worker width, since the
// 64-source blocks write disjoint matrix rows.
func TestMetricsWorkerIndependence(t *testing.T) {
	req := MetricsRequest{
		Graph: GraphSpec{Model: "bernoulli", Nodes: 96, P: 0.02, Horizon: 60},
		Seed:  11,
		Modes: []string{"nowait", "wait:2", "wait"},
	}
	want, err := New(Options{Workers: 1}).Metrics(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, err := New(Options{Workers: workers}).Metrics(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d metrics differ from workers=1:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
