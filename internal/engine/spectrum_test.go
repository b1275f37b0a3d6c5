package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestSpectrumMatchesMetrics pins the spectrum rows (the ladder kernel)
// to single-mode metrics (a one-rung ladder, the single-mode kernel):
// for the same (spec, seed, t0) every rung row must be byte-identical
// to the row a single-mode Metrics request computes on a fresh engine
// (only the ladder is normalized, so rows come back sorted and
// deduplicated).
func TestSpectrumMatchesMetrics(t *testing.T) {
	req := SpectrumRequest{
		Graph: metricsGraph(), Seed: 5,
		Modes: []string{"wait", "nowait", "wait:4", "wait:0", "wait:4"},
	}
	rep, err := New(Options{}).Spectrum(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wantRungs := []string{"nowait", "wait[4]", "wait"}
	if len(rep.Rungs) != len(wantRungs) {
		t.Fatalf("normalized ladder has %d rungs, want %d: %+v", len(rep.Rungs), len(wantRungs), rep.Rungs)
	}
	for i, rung := range rep.Rungs {
		if rung.Mode != wantRungs[i] {
			t.Fatalf("rung %d is %q, want %q", i, rung.Mode, wantRungs[i])
		}
		// Fresh engine: the one-rung query must agree row for row.
		single, err := New(Options{}).Metrics(context.Background(), MetricsRequest{
			Graph: req.Graph, Seed: req.Seed, Modes: []string{rung.Mode},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single.Modes[0], rung) {
			t.Fatalf("rung %s differs from single-mode Metrics:\n got %+v\nwant %+v",
				rung.Mode, rung, single.Modes[0])
		}
	}
	// The inclusion chain: reachable pairs never shrink up the ladder.
	for i := 1; i < len(rep.Rungs); i++ {
		if rep.Rungs[i].ReachablePairs < rep.Rungs[i-1].ReachablePairs {
			t.Fatalf("rung %s reaches %d pairs, fewer than %s's %d",
				rep.Rungs[i].Mode, rep.Rungs[i].ReachablePairs,
				rep.Rungs[i-1].Mode, rep.Rungs[i-1].ReachablePairs)
		}
	}
	// FirstConnected is the least permissive connected rung.
	seen := ""
	for _, rung := range rep.Rungs {
		if rung.Connected {
			seen = rung.Mode
			break
		}
	}
	if rep.FirstConnected != seen {
		t.Fatalf("FirstConnected = %q, want %q", rep.FirstConnected, seen)
	}
}

// TestSpectrumDefaults: an empty mode list gets the default ladder.
func TestSpectrumDefaults(t *testing.T) {
	rep, err := New(Options{}).Spectrum(context.Background(), SpectrumRequest{Graph: metricsGraph(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"nowait", "wait[1]", "wait[2]", "wait[4]", "wait[8]", "wait"}
	if len(rep.Rungs) != len(want) {
		t.Fatalf("default ladder has %d rungs, want %d", len(rep.Rungs), len(want))
	}
	for i, rung := range rep.Rungs {
		if rung.Mode != want[i] {
			t.Fatalf("default rung %d is %q, want %q", i, rung.Mode, want[i])
		}
	}
}

// TestSpectrumCaching: repeated and normalization-equivalent requests
// share one spectra entry per (spec, seed, t0, ladder).
func TestSpectrumCaching(t *testing.T) {
	e := New(Options{})
	req := SpectrumRequest{Graph: metricsGraph(), Seed: 1, Modes: []string{"nowait", "wait:2", "wait"}}
	if _, err := e.Spectrum(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := e.spectra.len(); got != 1 {
		t.Fatalf("after first request spectra holds %d entries, want 1", got)
	}
	// Same ladder, different surface order and duplicates.
	req.Modes = []string{"wait", "wait:2", "nowait", "wait:0"}
	if _, err := e.Spectrum(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := e.spectra.len(); got != 1 {
		t.Fatalf("equivalent ladder added an entry (%d total)", got)
	}
	req.Seed = 2
	if _, err := e.Spectrum(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	req.Seed = 1
	req.T0 = 5
	if _, err := e.Spectrum(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := e.spectra.len(); got != 3 {
		t.Fatalf("spectra holds %d entries, want 3 (base, seed2, t0=5)", got)
	}
}

// TestSpectrumValidation: spec mistakes surface as ErrInvalidSpec.
func TestSpectrumValidation(t *testing.T) {
	e := New(Options{})
	cases := []SpectrumRequest{
		{Graph: GraphSpec{Model: "nope", Nodes: 8, Horizon: 10}},
		{Graph: metricsGraph(), Modes: []string{"bogus"}},
		{Graph: metricsGraph(), T0: -1},
		{Graph: metricsGraph(), T0: 1000},
	}
	for i, req := range cases {
		if _, err := e.Spectrum(context.Background(), req); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("case %d: err = %v, want ErrInvalidSpec", i, err)
		}
	}
}

// TestSpectrumHonoursCancellation: a cancelled context aborts before the
// sweep.
func TestSpectrumHonoursCancellation(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Spectrum(ctx, SpectrumRequest{Graph: metricsGraph()}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestSpectrumWorkerIndependence pins the block fan-out at the engine
// level: spectrum reports of a multi-block network are identical at any
// worker width.
func TestSpectrumWorkerIndependence(t *testing.T) {
	req := SpectrumRequest{
		Graph: GraphSpec{Model: "bernoulli", Nodes: 96, P: 0.02, Horizon: 60},
		Seed:  11,
		Modes: []string{"nowait", "wait:2", "wait"},
	}
	want, err := New(Options{Workers: 1}).Spectrum(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, err := New(Options{Workers: workers}).Spectrum(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d spectrum differs from workers=1:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
