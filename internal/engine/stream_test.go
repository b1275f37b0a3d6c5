package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"tvgwait/internal/journey"
	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// streamBatches generates a deterministic sequence of append batches for
// an n-node stream: each batch departs strictly after the previous
// batch's last departure, so the whole sequence is a valid live fill.
func streamBatches(seed int64, n int, horizon tvg.Time, batches int) [][]tvg.ContactRecord {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]tvg.ContactRecord, 0, batches)
	last := tvg.Time(-1)
	for b := 0; b < batches && last < horizon-2; b++ {
		lo := last + 1
		hi := lo + tvg.Time(rng.Intn(4))
		if hi >= horizon {
			hi = horizon - 1
		}
		var recs []tvg.ContactRecord
		for i := 0; i < 2+rng.Intn(6); i++ {
			dep := lo + tvg.Time(rng.Intn(int(hi-lo)+1))
			from := tvg.Node(rng.Intn(n))
			to := tvg.Node(rng.Intn(n - 1))
			if to >= from {
				to++
			}
			recs = append(recs, tvg.ContactRecord{From: from, To: to, Dep: dep, Arr: dep + 1 + tvg.Time(rng.Intn(3))})
			if dep > last {
				last = dep
			}
		}
		out = append(out, recs)
	}
	return out
}

// TestStreamMetricsMatchesCold pins the engine-level suffix-replay
// contract: after every append, /metrics and /spectrum rows served
// through the checkpoint cache equal the rows a cold engine computes
// for a freshly-built identical contact set.
func TestStreamMetricsMatchesCold(t *testing.T) {
	const n, horizon = 12, tvg.Time(40)
	e := New(Options{Workers: 3})
	defer e.Close()
	if _, err := e.CreateStream("live", n, horizon); err != nil {
		t.Fatalf("CreateStream: %v", err)
	}
	ctx := context.Background()
	streamReq := MetricsRequest{
		Graph: GraphSpec{Model: "stream", Stream: "live"},
		Modes: []string{"nowait", "wait:3", "wait"},
	}
	single := MetricsRequest{
		Graph: GraphSpec{Model: "stream", Stream: "live"},
		Modes: []string{"wait:2"},
	}
	for bi, batch := range streamBatches(7, n, horizon, 6) {
		cur, err := e.AppendStream("live", batch)
		if err != nil {
			t.Fatalf("batch %d: AppendStream: %v", bi, err)
		}
		got, err := e.Metrics(ctx, streamReq)
		if err != nil {
			t.Fatalf("batch %d: stream Metrics: %v", bi, err)
		}
		got1, err := e.Metrics(ctx, single)
		if err != nil {
			t.Fatalf("batch %d: stream Metrics single: %v", bi, err)
		}
		gotSpec, err := e.Spectrum(ctx, SpectrumRequest{
			Graph: GraphSpec{Model: "stream", Stream: "live"},
			Modes: []string{"nowait", "wait:1", "wait"},
		})
		if err != nil {
			t.Fatalf("batch %d: stream Spectrum: %v", bi, err)
		}

		// Cold reference: replay the same contacts into a fresh set and
		// summarize a one-rung library sweep of it per mode
		// (computeModeMetrics), independent of every engine cache.
		cold := rebuildCold(t, cur)
		for _, row := range got.Modes {
			mode, err := ParseMode(row.Mode)
			if err != nil {
				t.Fatal(err)
			}
			want := computeModeMetrics(cold, mode, 0, 1, 0, nil)
			if !reflect.DeepEqual(&row, want) {
				t.Fatalf("batch %d mode %s: stream row diverges from cold:\ngot  %+v\nwant %+v",
					bi, row.Mode, row, *want)
			}
		}
		wantSingle := computeModeMetrics(cold, mustParseMode(t, "wait:2"), 0, 1, 0, nil)
		if !reflect.DeepEqual(&got1.Modes[0], wantSingle) {
			t.Fatalf("batch %d: single-mode stream row diverges:\ngot  %+v\nwant %+v",
				bi, got1.Modes[0], *wantSingle)
		}
		for _, rung := range gotSpec.Rungs {
			want := computeModeMetrics(cold, mustParseMode(t, rung.Mode), 0, 1, 0, nil)
			if !reflect.DeepEqual(&rung, want) {
				t.Fatalf("batch %d rung %s: spectrum rung diverges:\ngot  %+v\nwant %+v",
					bi, rung.Mode, rung, *want)
			}
		}
		if got.Contacts != cur.NumContacts() || got.Nodes != n || got.Horizon != horizon {
			t.Fatalf("batch %d: header mismatch: %+v", bi, got)
		}
	}

	// The ladder checkpoint went cold once and advanced per later batch;
	// the same-revision re-reads (none here) would be hits.
	if cold := e.checkpoints.cold.Value(); cold != 3 {
		t.Errorf("cold builds = %d, want 3 (ladder, single mode, spectrum ladder)", cold)
	}
	if adv := e.checkpoints.advances.Value(); adv == 0 {
		t.Errorf("no incremental advances recorded")
	}
	// An idle re-read is a pure hit: no sweep, same rows.
	before := e.checkpoints.hits.Value()
	again, err := e.Metrics(ctx, streamReq)
	if err != nil {
		t.Fatal(err)
	}
	if e.checkpoints.hits.Value() != before+1 {
		t.Errorf("idle re-read did not hit the checkpoint cache")
	}
	if len(again.Modes) != 3 {
		t.Errorf("re-read rows = %d, want 3", len(again.Modes))
	}
}

func mustParseMode(t *testing.T, s string) journey.Mode {
	t.Helper()
	mode, err := ParseMode(s)
	if err != nil {
		t.Fatalf("ParseMode(%q): %v", s, err)
	}
	return mode
}

// rebuildCold copies cur's contacts into a freshly-built single-revision
// set (Builder cold path), so cold sweeps see the same schedule without
// sharing the stream's lineage.
func rebuildCold(t *testing.T, cur *tvg.ContactSet) *tvg.ContactSet {
	t.Helper()
	b := tvg.NewBuilder()
	b.Reset(cur.Graph().NumNodes(), cur.Horizon())
	rev, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]tvg.ContactRecord, 0, cur.NumContacts())
	for _, ct := range cur.Contacts() {
		recs = append(recs, tvg.ContactRecord{From: ct.From, To: ct.To, Dep: ct.Dep, Arr: ct.Arr})
	}
	if len(recs) == 0 {
		return rev
	}
	cold, err := rev.AppendContacts(recs)
	if err != nil {
		t.Fatal(err)
	}
	return cold
}

// TestStreamValidation covers the registry's error surface: bad shapes,
// duplicate creation, unknown streams, watermark violations, and the
// stream model's spec checks.
func TestStreamValidation(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.CreateStream("", 4, 10); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("empty name: err = %v", err)
	}
	if _, err := e.CreateStream("s", 1, 10); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("1 node: err = %v", err)
	}
	if _, err := e.CreateStream("s", 4, -1); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("negative horizon: err = %v", err)
	}
	if _, err := e.CreateStream("s", 4, 10); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := e.CreateStream("s", 4, 10); err != nil {
		t.Errorf("idempotent same-shape create: %v", err)
	}
	if _, err := e.CreateStream("s", 5, 10); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("shape-mismatch create: err = %v", err)
	}
	if _, err := e.AppendStream("nope", nil); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("append to unknown stream: err = %v", err)
	}
	if _, err := e.AppendStream("s", []tvg.ContactRecord{{From: 0, To: 9, Dep: 1, Arr: 2}}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("append unknown node: err = %v", err)
	}
	if _, err := e.AppendStream("s", []tvg.ContactRecord{{From: 0, To: 1, Dep: 3, Arr: 3}}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("append zero latency: err = %v", err)
	}
	if _, err := e.AppendStream("s", []tvg.ContactRecord{{From: 0, To: 1, Dep: 3, Arr: 4}}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := e.AppendStream("s", []tvg.ContactRecord{{From: 0, To: 1, Dep: 3, Arr: 5}}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("append at watermark: err = %v", err)
	}
	if _, err := e.Metrics(ctx, MetricsRequest{Graph: GraphSpec{Model: "stream"}}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("metrics without stream name: err = %v", err)
	}
	if _, err := e.Metrics(ctx, MetricsRequest{Graph: GraphSpec{Model: "stream", Stream: "nope"}}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("metrics on unknown stream: err = %v", err)
	}
	if _, err := e.Metrics(ctx, MetricsRequest{Graph: GraphSpec{Model: "stream", Stream: "s"}, T0: 99}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("metrics t0 past stream horizon: err = %v", err)
	}
	if _, err := e.Run(ctx, ScenarioSpec{Graph: GraphSpec{Model: "stream", Stream: "s"}}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("batch run on stream: err = %v", err)
	}
}

// TestStreamRecreateRebuildsCold: dropping and re-creating a stream
// under the same name starts a fresh lineage, so cached checkpoints
// detect ErrNotExtension and rebuild cold instead of serving stale rows.
func TestStreamRecreateRebuildsCold(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.CreateStream("x", 6, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendStream("x", []tvg.ContactRecord{{From: 0, To: 1, Dep: 2, Arr: 3}}); err != nil {
		t.Fatal(err)
	}
	req := MetricsRequest{Graph: GraphSpec{Model: "stream", Stream: "x"}, Modes: []string{"wait"}}
	if _, err := e.Metrics(ctx, req); err != nil {
		t.Fatal(err)
	}
	// Re-register the stream from scratch (same shape, new lineage) by
	// reaching into the registry the way a restart would.
	e.streamsMu.Lock()
	delete(e.streams, "x")
	e.streamsMu.Unlock()
	if _, err := e.CreateStream("x", 6, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendStream("x", []tvg.ContactRecord{{From: 1, To: 2, Dep: 5, Arr: 7}}); err != nil {
		t.Fatal(err)
	}
	coldBefore := e.checkpoints.cold.Value()
	rep, err := e.Metrics(ctx, req)
	if err != nil {
		t.Fatalf("metrics after re-create: %v", err)
	}
	if e.checkpoints.cold.Value() != coldBefore+1 {
		t.Errorf("re-created stream did not rebuild cold (cold = %d, want %d)",
			e.checkpoints.cold.Value(), coldBefore+1)
	}
	cold := rebuildCold(t, mustStream(t, e, "x"))
	want := computeModeMetrics(cold, mustParseMode(t, "wait"), 0, 1, 0, nil)
	if !reflect.DeepEqual(&rep.Modes[0], want) {
		t.Errorf("post-recreate row diverges:\ngot  %+v\nwant %+v", rep.Modes[0], *want)
	}
}

func mustStream(t *testing.T, e *Engine, name string) *tvg.ContactSet {
	t.Helper()
	c, ok := e.StreamSet(name)
	if !ok {
		t.Fatalf("stream %q not found", name)
	}
	return c
}

// TestCheckpointCacheBudget: checkpoint entries are priced into the
// shared byte budget and evicted LRU like any other entry; an evicted
// entry's next request rebuilds cold and still answers correctly.
func TestCheckpointCacheBudget(t *testing.T) {
	e := New(Options{MaxCacheBytes: 1 << 20})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.CreateStream("b", 10, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendStream("b", []tvg.ContactRecord{{From: 0, To: 1, Dep: 1, Arr: 2}, {From: 1, To: 2, Dep: 3, Arr: 4}}); err != nil {
		t.Fatal(err)
	}
	req := MetricsRequest{Graph: GraphSpec{Model: "stream", Stream: "b"}, Modes: []string{"wait"}}
	if _, err := e.Metrics(ctx, req); err != nil {
		t.Fatal(err)
	}
	if e.checkpoints.bytes() == 0 {
		t.Errorf("checkpoint entry not priced into the budget")
	}
	if used := e.CacheBytes(); used <= 0 || used > 1<<20 {
		t.Errorf("budget used = %d, want within (0, %d]", used, 1<<20)
	}
	// Evict everything and re-ask: the rebuild must be cold and correct.
	for e.checkpoints.evictOldest() > 0 {
	}
	coldBefore := e.checkpoints.cold.Value()
	rep, err := e.Metrics(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if e.checkpoints.cold.Value() != coldBefore+1 {
		t.Errorf("evicted entry did not rebuild cold")
	}
	cold := rebuildCold(t, mustStream(t, e, "b"))
	want := computeModeMetrics(cold, mustParseMode(t, "wait"), 0, 1, 0, nil)
	if !reflect.DeepEqual(&rep.Modes[0], want) {
		t.Errorf("post-eviction row diverges:\ngot  %+v\nwant %+v", rep.Modes[0], *want)
	}
}

// TestBuilderRetentionCap: a pooled builder whose arenas outgrew the
// retention cap is dropped (and counted) instead of re-pooled, so one
// oversized generation cannot pin its high-water arena for the process
// lifetime.
func TestBuilderRetentionCap(t *testing.T) {
	old := builderMaxRetainedBytes
	builderMaxRetainedBytes = 1 << 12
	defer func() { builderMaxRetainedBytes = old }()

	e := New(Options{})
	defer e.Close()
	small := tvg.NewBuilder()
	e.putBuilder(small)
	if got := e.builderDrops.Value(); got != 0 {
		t.Fatalf("small builder dropped: drops = %d", got)
	}
	big := tvg.NewBuilder()
	big.Reset(2, 4096)
	big.StartEdge(0, 1, 0)
	for dep := tvg.Time(0); dep < 400; dep++ {
		big.Append(dep, dep+1)
	}
	if _, err := big.Finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if big.RetainedBytes() <= builderMaxRetainedBytes {
		t.Fatalf("test arena too small: %d bytes retained, cap %d", big.RetainedBytes(), builderMaxRetainedBytes)
	}
	e.putBuilder(big)
	if got := e.builderDrops.Value(); got != 1 {
		t.Fatalf("oversized builder not dropped: drops = %d", got)
	}
}

// computeModeMetrics is the cold reference row of one mode: a one-rung
// library sweep of c (64·width sources per block, 0 = auto, across up
// to `workers` goroutines, telemetry into st) summarized by
// metricsFromMatrix.
func computeModeMetrics(c *tvg.ContactSet, mode journey.Mode, t0 tvg.Time, workers, width int, st *obs.SweepStats) *ModeMetrics {
	ladder, err := journey.NewLadder(mode)
	if err != nil {
		panic(err)
	}
	res, err := journey.Sweep(context.Background(), c, ladder, t0, journey.SweepOpts{Workers: workers, Width: width, Stats: st})
	if err != nil {
		panic(err)
	}
	return metricsFromMatrix(mode, res.Arrivals(0))
}
