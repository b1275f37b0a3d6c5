package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestTracedAndSampleReplaysAgree runs the traced replay (engine plus
// durable store, two goroutines, open-loop schedule) and the memory-only
// sample replay over the same live-ingest requests: every sampled answer
// must be identical, and the spans must account for each request.
func TestTracedAndSampleReplaysAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-fills and recovers a data directory")
	}
	life, err := newLifecycle(filepath.Join(t.TempDir(), "scratch"))
	if err != nil {
		t.Fatal(err)
	}
	defer life.close()
	p := ingestPlan(3, time.Second)
	prefilled, err := life.tempDir("prefill-")
	if err != nil {
		t.Fatal(err)
	}
	if err := prefill(prefilled, p.streams); err != nil {
		t.Fatal(err)
	}
	n := []int{len(p.seq[0]), len(p.seq[1])}
	// Every third request the window sends (the warm-up requests are in
	// no client's sequence and get no kept answer).
	keep := map[int32]bool{}
	for _, seq := range p.seq {
		for _, ri := range seq {
			if ri%3 == 0 {
				keep[ri] = true
			}
		}
	}
	ctx := context.Background()
	tr, err := runTraced(ctx, life, p, prefilled, n, keep)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := verifySample(ctx, life, p, prefilled, n, keep)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range keep {
		if e := tr.replay.errs[ri] + vr.errs[ri]; e != "" {
			t.Fatalf("request %d failed in a replay: %s", ri, e)
		}
		if err := sameAnswer(tr.replay.answers[ri], vr.answers[ri]); err != nil {
			t.Errorf("request %d (%s): %v", ri, p.reqs[ri].path, err)
		}
		if err := checkAnswer(p.reqs[ri].path, vr.answers[ri]); err != nil {
			t.Errorf("request %d (%s): %v", ri, p.reqs[ri].path, err)
		}
	}
	if got := len(tr.sum.reqDur); got != n[0]+n[1] {
		t.Errorf("%d request spans, want %d", got, n[0]+n[1])
	}
	if len(tr.sum.dur["store.log"]) == 0 || len(tr.sum.dur["store.durable_wait"]) == 0 {
		t.Error("no store spans under engine.Ingest")
	}
	if share := tr.sum.reqSelf.mean() / tr.sum.reqDur.mean(); share > 0.1 {
		t.Errorf("unattributed share %.3f > 0.1", share)
	}
	if tr.replayed == 0 || tr.walPerCt == 0 {
		t.Errorf("recovery replayed %v records, WAL bytes per contact %v", tr.replayed, tr.walPerCt)
	}
}

// TestSpecReplayClassifiesCacheUse replays spec-hot twice over: after the
// warm-up every contact-set lookup and every Metrics/Spectrum call hits.
func TestSpecReplayClassifiesCacheUse(t *testing.T) {
	life, err := newLifecycle(filepath.Join(t.TempDir(), "scratch"))
	if err != nil {
		t.Fatal(err)
	}
	defer life.close()
	p := hotPlan(4, time.Second)
	n := []int{150, 150}
	tr, err := runTraced(context.Background(), life, p, "", n, map[int32]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := tr.sum
	if len(ts.dur["engine.ContactSet/miss"]) != 0 || len(ts.dur["engine.Metrics/miss"]) != 0 {
		t.Errorf("misses after the warm-up: %d contact sets, %d metrics", len(ts.dur["engine.ContactSet/miss"]), len(ts.dur["engine.Metrics/miss"]))
	}
	if len(ts.dur["engine.ContactSet/hit"]) != 300 {
		t.Errorf("%d contact-set hits, want 300", len(ts.dur["engine.ContactSet/hit"]))
	}
	if len(tr.replay.answers[0]) == 0 {
		t.Error("sampled answer not kept")
	}
}
