package journey

import (
	"context"
	"testing"

	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// Incremental benchmarks: what one live update costs. The acceptance
// claim (BENCH_incremental.json) is that appending ≤1% of the contacts
// and resuming the checkpointed sweep beats recomputing from scratch by
// ≥10× per update at N=256 — for the foremost matrix and for the K=8
// spectrum ladder alike, with bit-identical results (pinned by the
// differential suite in checkpoint_test.go).
//
// The resume benchmarks replay the live-fill regime the engine's
// /contacts pipeline produces: the markov256 stream is partitioned into
// one batch per departure tick past tick 50 (~1% of the ~43k contacts
// each), and every timed iteration appends the next batch and resumes
// the same checkpoint — AppendContacts cost included, because a live
// update pays it. When the chain exhausts the stream, the prefix
// checkpoint is rebuilt off the clock and the chain restarts.

// incrementalChain partitions the markov256 stream at every departure
// tick past `split`: batches[0] is the prefix, every later batch one
// suffix tick. Chains cannot share a prefix set — a second append from
// the same parent is a lineage sibling and Extends rejects it — so the
// returned build constructs a FRESH prefix per chain.
func incrementalChain(b *testing.B, split tvg.Time) (func() *tvg.ContactSet, [][]tvg.ContactRecord) {
	b.Helper()
	full := markov256(b)
	recs := recordsOf(full)
	cuts := []tvg.Time{split}
	for t := split + 1; t < full.Horizon(); t++ {
		cuts = append(cuts, t)
	}
	all := partitionByTicks(recs, cuts)
	prefixRecs := all[0]
	nodes, horizon := full.Graph().NumNodes(), full.Horizon()
	build := func() *tvg.ContactSet {
		prefix, err := emptySet(b, nodes, horizon).AppendContacts(prefixRecs)
		if err != nil {
			b.Fatal(err)
		}
		return prefix
	}
	return build, all[1:]
}

// BenchmarkIncrementalColdForemost256 is the full-recompute comparator:
// what every live update would cost without checkpoints — a cold
// checkpointed sweep of the whole N=256 stream per update. No-wait mode:
// under unbounded waiting the sparse markov256 stream saturates within
// ~20 ticks and the early-exit makes the cold sweep artificially cheap;
// no-wait reachability keeps evolving across the whole window, which is
// exactly the regime where recomputing per update hurts.
func BenchmarkIncrementalColdForemost256(b *testing.B) {
	c := markov256(b)
	nowait := rungOf(b, NoWait())
	var st obs.SweepStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, _, err := SweepCheckpointed(context.Background(), c, nowait, 0, SweepOpts{Stats: &st})
		if err != nil {
			b.Fatal(err)
		}
		if res.Arrivals(0).ReachablePairs() == 0 {
			b.Fatal("no-wait sweep reached no pairs")
		}
	}
}

// BenchmarkIncrementalResumeForemost256 measures one live update on the
// foremost matrix: append the next ~1% departure-tick batch and resume
// the checkpoint. The acceptance target is ≥10× under
// BenchmarkIncrementalColdForemost256.
func BenchmarkIncrementalResumeForemost256(b *testing.B) {
	buildPrefix, batches := incrementalChain(b, 50)
	nowait := rungOf(b, NoWait())
	var st obs.SweepStats
	rebuild := func() (*tvg.ContactSet, *SweepCheckpoint) {
		prefix := buildPrefix()
		_, ck, err := SweepCheckpointed(context.Background(), prefix, nowait, 0, SweepOpts{Stats: &st})
		if err != nil {
			b.Fatal(err)
		}
		return prefix, ck
	}
	cur, ck := rebuild()
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(batches) {
			b.StopTimer()
			cur, ck = rebuild()
			next = 0
			b.StartTimer()
		}
		c2, err := cur.AppendContacts(batches[next])
		if err != nil {
			b.Fatal(err)
		}
		next++
		if _, err := ck.Advance(context.Background(), c2, 1, &st); err != nil {
			b.Fatal(err)
		}
		cur = c2
	}
}

// BenchmarkIncrementalColdSpectrum256 is the full-recompute comparator
// for the K=8 ladder: a cold checkpointed spectrum sweep per update.
func BenchmarkIncrementalColdSpectrum256(b *testing.B) {
	c := markov256(b)
	ladder := benchLadder8(b)
	var st obs.SweepStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, _, err := SweepCheckpointed(context.Background(), c, ladder, 0, SweepOpts{Stats: &st})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := res.FirstConnected(); !ok {
			b.Fatal("benchmark network must be connected at some rung")
		}
	}
}

// BenchmarkIncrementalResumeSpectrum256 measures one live update on the
// whole K=8 spectrum ladder: append the next ~1% batch and resume —
// all eight rung matrices refreshed by a single suffix replay. The
// acceptance target is ≥10× under BenchmarkIncrementalColdSpectrum256.
func BenchmarkIncrementalResumeSpectrum256(b *testing.B) {
	buildPrefix, batches := incrementalChain(b, 50)
	ladder := benchLadder8(b)
	var st obs.SweepStats
	rebuild := func() (*tvg.ContactSet, *SweepCheckpoint) {
		prefix := buildPrefix()
		_, ck, err := SweepCheckpointed(context.Background(), prefix, ladder, 0, SweepOpts{Stats: &st})
		if err != nil {
			b.Fatal(err)
		}
		return prefix, ck
	}
	cur, ck := rebuild()
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(batches) {
			b.StopTimer()
			cur, ck = rebuild()
			next = 0
			b.StartTimer()
		}
		c2, err := cur.AppendContacts(batches[next])
		if err != nil {
			b.Fatal(err)
		}
		next++
		if _, err := ck.Advance(context.Background(), c2, 1, &st); err != nil {
			b.Fatal(err)
		}
		cur = c2
	}
}
