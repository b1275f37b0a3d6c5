package journey

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tvgwait/internal/tvg"
)

// recordsOf projects a contact set onto the quadruples an append batch
// carries (edge ids are assigned fresh per batch and never read by the
// sweeps).
func recordsOf(c *tvg.ContactSet) []tvg.ContactRecord {
	recs := make([]tvg.ContactRecord, 0, c.NumContacts())
	for _, ct := range c.Contacts() {
		recs = append(recs, tvg.ContactRecord{From: ct.From, To: ct.To, Dep: ct.Dep, Arr: ct.Arr})
	}
	return recs
}

// emptySet builds a zero-contact set over n nodes and the horizon — the
// root of every live-fill chain in these tests.
func emptySet(tb testing.TB, n int, horizon tvg.Time) *tvg.ContactSet {
	tb.Helper()
	b := tvg.NewBuilder()
	b.Reset(n, horizon)
	cs, err := b.Finalize()
	if err != nil {
		tb.Fatalf("empty set: %v", err)
	}
	return cs
}

// partitionByTicks splits recs into contiguous departure-tick batches:
// batch i holds deps in (cuts[i-1], cuts[i]], the last batch everything
// past the final cut. Empty batches are dropped (AppendContacts would
// no-op them anyway).
func partitionByTicks(recs []tvg.ContactRecord, cuts []tvg.Time) [][]tvg.ContactRecord {
	batches := make([][]tvg.ContactRecord, len(cuts)+1)
	for _, r := range recs {
		b := len(cuts)
		for i, c := range cuts {
			if r.Dep <= c {
				b = i
				break
			}
		}
		batches[b] = append(batches[b], r)
	}
	out := batches[:0]
	for _, b := range batches {
		if len(b) > 0 {
			out = append(out, b)
		}
	}
	return out
}

func sameArrivalMatrix(tb testing.TB, label string, want, got *ArrivalMatrix) {
	tb.Helper()
	if want.n != got.n {
		tb.Fatalf("%s: n = %d, want %d", label, got.n, want.n)
	}
	for i := range want.arr {
		if want.arr[i] != got.arr[i] {
			tb.Fatalf("%s: arr[%d,%d] = %d, want %d",
				label, i/want.n, i%want.n, got.arr[i], want.arr[i])
		}
	}
}

func sameReachMatrix(tb testing.TB, label string, want, got *ReachMatrix) {
	tb.Helper()
	if want.n != got.n {
		tb.Fatalf("%s: n = %d, want %d", label, got.n, want.n)
	}
	for i := range want.bits {
		if want.bits[i] != got.bits[i] {
			tb.Fatalf("%s: bits[%d] = %x, want %x", label, i, got.bits[i], want.bits[i])
		}
	}
}

// checkCheckpointChain drives one live-fill chain — the full stream
// appended batch by batch per cuts — through a checkpointed one-rung
// sweep of mode (single-mode kernel) and one of ladder, and pins every
// intermediate result bit-identical to a cold sweep of the same
// revision: arrivals, the one-rung Reach against the reach-only kernel,
// and every ladder rung.
func checkCheckpointChain(tb testing.TB, label string, full *tvg.ContactSet, mode Mode, ladder Ladder, t0 tvg.Time, cuts []tvg.Time, width, workers int) {
	tb.Helper()
	n := full.Graph().NumNodes()
	batches := partitionByTicks(recordsOf(full), cuts)
	ctx := context.Background()
	opts := SweepOpts{Workers: workers, Width: width}
	cold := SweepOpts{Width: width}
	check := func(blabel string, rev *tvg.ContactSet, one, sp *SpectrumResult) {
		tb.Helper()
		sameArrivalMatrix(tb, blabel+"/foremost", foremostOf(tb, rev, mode, t0, cold), one.Arrivals(0))
		sameReachMatrix(tb, blabel+"/reach", reachOnlyOf(rev, mode, t0, width), one.Reach(0))
		coldSp := sweepOf(tb, rev, ladder, t0, cold)
		for r := 0; r < ladder.Len(); r++ {
			sameArrivalMatrix(tb, fmt.Sprintf("%s/spectrum/rung%d", blabel, r), coldSp.Arrivals(r), sp.Arrivals(r))
		}
	}

	rev := emptySet(tb, n, full.Horizon())
	one, ckOne, err := SweepCheckpointed(ctx, rev, rungOf(tb, mode), t0, opts)
	if err != nil {
		tb.Fatalf("%s: one-rung SweepCheckpointed: %v", label, err)
	}
	sp, ckS, err := SweepCheckpointed(ctx, rev, ladder, t0, opts)
	if err != nil {
		tb.Fatalf("%s: ladder SweepCheckpointed: %v", label, err)
	}
	check(label+"/empty", rev, one, sp)

	for bi, batch := range batches {
		next, err := rev.AppendContacts(batch)
		if err != nil {
			tb.Fatalf("%s: batch %d: %v", label, bi, err)
		}
		rev = next
		blabel := fmt.Sprintf("%s/batch%d(rev%d)", label, bi, rev.Revision())
		if one, err = ckOne.Advance(ctx, rev, workers, nil); err != nil {
			tb.Fatalf("%s: resume one-rung: %v", blabel, err)
		}
		if sp, err = ckS.Advance(ctx, rev, workers, nil); err != nil {
			tb.Fatalf("%s: resume ladder: %v", blabel, err)
		}
		check(blabel, rev, one, sp)
	}
}

// TestCheckpointResumeMatchesCold is the randomized differential suite
// of the suffix-replay invariant: across the four generator models,
// waiting modes, widths 1–8, parallel fan-out and append partitions —
// including single-tick cuts that land inside due-bucket windows (every
// latency ≥ 1 stream has arrivals pending past any cut) — a chain of
// checkpointed resumes must reproduce the cold sweep of every revision
// bit for bit.
func TestCheckpointResumeMatchesCold(t *testing.T) {
	horizon := tvg.Time(30)
	ladder, err := NewLadder(NoWait(), BoundedWait(2), BoundedWait(5), Wait())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		for name, full := range diffNetworks(t, seed, horizon) {
			rng := rand.New(rand.NewSource(seed * 7919))
			for _, width := range []int{1, 2, 4, 8} {
				// Random contiguous partition: a mix of wide and single-tick
				// batches, with some cuts adjacent (forcing 1-tick replays).
				var cuts []tvg.Time
				for tk := tvg.Time(rng.Intn(6)); tk < horizon; tk += tvg.Time(1 + rng.Intn(9)) {
					cuts = append(cuts, tk)
				}
				workers := 1 + rng.Intn(4)
				mode := diffModes()[rng.Intn(len(diffModes()))]
				label := fmt.Sprintf("%s/seed=%d/w=%d/%s/workers=%d", name, seed, width, mode, workers)
				checkCheckpointChain(t, label, full, mode, ladder, 0, cuts, width, workers)
			}
		}
	}
}

// TestCheckpointSplitEdgeCases pins the deliberate corner splits: a cut
// at every single tick (maximal fragmentation, every due-bucket window
// straddles a cut), a cut immediately before the horizon, and a
// non-zero t0 with cuts below it (batches the sweep window has already
// passed still advance the watermark correctly).
func TestCheckpointSplitEdgeCases(t *testing.T) {
	horizon := tvg.Time(24)
	full := diffNetworks(t, 3, horizon)["markov"]
	ladder, err := NewLadder(NoWait(), BoundedWait(1), BoundedWait(3), Wait())
	if err != nil {
		t.Fatal(err)
	}
	everyTick := make([]tvg.Time, horizon)
	for i := range everyTick {
		everyTick[i] = tvg.Time(i)
	}
	for _, tc := range []struct {
		name string
		t0   tvg.Time
		cuts []tvg.Time
	}{
		{"every-tick", 0, everyTick},
		{"pre-horizon", 0, []tvg.Time{horizon - 1}},
		{"one-cut-mid", 0, []tvg.Time{horizon / 2}},
		{"t0-after-cuts", 9, []tvg.Time{3, 7, 15}},
	} {
		for _, width := range []int{1, 2} {
			label := fmt.Sprintf("%s/w=%d", tc.name, width)
			checkCheckpointChain(t, label, full, BoundedWait(2), ladder, tc.t0, tc.cuts, width, 2)
		}
	}
}

// TestCheckpointBlockBoundaryWidths pins resume correctness when the
// node count straddles source-block boundaries: n just above and below
// multiples of 64·W exercises partially-filled lanes and the per-lane
// retirement path across a split.
func TestCheckpointBlockBoundaryWidths(t *testing.T) {
	horizon := tvg.Time(18)
	for _, n := range []int{63, 64, 65, 127, 130} {
		full := ringSet(t, n, horizon)
		for _, width := range []int{1, 2} {
			label := fmt.Sprintf("n=%d/w=%d", n, width)
			ladder, err := NewLadder(NoWait(), Wait())
			if err != nil {
				t.Fatal(err)
			}
			checkCheckpointChain(t, label, full, Wait(), ladder, 0, []tvg.Time{5, 6, 12}, width, 3)
		}
	}
}

// ringSet builds a directed ring with one contact per edge per tick —
// dense enough that wide blocks fill several lanes and sweeps reach
// every pair.
func ringSet(tb testing.TB, n int, horizon tvg.Time) *tvg.ContactSet {
	tb.Helper()
	b := tvg.NewBuilder()
	b.Reset(n, horizon)
	for v := 0; v < n; v++ {
		b.StartEdge(tvg.Node(v), tvg.Node((v+1)%n), 0)
		for tk := tvg.Time(0); tk < horizon; tk += 2 {
			b.Append(tk, tk+1)
		}
	}
	cs, err := b.Finalize()
	if err != nil {
		tb.Fatalf("ring: %v", err)
	}
	return cs
}

// TestCheckpointRejectsNonExtensions: a sibling branch (same base,
// separately extended) is not a suffix of the checkpointed revision and
// must be refused — the checkpoint stays usable for its own lineage.
func TestCheckpointRejectsNonExtensions(t *testing.T) {
	base := emptySet(t, 4, 20)
	recs := []tvg.ContactRecord{{From: 0, To: 1, Dep: 2, Arr: 3}}
	revA, err := base.AppendContacts(recs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, ck, err := SweepCheckpointed(ctx, revA, rungOf(t, Wait()), 0, SweepOpts{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	revB, err := base.AppendContacts([]tvg.ContactRecord{{From: 1, To: 2, Dep: 4, Arr: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Advance(ctx, revB, 1, nil); err != ErrNotExtension {
		t.Fatalf("sibling resume: err = %v, want ErrNotExtension", err)
	}
	// Own lineage still fine.
	revA2, err := revA.AppendContacts([]tvg.ContactRecord{{From: 1, To: 3, Dep: 6, Arr: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Advance(ctx, revA2, 1, nil); err != nil {
		t.Fatalf("own-lineage resume after rejection: %v", err)
	}
}

// TestCheckpointPoisonOnCancel: a resume aborted by ctx tears the
// scratch state mid-tick; the checkpoint must poison itself and refuse
// every later resume, while a pre-cancelled ctx (nothing started) must
// NOT poison.
func TestCheckpointPoisonOnCancel(t *testing.T) {
	full := diffNetworks(t, 1, 40)["bernoulli"]
	recs := recordsOf(full)
	batches := partitionByTicks(recs, []tvg.Time{4})
	if len(batches) != 2 {
		t.Skip("stream has no contacts on both sides of the cut")
	}
	rev := emptySet(t, full.Graph().NumNodes(), full.Horizon())
	rev, err := rev.AppendContacts(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	_, ck, err := SweepCheckpointed(context.Background(), rev, rungOf(t, Wait()), 0, SweepOpts{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	rev2, err := rev.AppendContacts(batches[1])
	if err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled ctx: rejected without poisoning.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ck.Advance(ctx, rev2, 1, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-cancelled resume: err = %v, want ErrCanceled", err)
	}
	if ck.Poisoned() {
		t.Fatal("pre-cancelled resume poisoned the checkpoint")
	}
	if _, err := ck.Advance(context.Background(), rev2, 1, nil); err != nil {
		t.Fatalf("resume after pre-cancelled attempt: %v", err)
	}

	// A genuinely torn checkpoint refuses resumes. Tearing via ctx races
	// with the replay finishing first, so poison directly — the contract
	// under test is the refusal, not the trip timing.
	ck.poisoned = true
	if _, err := ck.Advance(context.Background(), rev2, 1, nil); err != ErrCheckpointPoisoned {
		t.Fatalf("poisoned resume: err = %v, want ErrCheckpointPoisoned", err)
	}
}

// TestCheckpointComplete: once a sweep's lanes all retire (a connected
// wait-mode network reached from everywhere), the checkpoint reports
// complete and further resumes are pure re-extractions that still
// match cold sweeps.
func TestCheckpointComplete(t *testing.T) {
	n := 6
	horizon := tvg.Time(40)
	full := ringSet(t, n, horizon)
	batches := partitionByTicks(recordsOf(full), []tvg.Time{20})
	rev := emptySet(t, n, horizon)
	rev, err := rev.AppendContacts(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, ck, err := SweepCheckpointed(ctx, rev, rungOf(t, Wait()), 0, SweepOpts{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Complete() {
		t.Fatal("ring under wait not complete after first half (every pair reachable by tick 20)")
	}
	rev, err = rev.AppendContacts(batches[1])
	if err != nil {
		t.Fatal(err)
	}
	res, err := ck.Advance(ctx, rev, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameArrivalMatrix(t, "complete-resume", foremostOf(t, rev, Wait(), 0, SweepOpts{}), res.Arrivals(0))
}

// FuzzCheckpointPartition drives arbitrary append partitions of one
// contact stream through checkpoint/resume: the fuzzer picks the
// generator seed, mode, width and up to 8 cut ticks; any partition must
// leave every revision's resumed matrices bit-identical to cold sweeps.
func FuzzCheckpointPartition(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(3), uint8(9), uint8(15))
	f.Add(int64(2), uint8(2), uint8(2), uint8(0), uint8(1), uint8(2))
	f.Add(int64(3), uint8(4), uint8(8), uint8(29), uint8(29), uint8(29))
	f.Fuzz(func(t *testing.T, seed int64, modeSel, width, c1, c2, c3 uint8) {
		horizon := tvg.Time(30)
		modes := diffModes()
		mode := modes[int(modeSel)%len(modes)]
		w := 1 << (int(width) % 4)
		full := diffNetworks(t, 1+seed%4, horizon)["markov"]
		var cuts []tvg.Time
		for _, c := range []uint8{c1, c2, c3} {
			cuts = append(cuts, tvg.Time(c)%horizon)
		}
		// partitionByTicks needs ascending cuts; sort and dedupe inline.
		for i := 0; i < len(cuts); i++ {
			for j := i + 1; j < len(cuts); j++ {
				if cuts[j] < cuts[i] {
					cuts[i], cuts[j] = cuts[j], cuts[i]
				}
			}
		}
		ladder, err := NewLadder(mode, Wait())
		if err != nil {
			t.Fatal(err)
		}
		checkCheckpointChain(t, "fuzz", full, mode, ladder, 0, cuts, w, 2)
	})
}
