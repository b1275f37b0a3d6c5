package journey

import (
	"context"
	"fmt"
	"testing"

	"tvgwait/internal/tvg"
)

// Nodes of the window-boundary TVGs: winSrc sends one copy to winRelay
// (the batch, arriving at a), which may forward it to winDst or
// winEdge; winClockA→winClockB carries one contact per tick so any
// prefix of the stream has its watermark where it was cut.
const (
	winSrc = iota
	winRelay
	winDst
	winEdge
	winClockA
	winClockB
	winNodes
)

// withClock returns recs plus the clock contacts on [0, horizon).
func withClock(horizon tvg.Time, recs []tvg.ContactRecord) []tvg.ContactRecord {
	out := append([]tvg.ContactRecord(nil), recs...)
	for t := tvg.Time(0); t < horizon; t++ {
		out = append(out, tvg.ContactRecord{From: winClockA, To: winClockB, Dep: t, Arr: t + 1})
	}
	return out
}

// checkWindowCase sweeps recs under wait[d] on both kernels — a one-rung
// ladder (the single-mode kernel, and the ladder kernel forced) and
// {nowait, wait[d/2], wait[d], wait}, whose wait[d] checks arrive by
// cascade — in one pass, and across a SweepCheckpointed/Advance split
// after each tick of cuts. Every rung must match Foremost, and the
// wait[d] rung must hold the hand-derived cells of want.
func checkWindowCase(t *testing.T, label string, horizon, t0, d tvg.Time, recs []tvg.ContactRecord, cuts []tvg.Time, want map[[2]int]tvg.Time) {
	t.Helper()
	ctx := context.Background()
	recs = withClock(horizon, recs)
	full, err := emptySet(t, winNodes, horizon).AppendContacts(recs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	multi, err := NewLadder(NoWait(), BoundedWait(d/2), BoundedWait(d), Wait())
	if err != nil {
		t.Fatal(err)
	}
	check := func(clabel string, c *tvg.ContactSet, res *SpectrumResult) {
		t.Helper()
		checkForemostOracle(t, clabel, c, res, t0)
		m, ok := res.ArrivalsFor(BoundedWait(d))
		if !ok {
			t.Fatalf("%s: no wait[%d] rung", clabel, d)
		}
		for pair, a := range want {
			if got := m.arr[pair[0]*winNodes+pair[1]]; got != a {
				t.Fatalf("%s: wait[%d] %d→%d arrives %d, want %d", clabel, d, pair[0], pair[1], got, a)
			}
		}
	}
	for _, ladder := range []Ladder{rungOf(t, BoundedWait(d)), multi} {
		llabel := fmt.Sprintf("%s/%s", label, ladder)
		check(llabel, full, sweepOf(t, full, ladder, t0, SweepOpts{}))
		check(llabel+"/ladder-kernel", full, ladderKernelOf(t, full, ladder, t0, SweepOpts{}))
		for _, cut := range cuts {
			parts := partitionByTicks(recs, []tvg.Time{cut})
			rev, err := emptySet(t, winNodes, horizon).AppendContacts(parts[0])
			if err != nil {
				t.Fatal(err)
			}
			_, ck, err := SweepCheckpointed(ctx, rev, ladder, t0, SweepOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if ck.DoneTick() != cut {
				t.Fatalf("%s: checkpoint stopped at %d, want the cut %d", llabel, ck.DoneTick(), cut)
			}
			rev, err = rev.AppendContacts(parts[1])
			if err != nil {
				t.Fatal(err)
			}
			res, err := ck.Advance(ctx, rev, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s/split@%d", llabel, cut), rev, res)
		}
	}
}

// TestWaitWindowBoundary pins the stamp modulus of the bounded-wait
// windows where it is tightest, d+1 or d+2 a power of two. A copy
// reaching winRelay at a is usable in [a, a+d]: refreshed exactly d+1
// ticks later it must survive its own expiry check at a+d+1 (the stamps
// a and a+d+1 must not alias), and unrefreshed it must be usable at a+d
// and not at a+d+1. Each case runs from two start times and two batch
// offsets, on both kernels, in one pass and split between the batch and
// its refresh. Budgets past the window never expire a copy.
func TestWaitWindowBoundary(t *testing.T) {
	for _, d := range []tvg.Time{0, 1, 2, 3, 6, 7, 14, 15, 62, 63} {
		for _, t0 := range []tvg.Time{0, 5} {
			for _, off := range []tvg.Time{1, 3} {
				a := t0 + off
				horizon := a + d + 3
				cuts := []tvg.Time{a, a + d}
				label := fmt.Sprintf("d=%d/t0=%d/a=%d", d, t0, a)
				checkWindowCase(t, label+"/refreshed", horizon, t0, d, []tvg.ContactRecord{
					{From: winSrc, To: winRelay, Dep: t0, Arr: a},
					{From: winSrc, To: winRelay, Dep: t0, Arr: a + d + 1},
					{From: winRelay, To: winDst, Dep: a + d + 1, Arr: a + d + 2},
				}, cuts, map[[2]int]tvg.Time{{winSrc, winDst}: a + d + 2})
				checkWindowCase(t, label+"/unrefreshed", horizon, t0, d, []tvg.ContactRecord{
					{From: winSrc, To: winRelay, Dep: t0, Arr: a},
					{From: winRelay, To: winEdge, Dep: a + d, Arr: a + d + 1},
					{From: winRelay, To: winDst, Dep: a + d + 1, Arr: a + d + 2},
				}, cuts, map[[2]int]tvg.Time{{winSrc, winEdge}: a + d + 1, {winSrc, winDst}: -1})
			}
		}
	}
	// d ≥ span: no window ends inside the sweep, so the batch's copy is
	// still usable on the horizon's last departure.
	const horizon, t0, a = 12, 0, 3
	span := tvg.Time(horizon - t0 + 1)
	for _, d := range []tvg.Time{span - 1, span, span + 1, 1000} {
		checkWindowCase(t, fmt.Sprintf("d=%d≥span-1", d), horizon, t0, d, []tvg.ContactRecord{
			{From: winSrc, To: winRelay, Dep: t0, Arr: a},
			{From: winRelay, To: winDst, Dep: horizon, Arr: horizon + 1},
		}, []tvg.Time{a, horizon - 1}, map[[2]int]tvg.Time{{winSrc, winDst}: horizon + 1})
	}
}
