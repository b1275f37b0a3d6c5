package journey

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tvgwait/internal/tvg"
)

// TestTickRing pins the ring arithmetic: the shortest power of two that
// holds `ahead` ticks past the current one, or the whole window,
// unwrapped, when that would be at least as long — never longer than
// the window, whatever the latency or budget (wait[MaxInt64] included).
func TestTickRing(t *testing.T) {
	for _, tc := range []struct {
		ahead, span int64
		want        tickRing
	}{
		{0, 0, tickRing{n: 0, mask: -1}},
		{0, 1, tickRing{n: 1, mask: -1}},
		{0, 9, tickRing{n: 1, mask: 0}},
		{1, 9, tickRing{n: 2, mask: 1}},
		{2, 9, tickRing{n: 4, mask: 3}},
		{4, 9, tickRing{n: 8, mask: 7}},
		{8, 9, tickRing{n: 9, mask: -1}},
		{9, 9, tickRing{n: 9, mask: -1}},
		{15, 1_000_001, tickRing{n: 16, mask: 15}},
		{40_000, 45_001, tickRing{n: 45_001, mask: -1}},
	} {
		if got := newTickRing(tc.ahead, tc.span); got != tc.want {
			t.Errorf("newTickRing(%d, %d) = %+v, want %+v", tc.ahead, tc.span, got, tc.want)
		}
	}
	for _, span := range []int64{1, 2, 3, 17, 1 << 20} {
		for _, d := range []tvg.Time{0, 1, 5, 1 << 30, math.MaxInt64} {
			r := expireRing(d, span)
			if r.n > span || (r.mask >= 0 && int64(d)+2 > r.n) {
				t.Errorf("expireRing(%d, %d) = %+v: longer than the window or short of d+2", d, span, r)
			}
		}
	}
	if r := newTickRing(3, 100); !r.holds(3) || r.holds(4) {
		t.Errorf("a 4-tick ring must hold latency 3 and not 4: %+v", r)
	}
	if r := newTickRing(100, 100); !r.holds(math.MaxInt64) {
		t.Errorf("an unwrapped ring must hold any latency: %+v", r)
	}
}

// spanLayoutBytes is what retainedBytes charged for a fresh scratch of
// the span-long layout the tick rings replaced: a grid and due and
// expire arrays of one slot per window tick.
func spanLayoutBytes(s blockSweep) int64 {
	switch s := s.(type) {
	case *msScratch:
		rows := int64(s.n * s.w)
		words, times := 3*rows+int64(s.n), 2*rows*blockBits
		if s.dense {
			words += int64(s.n) * s.span * int64(s.w)
		}
		return (words+times)*8 + 2*24*s.span + int64(s.sparsePeak)*48
	case *spScratch:
		rows, k := int64(s.n*s.w), int64(s.k)
		words := 2*rows*k + rows*blockBits + int64(s.n)
		times := 2*rows*blockBits*k + rows*blockBits
		if s.dense {
			words += int64(s.n) * s.span * k * int64(s.w)
		}
		return (words+times)*8 + 2*24*s.span + int64(s.sparsePeak)*48
	}
	panic("unknown kernel")
}

// TestRingLayoutWithinSpanLayout pins the cap on the tick rings at the
// level of whole blocks: across latencies short and long (terminal ones
// past the horizon included), windows, budgets and widths, a block's
// fresh scratch never pins more than the span-long layout of the same
// density did.
func TestRingLayoutWithinSpanLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ladders := []Ladder{
		rungOf(t, NoWait()), rungOf(t, BoundedWait(3)), rungOf(t, Wait()), rungOf(t, BoundedWait(1000)),
	}
	if l, err := NewLadder(NoWait(), BoundedWait(5), BoundedWait(60), Wait()); err == nil {
		ladders = append(ladders, l)
	}
	for _, horizon := range []tvg.Time{3, 12, 40, 300} {
		for _, maxLat := range []tvg.Time{1, 3, 20, 500} {
			const n = 70
			b := tvg.NewBuilder()
			b.Reset(n, horizon)
			for e := 0; e < 3*n; e++ {
				b.StartEdge(tvg.Node(rng.Intn(n)), tvg.Node(rng.Intn(n)), 'a')
				for dep := tvg.Time(rng.Intn(4)); dep <= horizon; dep += 1 + tvg.Time(rng.Intn(6)) {
					b.Append(dep, dep+1+tvg.Time(rng.Int63n(int64(maxLat))))
				}
			}
			c, err := b.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			for _, t0 := range []tvg.Time{0, horizon / 2} {
				for _, ladder := range ladders {
					for _, w := range []int{1, 4} {
						ring := pendingRing(c, t0)
						if ring.n > spanOf(c, t0) {
							t.Fatalf("pending ring %+v longer than the %d-tick window", ring, spanOf(c, t0))
						}
						s := kernelFor(ladder)(false)
						s.begin(c, ladder, 0, min(n, w*blockBits), t0, w, ring)
						s.run(c, t0, c.Horizon(), nil, nil)
						s.cleanup()
						if got, old := s.retainedBytes(), spanLayoutBytes(s); got > old {
							t.Fatalf("h=%d lat≤%d t0=%d %s w=%d: scratch pins %d bytes, span layout %d",
								horizon, maxLat, t0, ladder, w, got, old)
						}
					}
				}
			}
		}
	}
}

// liveStream builds the live-ingest stream shape: 96 nodes and a
// latency-1 contact every second tick from 0, appended to an empty set
// of the given horizon.
func liveStream(tb testing.TB, horizon tvg.Time, contacts int) *tvg.ContactSet {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	recs := make([]tvg.ContactRecord, contacts)
	for i := range recs {
		from := rng.Intn(96)
		to := (from + 1 + rng.Intn(95)) % 96
		dep := tvg.Time(2 * i)
		recs[i] = tvg.ContactRecord{From: tvg.Node(from), To: tvg.Node(to), Dep: dep, Arr: dep + 1}
	}
	c, err := emptySet(tb, 96, horizon).AppendContacts(recs)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestCheckpointSizeHorizonIndependent pins what a live stream's
// checkpoint costs: the same bytes at horizon 40,000 as at 1,000,000,
// under 4 MB for both live-ingest ladders, and unchanged by an advance.
func TestCheckpointSizeHorizonIndependent(t *testing.T) {
	ctx := context.Background()
	pair, err := NewLadder(NoWait(), Wait())
	if err != nil {
		t.Fatal(err)
	}
	four, err := NewLadder(NoWait(), BoundedWait(2), BoundedWait(8), Wait())
	if err != nil {
		t.Fatal(err)
	}
	for _, ladder := range []Ladder{pair, four} {
		var sizes []int64
		for _, horizon := range []tvg.Time{40_000, 1_000_000} {
			c := liveStream(t, horizon, 9000)
			_, ck, err := SweepCheckpointed(ctx, c, ladder, 0, SweepOpts{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			size := ck.SizeBytes()
			next, err := c.AppendContacts([]tvg.ContactRecord{{From: 3, To: 4, Dep: c.LastDep() + 2, Arr: c.LastDep() + 3}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ck.Advance(ctx, next, 2, nil); err != nil {
				t.Fatal(err)
			}
			if ck.SizeBytes() != size {
				t.Fatalf("%s h=%d: advance moved SizeBytes %d → %d", ladder, horizon, size, ck.SizeBytes())
			}
			sizes = append(sizes, size)
		}
		if sizes[0] != sizes[1] || sizes[0] >= 4<<20 {
			t.Fatalf("%s: SizeBytes %d at h=40000 and %d at h=1000000, want equal and under 4 MB", ladder, sizes[0], sizes[1])
		}
	}
}

// TestCheckpointRingOutgrown is the differential case of a batch whose
// latency outgrows the checkpoint's pending ring. Advance refuses it
// with ErrCheckpointStale and leaves the checkpoint as it was; the cold
// rebuild the caller falls back to (a fresh SweepCheckpointed, which
// sizes a ring for the new latency) matches a cold Sweep bit for bit,
// and so do the advances that follow on it. A latency the ring just
// holds, or one that arrives past the horizon, advances in place.
func TestCheckpointRingOutgrown(t *testing.T) {
	ctx := context.Background()
	const n, horizon = 70, tvg.Time(200)
	ladder, err := NewLadder(NoWait(), BoundedWait(4), Wait())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batch := func(from tvg.Time, slow tvg.Time) []tvg.ContactRecord {
		var recs []tvg.ContactRecord
		for dep := from; dep < from+8; dep++ {
			for range 4 {
				u := tvg.Node(rng.Intn(n))
				recs = append(recs, tvg.ContactRecord{From: u, To: (u + 1 + tvg.Node(rng.Intn(n-1))) % n, Dep: dep, Arr: dep + 1})
			}
		}
		if slow > 0 {
			recs = append(recs, tvg.ContactRecord{From: 0, To: n - 1, Dep: from, Arr: from + slow})
		}
		return recs
	}
	for _, l := range []Ladder{rungOf(t, BoundedWait(4)), ladder} {
		for _, w := range []int{1, 2} {
			for _, workers := range []int{1, 3} {
				label := fmt.Sprintf("%s/w=%d/workers=%d", l, w, workers)
				opts := SweepOpts{Width: w, Workers: workers}
				check := func(step string, c *tvg.ContactSet, got *SpectrumResult) {
					t.Helper()
					want := sweepOf(t, c, l, 0, SweepOpts{Width: 1})
					for r := 0; r < l.Len(); r++ {
						sameArrivalMatrix(t, fmt.Sprintf("%s/%s/rung%d", label, step, r), want.Arrivals(r), got.Arrivals(r))
					}
				}
				c := emptySet(t, n, horizon)
				c, _ = c.AppendContacts(batch(0, 0))
				_, ck, err := SweepCheckpointed(ctx, c, l, 0, opts)
				if err != nil {
					t.Fatal(err)
				}
				// A latency the 16-tick ring just holds advances in place.
				c, _ = c.AppendContacts(batch(10, ckMinRing-1))
				res, err := ck.Advance(ctx, c, workers, nil)
				if err != nil {
					t.Fatalf("%s: in-ring latency: %v", label, err)
				}
				check("in-ring", c, res)
				// So does a long one that arrives past the horizon.
				c, _ = c.AppendContacts(batch(20, horizon))
				if res, err = ck.Advance(ctx, c, workers, nil); err != nil {
					t.Fatalf("%s: terminal latency: %v", label, err)
				}
				check("terminal", c, res)

				// One tick past the ring is stale; the checkpoint stays put.
				c, _ = c.AppendContacts(batch(30, ckMinRing))
				done := ck.DoneTick()
				if _, err := ck.Advance(ctx, c, workers, nil); !errors.Is(err, ErrCheckpointStale) {
					t.Fatalf("%s: outgrown ring: err = %v, want ErrCheckpointStale", label, err)
				}
				if ck.Poisoned() || ck.DoneTick() != done {
					t.Fatalf("%s: a stale refusal changed the checkpoint", label)
				}
				res, ck, err = SweepCheckpointed(ctx, c, l, 0, opts)
				if err != nil {
					t.Fatal(err)
				}
				check("rebuilt", c, res)
				for i, slow := range []tvg.Time{3, 0, 2*ckMinRing - 1} {
					c, _ = c.AppendContacts(batch(tvg.Time(40+10*i), slow))
					if res, err = ck.Advance(ctx, c, workers, nil); err != nil {
						t.Fatalf("%s: advance %d after the rebuild: %v", label, i, err)
					}
					check(fmt.Sprintf("after-rebuild-%d", i), c, res)
				}
			}
		}
	}
}
