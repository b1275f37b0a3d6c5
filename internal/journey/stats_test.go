package journey

import (
	"math/rand"
	"slices"
	"testing"

	"tvgwait/internal/gen"
	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// TestSweepStatsMultiSource checks the telemetry contract of the
// bit-parallel sweeps: one Blocks increment per 64-source block, a
// contact tally covering every swept tick, and — the part that actually
// matters — results bit-identical with and without a stats sink.
func TestSweepStatsMultiSource(t *testing.T) {
	for _, n := range []int{5, 64, 70, 130} {
		c, err := gen.Bernoulli(n, 0.01, 40, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBlocks := int64((n + blockBits - 1) / blockBits)
		for _, mode := range []Mode{NoWait(), BoundedWait(3), Wait()} {
			var st obs.SweepStats
			got := foremostOf(t, c, mode, 0, SweepOpts{Workers: 4, Stats: &st})
			want := foremostOf(t, c, mode, 0, SweepOpts{Workers: 4})
			if !slices.Equal(got.arr, want.arr) {
				t.Fatalf("n=%d %s: result with stats differs from the stats-free sweep", n, mode)
			}
			if st.Blocks.Value() != wantBlocks {
				t.Fatalf("n=%d %s: Blocks = %d, want %d", n, mode, st.Blocks.Value(), wantBlocks)
			}
			if st.Contacts.Value() <= 0 {
				t.Fatalf("n=%d %s: Contacts = %d, want > 0", n, mode, st.Contacts.Value())
			}
			if st.SparseFallbacks.Value() != 0 {
				t.Fatalf("n=%d %s: SparseFallbacks = %d on a dense-grid sweep", n, mode, st.SparseFallbacks.Value())
			}

		}
	}
}

// TestSweepStatsEarlyExit builds a network every sweep resolves long
// before the horizon (a dense burst of contacts early, dead air after),
// so every block must retire early under Wait.
func TestSweepStatsEarlyExit(t *testing.T) {
	c, err := gen.Bernoulli(40, 0.3, 500, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !TemporallyConnected(c, Wait(), 0) {
		t.Skip("generator no longer yields a connected burst; early-exit setup invalid")
	}
	var st obs.SweepStats
	foremostOf(t, c, Wait(), 0, SweepOpts{Stats: &st})
	if st.EarlyExits.Value() != st.Blocks.Value() {
		t.Fatalf("EarlyExits = %d, want every block (%d) to retire early", st.EarlyExits.Value(), st.Blocks.Value())
	}
	if st.DueExpiries.Value() != 0 {
		t.Fatalf("DueExpiries = %d under unbounded Wait, want 0", st.DueExpiries.Value())
	}
}

// TestSweepStatsDueExpiries checks that bounded waiting reports expiry
// work: under BoundedWait on a sparse stream, pending arrivals must
// lapse.
func TestSweepStatsDueExpiries(t *testing.T) {
	c, err := gen.Bernoulli(64, 0.002, 120, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st obs.SweepStats
	foremostOf(t, c, BoundedWait(2), 0, SweepOpts{Stats: &st})
	if st.DueExpiries.Value() <= 0 {
		t.Fatalf("DueExpiries = %d under BoundedWait(2), want > 0", st.DueExpiries.Value())
	}
}

// TestSweepStatsSpectrum pins the spectrum sweep's telemetry: block
// count, rung retirements on a ladder whose lower rungs resolve, and
// result equality with the stats-free entry point.
func TestSweepStatsSpectrum(t *testing.T) {
	ladder, err := NewLadder(NoWait(), BoundedWait(2), BoundedWait(6), Wait())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{30, 70} {
		c, err := gen.Bernoulli(n, 0.05, 60, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		var st obs.SweepStats
		got := sweepOf(t, c, ladder, 0, SweepOpts{Workers: 4, Stats: &st})
		want := sweepOf(t, c, ladder, 0, SweepOpts{Workers: 4})
		for r := 0; r < ladder.Len(); r++ {
			if !slices.Equal(got.Arrivals(r).arr, want.Arrivals(r).arr) {
				t.Fatalf("n=%d: rung %d differs between the sweeps with and without stats", n, r)
			}
		}
		wantBlocks := int64((n + blockBits - 1) / blockBits)
		if st.Blocks.Value() != wantBlocks {
			t.Fatalf("n=%d: Blocks = %d, want %d", n, st.Blocks.Value(), wantBlocks)
		}
		if st.Contacts.Value() <= 0 {
			t.Fatalf("n=%d: Contacts = %d, want > 0", n, st.Contacts.Value())
		}
		if st.RungRetirements.Value() <= 0 {
			t.Fatalf("n=%d: RungRetirements = %d, want > 0 (dense network resolves lower rungs)", n, st.RungRetirements.Value())
		}
	}
}

// TestSweepStatsSparseFallback drives a pending grid past
// msDenseCellLimit and pins one sparse fallback per block. The grid is
// nodes × pending ring, and the ring follows the longest in-flight
// latency, so one slow contact (40,000 ticks on a 45,001-tick window)
// stretches it to the whole window.
func TestSweepStatsSparseFallback(t *testing.T) {
	const n = 200
	const horizon = tvg.Time(45000)
	rng := rand.New(rand.NewSource(3))
	g := tvg.New()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		times := make([]tvg.Time, 0, 6)
		for k := 0; k < 6; k++ {
			times = append(times, tvg.Time(rng.Int63n(int64(horizon))))
		}
		g.MustAddEdge(tvg.Edge{
			From: tvg.Node(i), To: tvg.Node((i + 1) % n), Label: 'a',
			Presence: tvg.NewTimeSet(times...),
			Latency:  tvg.ConstLatency(1),
		})
	}
	g.MustAddEdge(tvg.Edge{
		From: 0, To: n / 2, Label: 'a',
		Presence: tvg.NewTimeSet(5), Latency: tvg.ConstLatency(40000),
	})
	c, err := tvg.Compile(g, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n)*pendingRing(c, 0).n <= msDenseCellLimit {
		t.Fatalf("test setup no longer exceeds msDenseCellLimit")
	}
	var st obs.SweepStats
	foremostOf(t, c, BoundedWait(100), 0, SweepOpts{Workers: 2, Stats: &st})
	if st.SparseFallbacks.Value() != st.Blocks.Value() {
		t.Fatalf("SparseFallbacks = %d, want one per block (%d)", st.SparseFallbacks.Value(), st.Blocks.Value())
	}
}
