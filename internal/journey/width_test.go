package journey

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tvgwait/internal/gen"
	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// sweepWidths are the supported lane-word counts; every differential
// suite below pins each of them bit-identical to the narrow (W=1) sweep.
var sweepWidths = []int{1, 2, 4, 8}

// widthModes keeps the width matrix affordable: one budget per waiting
// regime (the per-mode semantics are already covered by the W=1
// differential suites; here only the lane layout varies).
func widthModes() []Mode { return []Mode{NoWait(), BoundedWait(3), Wait()} }

// widthNetworks compiles one block-scale schedule per generator model —
// the width suites need node counts past one machine word, which the
// small diffNetworks cannot reach.
func widthNetworks(tb testing.TB, n int, horizon tvg.Time, seed int64) map[string]*tvg.ContactSet {
	tb.Helper()
	out := map[string]*tvg.ContactSet{}
	add := func(name string, c *tvg.ContactSet, err error) {
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out[name] = c
	}
	c, err := gen.EdgeMarkovian(gen.EdgeMarkovianParams{
		Nodes: n, PBirth: 0.01, PDeath: 0.5, Horizon: horizon, Seed: seed,
	}, nil)
	add("markov", c, err)
	c, err = gen.Bernoulli(n, 0.008, horizon, seed, nil)
	add("bernoulli", c, err)
	c, err = gen.GridMobility(gen.MobilityParams{
		Width: 12, Height: 12, Nodes: n, Horizon: horizon, Seed: seed,
	}, nil)
	add("mobility", c, err)
	c, err = gen.RandomPeriodic(gen.PeriodicParams{
		Nodes: n, Edges: 3 * n, MaxPeriod: 6, AlphabetSize: 2, MaxLatency: 3, Seed: seed,
	}, horizon, nil)
	add("periodic", c, err)
	return out
}

// requireSameForemost pins got bit-identical to want (same layout, same
// -1 pattern) — the width contract, not an approximate equivalence.
func requireSameForemost(tb testing.TB, label string, got, want *ArrivalMatrix) {
	tb.Helper()
	if !slices.Equal(got.arr, want.arr) {
		tb.Fatalf("%s: arrival matrix differs from the W=1 sweep", label)
	}
}

// TestWidthMatchesNarrowAllModels is the width differential harness:
// across every generator model and waiting regime, each supported width
// must reproduce the narrow sweep's foremost and reachability output bit
// for bit — the one-rung sweep, the reach-only kernel TemporallyConnected
// runs, and every rung of a ladder sweep.
func TestWidthMatchesNarrowAllModels(t *testing.T) {
	ladder, err := NewLadder(NoWait(), BoundedWait(2), BoundedWait(5), Wait())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range widthNetworks(t, 140, 40, 3) {
		for _, mode := range widthModes() {
			want := foremostOf(t, c, mode, 0, SweepOpts{Width: 1})
			wantR := reachOnlyOf(c, mode, 0, 1)
			for _, w := range sweepWidths[1:] {
				label := fmt.Sprintf("%s/%s/w=%d", name, mode, w)
				requireSameForemost(t, label, foremostOf(t, c, mode, 0, SweepOpts{Width: w}), want)
				if got := reachOnlyOf(c, mode, 0, w); !slices.Equal(got.bits, wantR.bits) {
					t.Fatalf("%s: reachability matrix differs from the W=1 sweep", label)
				}
			}
		}
		wantS := sweepOf(t, c, ladder, 0, SweepOpts{Width: 1})
		for _, w := range sweepWidths[1:] {
			got := sweepOf(t, c, ladder, 0, SweepOpts{Width: w})
			for r := 0; r < ladder.Len(); r++ {
				if !slices.Equal(got.Arrivals(r).arr, wantS.Arrivals(r).arr) {
					t.Fatalf("%s/w=%d: spectrum rung %d differs from the W=1 sweep", name, w, r)
				}
			}
		}
	}
}

// TestWidthBlockBoundaries sweeps the node counts that stress the lane
// layout: one bit either side of every lane-word boundary (64), of the
// widest half-block (256) and of the full 8-lane block (512), so tail
// lanes, effective-width clamping (W > ⌈n/64⌉) and multi-block splits
// are all hit at every width.
func TestWidthBlockBoundaries(t *testing.T) {
	ladder, err := NewLadder(NoWait(), BoundedWait(2), Wait())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{63, 64, 65, 255, 256, 257, 511, 512, 513} {
		c, err := gen.Bernoulli(n, 0.3/float64(n), 30, 9, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range widthModes() {
			want := foremostOf(t, c, mode, 0, SweepOpts{Width: 1})
			for _, w := range sweepWidths[1:] {
				var st obs.SweepStats
				got := foremostOf(t, c, mode, 0, SweepOpts{Width: w, Stats: &st})
				requireSameForemost(t, fmt.Sprintf("n=%d/%s/w=%d", n, mode, w), got, want)
				if st.Width.Value() != int64(w) {
					t.Fatalf("n=%d/w=%d: Width gauge = %d", n, w, st.Width.Value())
				}
				wantBlocks := int64((n + w*blockBits - 1) / (w * blockBits))
				if st.Blocks.Value() != wantBlocks {
					t.Fatalf("n=%d/w=%d: Blocks = %d, want %d", n, w, st.Blocks.Value(), wantBlocks)
				}
			}
		}
		wantS := sweepOf(t, c, ladder, 0, SweepOpts{Width: 1})
		for _, w := range sweepWidths[1:] {
			got := sweepOf(t, c, ladder, 0, SweepOpts{Width: w})
			for r := 0; r < ladder.Len(); r++ {
				if !slices.Equal(got.Arrivals(r).arr, wantS.Arrivals(r).arr) {
					t.Fatalf("n=%d/w=%d: spectrum rung %d differs from the W=1 sweep", n, w, r)
				}
			}
		}
	}
}

// TestWidthParallelMatchesSequential crosses the two fan-out axes: at
// every (width, workers) pair the block split changes, the output must
// not.
func TestWidthParallelMatchesSequential(t *testing.T) {
	c, err := gen.Bernoulli(257, 0.002, 30, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range widthModes() {
		want := foremostOf(t, c, mode, 0, SweepOpts{Width: 1})
		for _, w := range sweepWidths {
			for _, workers := range []int{2, 3, 16} {
				got := foremostOf(t, c, mode, 0, SweepOpts{Workers: workers, Width: w})
				requireSameForemost(t, fmt.Sprintf("%s/w=%d/workers=%d", mode, w, workers), got, want)
			}
		}
	}
}

// TestWidthSparseFallback runs the widths over a grid past
// msDenseCellLimit: the sparse map is keyed per (node, ring slot, lane)
// cell, and every width must agree with the narrow sparse sweep bit for
// bit. One slow contact (40,000 ticks) wraps a 65,536-tick pending ring
// round a 70,001-tick window, so the map's keys wrap too.
func TestWidthSparseFallback(t *testing.T) {
	const n = 200
	const horizon = tvg.Time(70000)
	rng := rand.New(rand.NewSource(5))
	g := tvg.New()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		for _, step := range []int{1, 17} {
			times := make([]tvg.Time, 0, 6)
			for k := 0; k < 6; k++ {
				times = append(times, tvg.Time(rng.Int63n(int64(horizon))))
			}
			g.MustAddEdge(tvg.Edge{
				From: tvg.Node(i), To: tvg.Node((i + step) % n), Label: 'a',
				Presence: tvg.NewTimeSet(times...),
				Latency:  tvg.ConstLatency(tvg.Time(1 + rng.Intn(3))),
			})
		}
	}
	g.MustAddEdge(tvg.Edge{
		From: 0, To: n / 2, Label: 'a',
		Presence: tvg.NewTimeSet(5, 20000), Latency: tvg.ConstLatency(40000),
	})
	c, err := tvg.Compile(g, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if ring := pendingRing(c, 0); ring.mask < 0 || int64(n)*ring.n <= msDenseCellLimit {
		t.Fatalf("setup invalid: pending ring %+v must wrap and exceed msDenseCellLimit", ring)
	}
	for _, mode := range []Mode{NoWait(), BoundedWait(5000), Wait()} {
		want := foremostOf(t, c, mode, 0, SweepOpts{Width: 1})
		for _, w := range sweepWidths[1:] {
			var st obs.SweepStats
			got := foremostOf(t, c, mode, 0, SweepOpts{Width: w, Stats: &st})
			requireSameForemost(t, fmt.Sprintf("sparse/%s/w=%d", mode, w), got, want)
			if st.SparseFallbacks.Value() != st.Blocks.Value() {
				t.Fatalf("%s/w=%d: SparseFallbacks = %d, want one per block (%d)",
					mode, w, st.SparseFallbacks.Value(), st.Blocks.Value())
			}
		}
	}
}

// TestWidthEarlyExitReuse alternates widths, shapes and modes on the
// same pooled scratches: a wide early-exiting sweep must leave the
// scratch clean for a narrow full-horizon sweep and vice versa — the
// width generalization of the self-cleaning discipline.
func TestWidthEarlyExitReuse(t *testing.T) {
	const nDense = 150
	dense := tvg.New()
	dense.AddNodes(nDense)
	for i := 0; i < nDense; i++ {
		for _, step := range []int{1, 7, 31} {
			dense.MustAddEdge(tvg.Edge{
				From: tvg.Node(i), To: tvg.Node((i + step) % nDense), Label: 'a',
				Presence: tvg.Always{}, Latency: tvg.ConstLatency(1),
			})
		}
	}
	cDense, err := tvg.Compile(dense, 300)
	if err != nil {
		t.Fatal(err)
	}
	cSparse, err := gen.Bernoulli(130, 0.0015, 40, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDense := foremostOf(t, cDense, Wait(), 0, SweepOpts{Width: 1})
	if !wantDense.Connected() {
		t.Fatal("dense static graph must be all-reachable under wait")
	}
	wantSparse := map[string]*ArrivalMatrix{}
	for _, mode := range []Mode{NoWait(), BoundedWait(3)} {
		wantSparse[mode.String()] = foremostOf(t, cSparse, mode, 0, SweepOpts{Width: 1})
	}
	for round := 0; round < 3; round++ {
		for _, w := range sweepWidths[1:] {
			got := foremostOf(t, cDense, Wait(), 0, SweepOpts{Width: w})
			requireSameForemost(t, fmt.Sprintf("round=%d/dense/w=%d", round, w), got, wantDense)
			for _, mode := range []Mode{NoWait(), BoundedWait(3)} {
				got := foremostOf(t, cSparse, mode, 0, SweepOpts{Width: w})
				requireSameForemost(t, fmt.Sprintf("round=%d/sparse/%s/w=%d", round, mode, w),
					got, wantSparse[mode.String()])
			}
		}
	}
}

// TestWidthLaneRetirement builds a two-speed block: lane 0's sources
// (the complete subgraph's nodes) saturate within a few ticks, lane 1's
// sources cannot move before t=50. Lane 0 must retire mid-sweep — and
// be counted — while lane 1 keeps the block running, and the frozen
// lane's results must still match the narrow sweep.
func TestWidthLaneRetirement(t *testing.T) {
	const n = 128
	g := tvg.New()
	g.AddNodes(n)
	for i := 0; i < blockBits; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			g.MustAddEdge(tvg.Edge{
				From: tvg.Node(i), To: tvg.Node(j), Label: 'a',
				Presence: tvg.Always{}, Latency: tvg.ConstLatency(1),
			})
		}
	}
	// Lane 1's sources own a single late hop into the fast half.
	for i := blockBits; i < n; i++ {
		g.MustAddEdge(tvg.Edge{
			From: tvg.Node(i), To: 0, Label: 'a',
			Presence: tvg.NewTimeSet(50), Latency: tvg.ConstLatency(1),
		})
	}
	c, err := tvg.Compile(g, 60)
	if err != nil {
		t.Fatal(err)
	}
	want := foremostOf(t, c, Wait(), 0, SweepOpts{Width: 1})
	var st obs.SweepStats
	got := foremostOf(t, c, Wait(), 0, SweepOpts{Width: 2, Stats: &st})
	requireSameForemost(t, "lane-retirement", got, want)
	if st.Width.Value() != 2 {
		t.Fatalf("Width gauge = %d, want 2", st.Width.Value())
	}
	if st.LaneRetirements.Value() < 1 {
		t.Fatalf("LaneRetirements = %d, want >= 1 (fast lane must retire mid-sweep)",
			st.LaneRetirements.Value())
	}
	if st.EarlyExits.Value() != 1 {
		t.Fatalf("EarlyExits = %d, want 1 (slow lane finishes before the horizon)",
			st.EarlyExits.Value())
	}
	if !got.Connected() {
		t.Fatal("two-speed network must be temporally connected under wait")
	}
}

// TestAutoWidth pins the width-selection rules: node-count widening,
// worker-fan-out narrowing, and the dense-grid budget (which must never
// push an affordable dense grid into the sparse path, and must leave
// already-sparse grids at full width).
func TestAutoWidth(t *testing.T) {
	cases := []struct {
		name           string
		n              int
		ring           int64
		rungs, workers int
		want           int
	}{
		{"tiny", 5, 100, 1, 1, 1},
		{"one word", 64, 100, 1, 1, 1},
		{"just past a word", 65, 100, 1, 1, 2},
		{"two words", 130, 100, 1, 1, 4},
		{"auto caps at four lanes", 513, 100, 1, 1, 4},
		{"fan-out narrows", 513, 100, 1, 8, 1},
		{"fan-out partial", 513, 100, 1, 3, 4},
		{"dense budget narrows", 520, 4501, 1, 1, 2},
		{"sparse keeps width", 200, 45001, 1, 1, 4},
		{"spectrum rungs charge the grid", 520, 3001, 4, 1, 1},
	}
	for _, tc := range cases {
		if got := autoWidth(tc.n, tc.ring, tc.rungs, tc.workers); got != tc.want {
			t.Errorf("%s: autoWidth(%d, %d, %d, %d) = %d, want %d",
				tc.name, tc.n, tc.ring, tc.rungs, tc.workers, got, tc.want)
		}
	}
	// Explicit widths: 0 delegates to auto, others round down to a
	// supported power of two.
	if got := normWidth(0, 513, 100, 1, 1); got != 4 {
		t.Errorf("normWidth(0) = %d, want the auto width 4", got)
	}
	for _, tc := range []struct{ in, want int }{
		{-1, 1}, {1, 1}, {2, 2}, {3, 2}, {5, 4}, {8, 8}, {100, 8},
	} {
		if tc.in <= 0 {
			continue
		}
		if got := normWidth(tc.in, 5, 100, 1, 1); got != tc.want {
			t.Errorf("normWidth(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := normWidth(-1, 5, 100, 1, 1); got != 1 {
		t.Errorf("normWidth(-1) = %d, want the auto width 1", got)
	}
}

// TestWidthDenseBudgetRegression is the ×W dense-cell accounting trap: a
// grid the dense path affords at W=1 (n·ring ≤ limit) but not at W=8.
// The auto width must stay within the dense budget; an explicit W=8
// must fall back to the sparse map on its full-width block — and still
// be bit-identical. One slow contact (1,500 ticks) sets the pending ring
// to 2,048 ticks.
func TestWidthDenseBudgetRegression(t *testing.T) {
	const n = 520
	const horizon = tvg.Time(3000)
	rng := rand.New(rand.NewSource(13))
	g := tvg.New()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		for _, step := range []int{1, 11} {
			times := make([]tvg.Time, 0, 4)
			for k := 0; k < 4; k++ {
				times = append(times, tvg.Time(rng.Int63n(int64(horizon))))
			}
			g.MustAddEdge(tvg.Edge{
				From: tvg.Node(i), To: tvg.Node((i + step) % n), Label: 'a',
				Presence: tvg.NewTimeSet(times...),
				Latency:  tvg.ConstLatency(1),
			})
		}
	}
	g.MustAddEdge(tvg.Edge{
		From: 0, To: n / 2, Label: 'a',
		Presence: tvg.NewTimeSet(7), Latency: tvg.ConstLatency(1500),
	})
	c, err := tvg.Compile(g, horizon)
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(n) * pendingRing(c, 0).n
	if cells > msDenseCellLimit || cells*maxSweepWidth <= msDenseCellLimit {
		t.Fatalf("setup invalid: n·ring = %d must be dense at W=1 and sparse at W=8", cells)
	}
	want := foremostOf(t, c, BoundedWait(40), 0, SweepOpts{Width: 1})

	// Auto width: narrowed to the widest still-dense block.
	var auto obs.SweepStats
	got := foremostOf(t, c, BoundedWait(40), 0, SweepOpts{Stats: &auto})
	requireSameForemost(t, "auto width", got, want)
	if auto.Width.Value() != 4 {
		t.Fatalf("auto Width = %d, want 4 (the auto cap, still within the ×W grid budget)", auto.Width.Value())
	}
	if auto.SparseFallbacks.Value() != 0 {
		t.Fatalf("auto width fell back to the sparse map %d times, want dense",
			auto.SparseFallbacks.Value())
	}

	// Forced past the budget: the full-width block goes sparse; the
	// 8-source tail block clamps to one lane, fits the budget again and
	// stays dense — the clamp must feed the ×W accounting too.
	var forced obs.SweepStats
	got = foremostOf(t, c, BoundedWait(40), 0, SweepOpts{Width: 8, Stats: &forced})
	requireSameForemost(t, "forced w=8", got, want)
	if forced.Blocks.Value() != 2 || forced.SparseFallbacks.Value() != 1 {
		t.Fatalf("forced w=8: Blocks = %d, SparseFallbacks = %d, want 2 blocks with only the full-width one sparse",
			forced.Blocks.Value(), forced.SparseFallbacks.Value())
	}
}

// TestScratchRetentionCap pins the pool hygiene satellite: a scratch
// grown past msMaxRetainedBytes by one wide sweep with a long in-flight
// latency must be dropped on Put instead of pinning hundreds of MB for
// the process lifetime; ordinary scratches keep being pooled. The grid
// follows the pending ring, so the oversize one comes from a 1023-tick
// latency (a 1024-tick ring) on a window far longer than that.
func TestScratchRetentionCap(t *testing.T) {
	const span = 1_000_000
	longRing := newTickRing(1023, span)
	if longRing.n != 1024 {
		t.Fatalf("setup invalid: a 1023-tick latency rings %d ticks, want 1024", longRing.n)
	}
	s := getMsScratch()
	s.prepare(64, 1, newTickRing(1, span), tickRing{}, 0, true)
	if s.retainedBytes() > msMaxRetainedBytes {
		t.Fatalf("small scratch charged %d bytes", s.retainedBytes())
	}
	if !putMsScratch(s) {
		t.Fatal("small multisource scratch was dropped")
	}
	s = getMsScratch()
	s.prepare(2100, maxSweepWidth, longRing, tickRing{}, 0, true) // dense grid alone ≈ 138 MB
	if s.retainedBytes() <= msMaxRetainedBytes {
		t.Fatalf("oversized scratch charged only %d bytes", s.retainedBytes())
	}
	if putMsScratch(s) {
		t.Fatal("oversized multisource scratch was retained")
	}

	ladder, err := NewLadder(NoWait(), BoundedWait(2), Wait())
	if err != nil {
		t.Fatal(err)
	}
	sp := getSpScratch()
	sp.prepare(ladder, 64, 1, span, newTickRing(1, span), true)
	if !putSpScratch(sp) {
		t.Fatal("small spectrum scratch was dropped")
	}
	sp = getSpScratch()
	sp.prepare(ladder, 700, maxSweepWidth, span, longRing, true) // k·W grid ≈ 138 MB
	if sp.retainedBytes() <= msMaxRetainedBytes {
		t.Fatalf("oversized spectrum scratch charged only %d bytes", sp.retainedBytes())
	}
	if putSpScratch(sp) {
		t.Fatal("oversized spectrum scratch was retained")
	}
}
