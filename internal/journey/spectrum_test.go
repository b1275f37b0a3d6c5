package journey

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tvgwait/internal/gen"
	"tvgwait/internal/tvg"
)

// diffLadders returns the ladder inputs of the spectrum differential
// suite, degenerate shapes included: a single rung, duplicate-adjacent
// bounds, wait:0 next to nowait, a bound at/above the horizon next to
// wait, and ladders without a wait (or without a nowait) end.
func diffLadders(horizon tvg.Time) map[string][]Mode {
	return map[string][]Mode{
		"full":        {NoWait(), BoundedWait(1), BoundedWait(3), BoundedWait(7), Wait()},
		"single":      {BoundedWait(3)},
		"single-wait": {Wait()},
		"single-no":   {NoWait()},
		"dup-d":       {BoundedWait(2), BoundedWait(2), NoWait(), BoundedWait(2)},
		"zero-vs-no":  {BoundedWait(0), NoWait(), BoundedWait(1)},
		"at-horizon":  {NoWait(), BoundedWait(horizon), BoundedWait(horizon + 5), Wait()},
		"unsorted":    {Wait(), BoundedWait(5), NoWait(), BoundedWait(1)},
		"no-ends":     {BoundedWait(2), BoundedWait(6)},
	}
}

// checkSpectrumMatches pins a spectrum result rung-for-rung to the
// independent per-mode sweeps of the single-mode kernel: arrival
// matrices and packed reach bitsets (against its reach-only mode) must
// be bit-identical, and consecutive rungs must be nested (more waiting
// never loses a pair, never worsens an arrival).
func checkSpectrumMatches(t *testing.T, label string, c *tvg.ContactSet, res *SpectrumResult, t0 tvg.Time) {
	t.Helper()
	for i := 0; i < res.NumRungs(); i++ {
		mode := res.Mode(i)
		want := foremostOf(t, c, mode, t0, SweepOpts{})
		got := res.Arrivals(i)
		if !slices.Equal(got.arr, want.arr) {
			t.Fatalf("%s: rung %d (%s) arrival matrix differs from the one-rung sweep", label, i, mode)
		}
		wantR := reachOnlyOf(c, mode, t0, 0)
		gotR := res.Reach(i)
		if !slices.Equal(gotR.bits, wantR.bits) {
			t.Fatalf("%s: rung %d (%s) reach bitset differs from the reach-only kernel", label, i, mode)
		}
	}
	// Nesting invariant across consecutive rungs.
	for i := 1; i < res.NumRungs(); i++ {
		lo, hi := res.Arrivals(i-1), res.Arrivals(i)
		for p := range lo.arr {
			la, ha := lo.arr[p], hi.arr[p]
			if la >= 0 && (ha < 0 || ha > la) {
				t.Fatalf("%s: rung %d (%s) not nested in rung %d (%s) at pair %d: %d vs %d",
					label, i-1, res.Mode(i-1), i, res.Mode(i), p, la, ha)
			}
		}
	}
	// FirstConnected agrees with the per-rung matrices.
	first, ok := res.FirstConnected()
	for i := 0; i < res.NumRungs(); i++ {
		conn := res.Arrivals(i).Connected()
		if conn && (!ok || first > i) {
			t.Fatalf("%s: rung %d connected but FirstConnected = (%d, %v)", label, i, first, ok)
		}
		if ok && i == first && !conn {
			t.Fatalf("%s: FirstConnected = %d but that rung is not connected", label, first)
		}
	}
}

// TestWaitSpectrumMatchesAllForemost is the spectrum differential
// harness: across the four generator models, horizons, seeds, start
// times and ladder shapes (degenerate ones included), every rung of the
// single-sweep spectrum must be bit-identical to an independent
// single-mode pass under that rung's mode. The ladder kernel is run
// directly too, so one-rung ladders — which Sweep hands to the
// single-mode kernel — still pin it.
func TestWaitSpectrumMatchesAllForemost(t *testing.T) {
	for _, horizon := range []tvg.Time{12, 30, 55} {
		for seed := int64(1); seed <= 2; seed++ {
			for name, c := range diffNetworks(t, seed, horizon) {
				for _, t0 := range []tvg.Time{0, horizon / 3, horizon} {
					for lname, modes := range diffLadders(horizon) {
						ladder, err := NewLadder(modes...)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s/h=%d/seed=%d/t0=%d/%s", name, horizon, seed, t0, lname)
						checkSpectrumMatches(t, label, c, sweepOf(t, c, ladder, t0, SweepOpts{}), t0)
						checkSpectrumMatches(t, label+"/ladder-kernel", c, ladderKernelOf(t, c, ladder, t0, SweepOpts{}), t0)
					}
				}
			}
		}
	}
}

// TestWaitSpectrumBlockBoundaries covers node counts above one machine
// word: partial tail blocks and multiple blocks per sweep.
func TestWaitSpectrumBlockBoundaries(t *testing.T) {
	ladder, err := NewLadder(NoWait(), BoundedWait(2), BoundedWait(6), Wait())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		nodes   int
		p       float64
		horizon tvg.Time
	}{
		{70, 0.004, 24},   // 2 blocks, 6-bit tail
		{130, 0.0015, 30}, // 3 blocks, 2-bit tail
	} {
		c, err := gen.Bernoulli(tc.nodes, tc.p, tc.horizon, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := sweepOf(t, c, ladder, 0, SweepOpts{})
		checkSpectrumMatches(t, fmt.Sprintf("n=%d", tc.nodes), c, res, 0)
	}
}

// TestWaitSpectrumSparseFallback pushes nodes × span × rungs past
// msDenseCellLimit so the pending grid takes the hash-map path.
func TestWaitSpectrumSparseFallback(t *testing.T) {
	const n = 200
	const horizon = tvg.Time(45000)
	ladder, err := NewLadder(NoWait(), BoundedWait(5000), Wait())
	if err != nil {
		t.Fatal(err)
	}
	if int64(n)*int64(horizon+1)*int64(ladder.Len()) <= msDenseCellLimit {
		t.Fatalf("test setup no longer exceeds msDenseCellLimit")
	}
	rng := rand.New(rand.NewSource(3))
	g := tvg.New()
	g.AddNodes(n)
	addEdge := func(from, to int) {
		times := make([]tvg.Time, 0, 6)
		for k := 0; k < 6; k++ {
			times = append(times, tvg.Time(rng.Int63n(int64(horizon))))
		}
		g.MustAddEdge(tvg.Edge{
			From: tvg.Node(from), To: tvg.Node(to), Label: 'a',
			Presence: tvg.NewTimeSet(times...),
			Latency:  tvg.ConstLatency(tvg.Time(1 + rng.Intn(3))),
		})
	}
	for i := 0; i < n; i++ {
		addEdge(i, (i+1)%n)
		addEdge(i, (i+17)%n)
	}
	c, err := tvg.Compile(g, horizon)
	if err != nil {
		t.Fatal(err)
	}
	res := sweepOf(t, c, ladder, 0, SweepOpts{})
	checkSpectrumMatches(t, "sparse", c, res, 0)
}

// TestWaitSpectrumEarlyExitReuse alternates a dense, quickly-saturating
// network (every rung completes, the sweep early-exits and must leave
// the pooled scratch clean) with a sparse one on a different ladder — a
// regression trap for the self-cleaning grid/bucket discipline across
// rung counts.
func TestWaitSpectrumEarlyExitReuse(t *testing.T) {
	const n = 80
	dense := tvg.New()
	dense.AddNodes(n)
	for i := 0; i < n; i++ {
		for _, step := range []int{1, 7, 31} {
			dense.MustAddEdge(tvg.Edge{
				From: tvg.Node(i), To: tvg.Node((i + step) % n), Label: 'a',
				Presence: tvg.Always{}, Latency: tvg.ConstLatency(1),
			})
		}
	}
	cDense, err := tvg.Compile(dense, 200)
	if err != nil {
		t.Fatal(err)
	}
	cSparse, err := gen.Bernoulli(70, 0.003, 40, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	denseLadder, err := NewLadder(BoundedWait(1), BoundedWait(4), Wait())
	if err != nil {
		t.Fatal(err)
	}
	sparseLadder, err := NewLadder(NoWait(), BoundedWait(3), BoundedWait(9), Wait())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		res := sweepOf(t, cDense, denseLadder, 0, SweepOpts{})
		if _, ok := res.FirstConnected(); !ok {
			t.Fatal("dense static graph must be connected at some rung")
		}
		checkSpectrumMatches(t, fmt.Sprintf("dense/round=%d", round), cDense, res, 0)
		// Immediately reuse the pooled scratch on a different shape,
		// ladder length and mode mix.
		res = sweepOf(t, cSparse, sparseLadder, 0, SweepOpts{})
		checkSpectrumMatches(t, fmt.Sprintf("sparse/round=%d", round), cSparse, res, 0)
	}
}

// TestWaitSpectrumParallelMatches pins the block fan-out contract for
// the spectrum: every worker count must produce bit-identical rung
// matrices.
func TestWaitSpectrumParallelMatches(t *testing.T) {
	ladder, err := NewLadder(NoWait(), BoundedWait(2), Wait())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		nodes   int
		p       float64
		horizon tvg.Time
	}{{70, 0.02, 24}, {130, 0.0015, 30}, {192, 0.008, 40}} {
		c, err := gen.Bernoulli(tc.nodes, tc.p, tc.horizon, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := sweepOf(t, c, ladder, 0, SweepOpts{})
		for _, workers := range []int{0, 2, 3, 16} {
			got := sweepOf(t, c, ladder, 0, SweepOpts{Workers: workers})
			for i := 0; i < want.NumRungs(); i++ {
				if !slices.Equal(got.Arrivals(i).arr, want.Arrivals(i).arr) {
					t.Fatalf("n=%d workers=%d: rung %d differs from sequential", tc.nodes, workers, i)
				}
			}
		}
	}
}

// TestWaitSpectrumEdgeCases pins the corner inputs: empty and singleton
// graphs, start times past the horizon, zero-value ladders (an error).
func TestWaitSpectrumEdgeCases(t *testing.T) {
	ladder, err := NewLadder(NoWait(), Wait())
	if err != nil {
		t.Fatal(err)
	}

	empty, err := tvg.Compile(tvg.New(), 10)
	if err != nil {
		t.Fatal(err)
	}
	res := sweepOf(t, empty, ladder, 0, SweepOpts{})
	if res.NumRungs() != 2 || res.Arrivals(0).NumNodes() != 0 {
		t.Errorf("empty graph spectrum shape wrong: %d rungs", res.NumRungs())
	}
	if i, ok := res.FirstConnected(); !ok || i != 0 {
		t.Errorf("empty graph FirstConnected = (%d, %v), want (0, true)", i, ok)
	}

	g1 := tvg.New()
	g1.AddNode("solo")
	c1, err := tvg.Compile(g1, 5)
	if err != nil {
		t.Fatal(err)
	}
	res = sweepOf(t, c1, ladder, 3, SweepOpts{})
	for i := 0; i < 2; i++ {
		if arr, ok := res.Arrivals(i).At(0, 0); !ok || arr != 3 {
			t.Errorf("singleton rung %d At(0,0) = (%d, %v), want (3, true)", i, arr, ok)
		}
	}

	// t0 past the horizon: only the diagonal is reachable, every rung.
	g2 := tvg.New()
	g2.AddNodes(2)
	g2.MustAddEdge(tvg.Edge{From: 0, To: 1, Label: 'a', Presence: tvg.Always{}, Latency: tvg.ConstLatency(1)})
	c2, err := tvg.Compile(g2, 10)
	if err != nil {
		t.Fatal(err)
	}
	checkSpectrumMatches(t, "past-horizon", c2, sweepOf(t, c2, ladder, 15, SweepOpts{}), 15)

	// Zero-value ladder: rejected, no work.
	if res, err := Sweep(context.Background(), c2, Ladder{}, 0, SweepOpts{}); res != nil || err == nil {
		t.Errorf("zero ladder sweep = (%v, %v), want an error", res, err)
	}
}

// TestLadderNormalization pins the normalization contract: sorting by
// permissiveness, Bound-level dedup (wait:0 ≡ nowait), canonical rung
// modes, RungOf mapping and the error cases.
func TestLadderNormalization(t *testing.T) {
	l, err := NewLadder(Wait(), BoundedWait(4), NoWait(), BoundedWait(0), BoundedWait(4), BoundedWait(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []Mode{NoWait(), BoundedWait(1), BoundedWait(4), Wait()}
	if got := l.Modes(); !slices.Equal(got, want) {
		t.Fatalf("normalized ladder = %v, want %v", got, want)
	}
	if l.String() != "nowait,wait[1],wait[4],wait" {
		t.Fatalf("ladder String = %q", l.String())
	}
	// Consecutive rungs strictly gain permissiveness.
	for i := 1; i < l.Len(); i++ {
		if !l.Mode(i).AtLeastAsPermissive(l.Mode(i - 1)) {
			t.Fatalf("rung %d not at least as permissive as rung %d", i, i-1)
		}
		if l.Mode(i - 1).AtLeastAsPermissive(l.Mode(i)) {
			t.Fatalf("rungs %d and %d are equally permissive (dedup failed)", i-1, i)
		}
	}
	// RungOf maps by Bound, not by surface form.
	for _, tc := range []struct {
		m    Mode
		rung int
		ok   bool
	}{
		{NoWait(), 0, true},
		{BoundedWait(0), 0, true},
		{BoundedWait(1), 1, true},
		{BoundedWait(4), 2, true},
		{Wait(), 3, true},
		{BoundedWait(2), 0, false},
		{Mode{}, 0, false},
	} {
		if i, ok := l.RungOf(tc.m); ok != tc.ok || (ok && i != tc.rung) {
			t.Errorf("RungOf(%s) = (%d, %v), want (%d, %v)", tc.m, i, ok, tc.rung, tc.ok)
		}
	}
	// Re-normalization is a fixed point.
	l2, err := NewLadder(l.Modes()...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(l2.Modes(), l.Modes()) {
		t.Fatalf("re-normalized ladder %v differs from %v", l2.Modes(), l.Modes())
	}

	// Error cases: empty input, invalid mode.
	if _, err := NewLadder(); err == nil {
		t.Error("NewLadder() should reject an empty ladder")
	}
	if _, err := NewLadder(NoWait(), Mode{}); err == nil {
		t.Error("NewLadder should reject an invalid mode")
	}
	// Ladders without a wait rung keep their finite top.
	l3, err := NewLadder(BoundedWait(9), BoundedWait(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l3.RungOf(Wait()); ok {
		t.Error("finite ladder should not map Wait to a rung")
	}
}

// TestWindowEndOverflow is the regression test for the signed overflow
// in Mode.WindowEnd: arr + d used to wrap for huge bounds, yielding a
// window end *before* arr.
func TestWindowEndOverflow(t *testing.T) {
	const horizon = tvg.Time(100)
	cases := []struct {
		mode Mode
		arr  tvg.Time
		want tvg.Time
	}{
		{BoundedWait(math.MaxInt64), 5, horizon},
		{BoundedWait(math.MaxInt64 - 2), 5, horizon},
		{BoundedWait(1), math.MaxInt64 - 1, horizon},
		{BoundedWait(2), 50, 52},
		{BoundedWait(60), 50, horizon},
		{NoWait(), 7, 7},
		{Wait(), 7, horizon},
	}
	for _, tc := range cases {
		if got := tc.mode.WindowEnd(tc.arr, horizon); got != tc.want {
			t.Errorf("%s.WindowEnd(%d, %d) = %d, want %d", tc.mode, tc.arr, horizon, got, tc.want)
		}
		if got := tc.mode.WindowEnd(tc.arr, horizon); got < tc.arr && got != horizon {
			t.Errorf("%s.WindowEnd(%d, %d) = %d is before arr without clamping", tc.mode, tc.arr, horizon, got)
		}
	}
	// The huge-bound semantics end to end: a bounded wait past any
	// plausible pause must behave like wait on a real search.
	c, err := gen.Bernoulli(8, 0.05, 40, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	huge := BoundedWait(math.MaxInt64)
	for src := tvg.Node(0); src < 8; src++ {
		for dst := tvg.Node(0); dst < 8; dst++ {
			_, wa, wok := Foremost(c, Wait(), src, dst, 0)
			_, ha, hok := Foremost(c, huge, src, dst, 0)
			if wok != hok || (wok && wa != ha) {
				t.Fatalf("Foremost(%d,%d): wait = (%d, %v), wait[MaxInt64] = (%d, %v)",
					src, dst, wa, wok, ha, hok)
			}
		}
	}
}

// TestWaitSpectrumHugeBound is the regression test for the cascading-
// expiry overflow: a ladder pairing nowait with wait[MaxInt64] used to
// wrap batch + d + 1 negative when a stale nowait copy cascaded to the
// huge rung, panicking with a negative expire index (reachable from
// POST /spectrum). The huge rung must also behave exactly like wait.
func TestWaitSpectrumHugeBound(t *testing.T) {
	c, err := gen.EdgeMarkovian(gen.EdgeMarkovianParams{
		Nodes: 24, PBirth: 0.03, PDeath: 0.5, Horizon: 60, Seed: 9,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := NewLadder(NoWait(), BoundedWait(2), BoundedWait(math.MaxInt64), Wait())
	if err != nil {
		t.Fatal(err)
	}
	res := sweepOf(t, c, ladder, 0, SweepOpts{})
	checkSpectrumMatches(t, "huge-bound", c, res, 0)
	hugeM, ok := res.ArrivalsFor(BoundedWait(math.MaxInt64))
	if !ok {
		t.Fatal("huge bound missing from ladder")
	}
	waitM, ok := res.ArrivalsFor(Wait())
	if !ok {
		t.Fatal("wait missing from ladder")
	}
	if !slices.Equal(hugeM.arr, waitM.arr) {
		t.Error("wait[MaxInt64] matrix differs from wait")
	}
}
