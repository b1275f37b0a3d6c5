package journey

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tvgwait/internal/gen"
	"tvgwait/internal/tvg"
)

// TestMultiSourceMatchesSingleSource is the differential harness of the
// bit-parallel sweep: across generator models, waiting modes, horizons
// and start times, the one-rung Sweep (and its packed Reach), the
// reach-only kernel and the rewritten metrics must agree bit for bit
// with the single-source searches and the preserved pre-multisource
// metric loops.
func TestMultiSourceMatchesSingleSource(t *testing.T) {
	for _, horizon := range []tvg.Time{12, 30, 55} {
		for seed := int64(1); seed <= 2; seed++ {
			for name, c := range diffNetworks(t, seed, horizon) {
				n := c.Graph().NumNodes()
				for _, t0 := range []tvg.Time{0, horizon / 3, horizon} {
					for _, mode := range diffModes() {
						label := fmt.Sprintf("%s/h=%d/seed=%d/%s t0=%d", name, horizon, seed, mode, t0)
						res := sweepOf(t, c, rungOf(t, mode), t0, SweepOpts{})
						m := res.Arrivals(0)
						r := reachOnlyOf(c, mode, t0, 0)
						if !slices.Equal(res.Reach(0).bits, r.bits) {
							t.Fatalf("%s: Sweep Reach differs from the reach-only kernel", label)
						}
						for src := tvg.Node(0); int(src) < n; src++ {
							reach := ReachableSet(c, mode, src, t0)
							for dst := tvg.Node(0); int(dst) < n; dst++ {
								arr, ok := m.At(src, dst)
								_, sarr, sok := Foremost(c, mode, src, dst, t0)
								if ok != sok || (ok && arr != sarr) {
									t.Fatalf("%s: Sweep(%d,%d) = (%d, %v), Foremost (%d, %v)",
										label, src, dst, arr, ok, sarr, sok)
								}
								if got := r.Reachable(src, dst); got != reach[dst] {
									t.Fatalf("%s: reach-only (%d,%d) = %v, ReachableSet %v",
										label, src, dst, got, reach[dst])
								}
								if ok != reach[dst] {
									t.Fatalf("%s: foremost ok=%v but reachable=%v at (%d,%d)",
										label, ok, reach[dst], src, dst)
								}
							}
							ecc, eccOK := TemporalEccentricity(c, mode, src, t0)
							secc, seccOK := singleSourceEccentricity(c, mode, src, t0)
							if eccOK != seccOK || (eccOK && ecc != secc) {
								t.Fatalf("%s: TemporalEccentricity(%d) = (%d, %v), single-source (%d, %v)",
									label, src, ecc, eccOK, secc, seccOK)
							}
							mecc, meccOK := m.Eccentricity(src)
							if meccOK != seccOK || (meccOK && mecc != secc) {
								t.Fatalf("%s: matrix Eccentricity(%d) = (%d, %v), single-source (%d, %v)",
									label, src, mecc, meccOK, secc, seccOK)
							}
						}
						conn := singleSourceConnected(c, mode, t0)
						if got := TemporallyConnected(c, mode, t0); got != conn {
							t.Fatalf("%s: TemporallyConnected = %v, single-source %v", label, got, conn)
						}
						if got := r.AllOnes(); got != conn {
							t.Fatalf("%s: ReachMatrix.AllOnes = %v, single-source %v", label, got, conn)
						}
						if got := m.Connected(); got != conn {
							t.Fatalf("%s: ArrivalMatrix.Connected = %v, single-source %v", label, got, conn)
						}
						if got, want := r.ReachablePairs(), m.ReachablePairs(); got != want {
							t.Fatalf("%s: ReachablePairs disagree: reach %d, arrivals %d", label, got, want)
						}
						d, dok := TemporalDiameter(c, mode, t0)
						sd, sdok := singleSourceDiameter(c, mode, t0)
						if dok != sdok || (dok && d != sd) {
							t.Fatalf("%s: TemporalDiameter = (%d, %v), single-source (%d, %v)", label, d, dok, sd, sdok)
						}
						md, mdok := m.Diameter()
						if mdok != sdok || (mdok && md != sd) {
							t.Fatalf("%s: matrix Diameter = (%d, %v), single-source (%d, %v)", label, md, mdok, sd, sdok)
						}
					}
				}
			}
		}
	}
}

// TestMultiSourceBlockBoundaries covers source counts above one machine
// word (partial last blocks, multiple blocks), which the small
// differential networks cannot reach.
func TestMultiSourceBlockBoundaries(t *testing.T) {
	cases := []struct {
		nodes   int
		p       float64
		horizon tvg.Time
	}{
		{70, 0.004, 24},   // 2 blocks, 6-bit tail
		{130, 0.0015, 30}, // 3 blocks, 2-bit tail
	}
	for _, tc := range cases {
		c, err := gen.Bernoulli(tc.nodes, tc.p, tc.horizon, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{NoWait(), BoundedWait(2), Wait()} {
			label := fmt.Sprintf("n=%d/%s", tc.nodes, mode)
			m := foremostOf(t, c, mode, 0, SweepOpts{})
			r := reachOnlyOf(c, mode, 0, 0)
			for src := tvg.Node(0); int(src) < tc.nodes; src++ {
				reach := ReachableSet(c, mode, src, 0)
				for dst := tvg.Node(0); int(dst) < tc.nodes; dst++ {
					if got := r.Reachable(src, dst); got != reach[dst] {
						t.Fatalf("%s: Reachable(%d,%d) = %v, want %v", label, src, dst, got, reach[dst])
					}
					if _, ok := m.At(src, dst); ok != reach[dst] {
						t.Fatalf("%s: At(%d,%d) ok=%v, want %v", label, src, dst, ok, reach[dst])
					}
				}
			}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 250; trial++ {
				src := tvg.Node(rng.Intn(tc.nodes))
				dst := tvg.Node(rng.Intn(tc.nodes))
				arr, ok := m.At(src, dst)
				_, sarr, sok := Foremost(c, mode, src, dst, 0)
				if ok != sok || (ok && arr != sarr) {
					t.Fatalf("%s: At(%d,%d) = (%d, %v), Foremost (%d, %v)", label, src, dst, arr, ok, sarr, sok)
				}
			}
			if got, want := TemporallyConnected(c, mode, 0), singleSourceConnected(c, mode, 0); got != want {
				t.Fatalf("%s: TemporallyConnected = %v, want %v", label, got, want)
			}
		}
	}
}

// TestMultiSourceSparseGridFallback pushes nodes × span past
// msDenseCellLimit so the pending-arrival buffer takes the hash-map
// path, and checks it against the single-source searches.
func TestMultiSourceSparseGridFallback(t *testing.T) {
	const n = 200
	const horizon = tvg.Time(45000)
	if int64(n)*int64(horizon+1) <= msDenseCellLimit {
		t.Fatalf("test setup no longer exceeds msDenseCellLimit (%d cells)", int64(n)*int64(horizon+1))
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
	for _, mode := range []Mode{NoWait(), BoundedWait(5000), Wait()} {
		m := foremostOf(t, c, mode, 0, SweepOpts{})
		r := reachOnlyOf(c, mode, 0, 0)
		for trial := 0; trial < 40; trial++ {
			src := tvg.Node(rng.Intn(n))
			reach := ReachableSet(c, mode, src, 0)
			for dst := tvg.Node(0); int(dst) < n; dst++ {
				if got := r.Reachable(src, dst); got != reach[dst] {
					t.Fatalf("%s: sparse Reachable(%d,%d) = %v, want %v", mode, src, dst, got, reach[dst])
				}
			}
			dst := tvg.Node(rng.Intn(n))
			arr, ok := m.At(src, dst)
			_, sarr, sok := Foremost(c, mode, src, dst, 0)
			if ok != sok || (ok && arr != sarr) {
				t.Fatalf("%s: sparse At(%d,%d) = (%d, %v), Foremost (%d, %v)", mode, src, dst, arr, ok, sarr, sok)
			}
		}
	}
}

// TestMultiSourceEarlyExitReuse alternates a dense, quickly-saturating
// network (the early-exit path, which must leave the pooled scratch
// clean) with a sparse one, re-verifying each result — a regression
// trap for the self-cleaning grid/bucket discipline.
func TestMultiSourceEarlyExitReuse(t *testing.T) {
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

	for round := 0; round < 3; round++ {
		// Dense + Wait saturates in a few ticks: every block early-exits.
		if !TemporallyConnected(cDense, Wait(), 0) {
			t.Fatal("dense static graph must be temporally connected under wait")
		}
		m := foremostOf(t, cDense, Wait(), 0, SweepOpts{})
		if !m.Connected() {
			t.Fatal("dense matrix must be all-reachable")
		}
		rng := rand.New(rand.NewSource(int64(round)))
		for trial := 0; trial < 60; trial++ {
			src := tvg.Node(rng.Intn(n))
			dst := tvg.Node(rng.Intn(n))
			arr, ok := m.At(src, dst)
			_, sarr, sok := Foremost(cDense, Wait(), src, dst, 0)
			if !ok || !sok || arr != sarr {
				t.Fatalf("round %d: dense At(%d,%d) = (%d, %v), Foremost (%d, %v)", round, src, dst, arr, ok, sarr, sok)
			}
		}
		// Immediately reuse the scratch on a different shape and mode.
		for _, mode := range []Mode{NoWait(), BoundedWait(3)} {
			ms := foremostOf(t, cSparse, mode, 0, SweepOpts{})
			for trial := 0; trial < 60; trial++ {
				src := tvg.Node(rng.Intn(70))
				dst := tvg.Node(rng.Intn(70))
				arr, ok := ms.At(src, dst)
				_, sarr, sok := Foremost(cSparse, mode, src, dst, 0)
				if ok != sok || (ok && arr != sarr) {
					t.Fatalf("round %d: sparse At(%d,%d) = (%d, %v), Foremost (%d, %v)", round, src, dst, arr, ok, sarr, sok)
				}
			}
		}
	}
}

// TestMultiSourceEdgeCases pins the corner inputs: empty and singleton
// graphs, invalid modes, start times at and past the horizon, and
// terminal past-horizon arrivals.
func TestMultiSourceEdgeCases(t *testing.T) {
	// Empty graph: vacuously connected, diameter 0.
	empty, err := tvg.Compile(tvg.New(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !TemporallyConnected(empty, Wait(), 0) {
		t.Error("empty graph should be vacuously connected")
	}
	if d, ok := TemporalDiameter(empty, Wait(), 0); !ok || d != 0 {
		t.Errorf("empty diameter = (%d, %v), want (0, true)", d, ok)
	}
	if m := foremostOf(t, empty, Wait(), 0, SweepOpts{}); m.NumNodes() != 0 || !m.Connected() {
		t.Error("empty sweep should be a 0×0 connected matrix")
	}

	// Singleton: reachable from itself at t0, diameter 0.
	g1 := tvg.New()
	g1.AddNode("solo")
	c1, err := tvg.Compile(g1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m := foremostOf(t, c1, NoWait(), 3, SweepOpts{}); !m.Connected() {
		t.Error("singleton should be connected")
	} else if arr, ok := m.At(0, 0); !ok || arr != 3 {
		t.Errorf("singleton At(0,0) = (%d, %v), want (3, true)", arr, ok)
	}
	if ecc, ok := TemporalEccentricity(c1, Wait(), 0, 2); !ok || ecc != 0 {
		t.Errorf("singleton eccentricity = (%d, %v), want (0, true)", ecc, ok)
	}

	// Two nodes, always-present edge: matches Foremost at the horizon
	// boundary (arrival past the horizon is terminal but recorded).
	g2 := tvg.New()
	g2.AddNodes(2)
	g2.MustAddEdge(tvg.Edge{From: 0, To: 1, Label: 'a', Presence: tvg.Always{}, Latency: tvg.ConstLatency(1)})
	c2, err := tvg.Compile(g2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, t0 := range []tvg.Time{0, 10, 15} {
		for _, mode := range diffModes() {
			m := foremostOf(t, c2, mode, t0, SweepOpts{})
			for src := tvg.Node(0); src < 2; src++ {
				for dst := tvg.Node(0); dst < 2; dst++ {
					arr, ok := m.At(src, dst)
					_, sarr, sok := Foremost(c2, mode, src, dst, t0)
					if ok != sok || (ok && arr != sarr) {
						t.Errorf("t0=%d %s: At(%d,%d) = (%d, %v), Foremost (%d, %v)",
							t0, mode, src, dst, arr, ok, sarr, sok)
					}
				}
			}
		}
	}

	// Invalid mode behaves like the single-source searches: nothing is
	// reachable, nothing is connected, metrics are undefined — and it
	// cannot form a ladder, so it never reaches a sweep.
	if TemporallyConnected(c2, Mode{}, 0) {
		t.Error("invalid mode should not be connected")
	}
	if _, ok := TemporalDiameter(c2, Mode{}, 0); ok {
		t.Error("invalid mode diameter should be undefined")
	}
	if _, ok := TemporalEccentricity(c2, Mode{}, 0, 0); ok {
		t.Error("invalid mode eccentricity should be undefined")
	}
	if _, err := NewLadder(Mode{}); err == nil {
		t.Error("invalid mode should not form a ladder")
	}
	if _, err := Sweep(context.Background(), c2, Ladder{}, 0, SweepOpts{}); err == nil {
		t.Error("zero ladder should be rejected")
	}

	// Out-of-range accessors.
	res := sweepOf(t, c2, rungOf(t, Wait()), 0, SweepOpts{})
	m := res.Arrivals(0)
	if _, ok := m.At(-1, 0); ok {
		t.Error("At(-1, 0) should be false")
	}
	if m.Row(2) != nil {
		t.Error("Row out of range should be nil")
	}
	if _, ok := m.Eccentricity(5); ok {
		t.Error("Eccentricity out of range should be false")
	}
	r := res.Reach(0)
	if r.Reachable(0, 7) || r.Reachable(-1, 0) {
		t.Error("Reachable out of range should be false")
	}
}

// TestParallelSweepsMatchSequential pins the block fan-out contract: a
// one-rung Sweep and its packed Reach must be bit-identical to the
// sequential sweep at every worker count — blocks are independent and
// write disjoint result regions, so parallelism must never be
// observable in the output.
func TestParallelSweepsMatchSequential(t *testing.T) {
	nets := []struct {
		name string
		c    *tvg.ContactSet
	}{}
	// Multi-block (>64 nodes) networks, including one with an uneven
	// tail block and one where some blocks early-exit and others don't.
	for _, tc := range []struct {
		nodes   int
		p       float64
		horizon tvg.Time
	}{{70, 0.02, 24}, {130, 0.0015, 30}, {192, 0.008, 40}} {
		c, err := gen.Bernoulli(tc.nodes, tc.p, tc.horizon, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, struct {
			name string
			c    *tvg.ContactSet
		}{fmt.Sprintf("bernoulli-n%d", tc.nodes), c})
	}
	for _, net := range nets {
		for _, mode := range []Mode{NoWait(), BoundedWait(2), Wait()} {
			want := sweepOf(t, net.c, rungOf(t, mode), 0, SweepOpts{})
			for _, workers := range []int{0, 1, 2, 3, 16} {
				got := sweepOf(t, net.c, rungOf(t, mode), 0, SweepOpts{Workers: workers})
				if !slices.Equal(got.Arrivals(0).arr, want.Arrivals(0).arr) {
					t.Fatalf("%s/%s: Sweep(workers=%d) differs from sequential",
						net.name, mode, workers)
				}
				if !slices.Equal(got.Reach(0).bits, want.Reach(0).bits) {
					t.Fatalf("%s/%s: Reach(workers=%d) differs from sequential",
						net.name, mode, workers)
				}
			}
		}
	}
}
