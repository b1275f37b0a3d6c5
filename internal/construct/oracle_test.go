package construct

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tvgwait/internal/journey"
	"tvgwait/internal/tvg"
)

// randomTimeSetGraph builds an n-node TVG of random directed edges, each
// present at a few random ticks of [0, horizon) with latency 1–3.
func randomTimeSetGraph(rng *rand.Rand, n int, horizon tvg.Time) *tvg.Graph {
	g := tvg.New()
	g.AddNodes(n)
	for e := 0; e < 3*n; e++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		times := make([]tvg.Time, 1+rng.Intn(4))
		for i := range times {
			times[i] = tvg.Time(rng.Int63n(int64(horizon)))
		}
		g.MustAddEdge(tvg.Edge{
			From: tvg.Node(from), To: tvg.Node(to), Label: 'a',
			Presence: tvg.NewTimeSet(times...),
			Latency:  tvg.ConstLatency(tvg.Time(1 + rng.Intn(3))),
		})
	}
	return g
}

// TestDilationSweepOracle holds the all-pairs sweeps to Theorem 2.3,
// which needs no reference implementation: on Dilate(G, d+1) every
// event sits on a multiple of d+1, so a pause of at most d ticks never
// reaches the next event and wait[d] answers exactly as nowait, whose
// journeys are G's nowait journeys with every time scaled by d+1.
// Three sweeps of the dilated set must therefore reproduce
// (d+1)·(G's nowait arrivals) pair for pair: the nowait and wait[d]
// rungs of the ladder {nowait, wait[d], wait} (the ladder kernel) and a
// one-rung wait[d] sweep (the single-mode kernel) — across widths,
// worker counts and node counts whose source blocks cross one 64-bit
// word.
func TestDilationSweepOracle(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	const horizon = tvg.Time(24)
	ds := []tvg.Time{1, 2, 4}
	beaten := 0 // trials where wait[d] reaches G's pairs better than nowait
	for trial := 0; trial < 60; trial++ {
		d := ds[trial%3]
		k := d + 1
		opts := journey.SweepOpts{Width: trial / 3 % 3, Workers: 1 + trial/9%2}
		n := 3 + rng.Intn(70)
		label := fmt.Sprintf("trial %d: n=%d d=%d width=%d workers=%d", trial, n, d, opts.Width, opts.Workers)

		g := randomTimeSetGraph(rng, n, horizon)
		c, err := tvg.Compile(g, horizon)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := Dilate(g, k)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := tvg.Compile(dg, DilatedHorizon(horizon, k))
		if err != nil {
			t.Fatal(err)
		}

		sweep := func(c *tvg.ContactSet, modes ...journey.Mode) *journey.SpectrumResult {
			t.Helper()
			ladder, err := journey.NewLadder(modes...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := journey.Sweep(ctx, c, ladder, 0, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return res
		}
		base := sweep(c, journey.NoWait(), journey.BoundedWait(d))
		ladder := sweep(dc, journey.NoWait(), journey.BoundedWait(d), journey.Wait())
		single := sweep(dc, journey.BoundedWait(d))

		want := make([]tvg.Time, 0, n)
		for src := tvg.Node(0); int(src) < n; src++ {
			want = want[:0]
			for _, a := range base.Arrivals(0).Row(src) {
				if a >= 0 {
					a *= k
				}
				want = append(want, a)
			}
			for name, got := range map[string]*journey.ArrivalMatrix{
				"ladder nowait":    ladder.Arrivals(0),
				"ladder wait[d]":   ladder.Arrivals(1),
				"one-rung wait[d]": single.Arrivals(0),
			} {
				if row := got.Row(src); !slices.Equal(row, want) {
					t.Fatalf("%s: %s row %d on Dilate(G, %d) = %v, want %d·(G nowait) = %v",
						label, name, src, k, row, k, want)
				}
			}
		}

		nowait, bounded := base.Arrivals(0), base.Arrivals(1)
		if bounded.ReachablePairs() > nowait.ReachablePairs() {
			beaten++
		}
	}
	if beaten == 0 {
		t.Fatal("wait[d] never beat nowait on G: the dilation had nothing to collapse")
	}
}
