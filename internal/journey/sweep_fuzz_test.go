package journey

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"tvgwait/internal/gen"
	"tvgwait/internal/tvg"
)

// checkForemostOracle holds every rung of res to the scalar search:
// entry (src, dst) of rung r must be Foremost(c, ladder.Mode(r), src,
// dst, t0), -1 where that finds no journey.
func checkForemostOracle(tb testing.TB, label string, c *tvg.ContactSet, res *SpectrumResult, t0 tvg.Time) {
	tb.Helper()
	n := c.Graph().NumNodes()
	for r := 0; r < res.NumRungs(); r++ {
		mode := res.Mode(r)
		got := res.Arrivals(r)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				want := tvg.Time(-1)
				if _, a, ok := Foremost(c, mode, tvg.Node(src), tvg.Node(dst), t0); ok {
					want = a
				}
				if a := got.arr[src*n+dst]; a != want {
					tb.Fatalf("%s: rung %d (%s) pair %d→%d: sweep %d, Foremost %d", label, r, mode, src, dst, a, want)
				}
			}
		}
	}
}

// checkInclusionChain checks the paper's inclusion chain on consecutive
// rungs: a pair reachable with less waiting stays reachable with more
// (nested reach bitsets), and its foremost arrival does not increase.
func checkInclusionChain(tb testing.TB, label string, res *SpectrumResult) {
	tb.Helper()
	for r := 1; r < res.NumRungs(); r++ {
		lo, hi := res.Reach(r-1), res.Reach(r)
		for i := range lo.bits {
			if lo.bits[i]&^hi.bits[i] != 0 {
				tb.Fatalf("%s: reach of rung %d (%s) not inside rung %d (%s)", label, r-1, res.Mode(r-1), r, res.Mode(r))
			}
		}
		la, ha := res.Arrivals(r-1).arr, res.Arrivals(r).arr
		for p := range la {
			if la[p] >= 0 && ha[p] > la[p] {
				tb.Fatalf("%s: pair %d arrives at %d under %s but %d under %s", label, p, la[p], res.Mode(r-1), ha[p], res.Mode(r))
			}
		}
	}
}

// fuzzNetwork decodes a generator model and its size: model%4 picks
// markov, bernoulli, periodic (latencies up to 1 + model/4%6) or
// mobility, over 2–24 nodes and a horizon of 1–64 ticks.
func fuzzNetwork(tb testing.TB, model, nodes, horizon uint8, seed int64) *tvg.ContactSet {
	tb.Helper()
	n := 2 + int(nodes)%23
	h := 1 + tvg.Time(horizon)%64
	var c *tvg.ContactSet
	var err error
	switch model % 4 {
	case 0:
		c, err = gen.EdgeMarkovian(gen.EdgeMarkovianParams{Nodes: n, PBirth: 0.05, PDeath: 0.4, Horizon: h, Seed: seed}, nil)
	case 1:
		c, err = gen.Bernoulli(n, 0.5/float64(n), h, seed, nil)
	case 2:
		c, err = gen.RandomPeriodic(gen.PeriodicParams{
			Nodes: n, Edges: 2 * n, MaxPeriod: 5, AlphabetSize: 2, MaxLatency: 1 + tvg.Time(model/4)%6, Seed: seed,
		}, h, nil)
	default:
		c, err = gen.GridMobility(gen.MobilityParams{Width: 4, Height: 4, Nodes: n, Horizon: h, Seed: seed}, nil)
	}
	if err != nil {
		tb.Fatalf("model %d, %d nodes, horizon %d: %v", model%4, n, h, err)
	}
	return c
}

// fuzzLadder decodes 1–6 rungs, one per byte: 0 is nowait, 255 wait,
// anything else wait[b mod (horizon+4)] — budgets up to three past the
// horizon, wait[0] included. An empty input decodes to nowait alone.
func fuzzLadder(tb testing.TB, rungs []byte, horizon tvg.Time) Ladder {
	tb.Helper()
	modes := []Mode{NoWait()}
	if len(rungs) > 0 {
		modes = modes[:0]
	}
	for _, b := range rungs[:min(len(rungs), 6)] {
		switch b {
		case 0:
			modes = append(modes, NoWait())
		case 255:
			modes = append(modes, Wait())
		default:
			modes = append(modes, BoundedWait(tvg.Time(b)%(horizon+4)))
		}
	}
	l, err := NewLadder(modes...)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// encodeLadder is fuzzLadder's inverse for the seed corpus: budgets
// past the decodable range clamp to horizon+3.
func encodeLadder(modes []Mode, horizon tvg.Time) []byte {
	out := make([]byte, 0, len(modes))
	for _, m := range modes {
		d, finite := m.Bound()
		switch {
		case !finite:
			out = append(out, 255)
		case m == NoWait():
			out = append(out, 0)
		case d == 0:
			out = append(out, byte(horizon+4)) // wait[0], not nowait
		default:
			out = append(out, byte(min(d, horizon+3)))
		}
	}
	return out
}

// FuzzSweepForemost holds both sweep kernels to the scalar search on
// decoded networks (fuzzNetwork), ladders (fuzzLadder), start times
// 0…horizon+1, widths {0, 1, 2, 4, 8} and 1–2 workers: every rung of
// Sweep and of the forced ladder kernel must equal Foremost on every
// ordered pair, and consecutive rungs must satisfy the inclusion chain.
// The seed corpus puts every diffLadders shape on every model.
func FuzzSweepForemost(f *testing.F) {
	const horizon = 30
	shapes := diffLadders(horizon)
	for model := range uint8(4) {
		for i, name := range slices.Sorted(maps.Keys(shapes)) {
			t0 := []uint8{0, horizon / 3, horizon}[i%3]
			m := model
			if m == 2 {
				m += 4 * uint8(i%6) // periodic latencies 1–6
			}
			f.Add(m, uint8(6), uint8(horizon-1), int64(i+1), encodeLadder(shapes[name], horizon), t0, uint8(i%5), uint8(i%2))
		}
	}
	widths := []int{0, 1, 2, 4, 8}
	f.Fuzz(func(t *testing.T, model, nodes, horizon uint8, seed int64, rungs []byte, t0, width, workers uint8) {
		c := fuzzNetwork(t, model, nodes, horizon, seed)
		ladder := fuzzLadder(t, rungs, c.Horizon())
		start := tvg.Time(t0) % (c.Horizon() + 2)
		o := SweepOpts{Width: widths[int(width)%len(widths)], Workers: 1 + int(workers)%2}
		label := fmt.Sprintf("model=%d n=%d h=%d seed=%d %s t0=%d %+v",
			model%4, c.Graph().NumNodes(), c.Horizon(), seed, ladder, start, o)
		res := sweepOf(t, c, ladder, start, o)
		checkForemostOracle(t, label, c, res, start)
		checkInclusionChain(t, label, res)
		checkForemostOracle(t, label+"/ladder-kernel", c, ladderKernelOf(t, c, ladder, start, o), start)
	})
}
