package journey

import (
	"context"
	"slices"
	"testing"

	"tvgwait/internal/gen"
	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// rungOf is the one-rung ladder of mode.
func rungOf(tb testing.TB, mode Mode) Ladder {
	tb.Helper()
	l, err := NewLadder(mode)
	if err != nil {
		tb.Fatalf("NewLadder(%s): %v", mode, err)
	}
	return l
}

// sweepOf is Sweep with an uncancellable context, failing tb on error.
func sweepOf(tb testing.TB, c *tvg.ContactSet, ladder Ladder, t0 tvg.Time, o SweepOpts) *SpectrumResult {
	tb.Helper()
	res, err := Sweep(context.Background(), c, ladder, t0, o)
	if err != nil {
		tb.Fatalf("Sweep(%s): %v", ladder, err)
	}
	return res
}

// foremostOf is the one-rung sweep of mode: the single-mode kernel's
// all-pairs foremost matrix.
func foremostOf(tb testing.TB, c *tvg.ContactSet, mode Mode, t0 tvg.Time, o SweepOpts) *ArrivalMatrix {
	tb.Helper()
	return sweepOf(tb, c, rungOf(tb, mode), t0, o).Arrivals(0)
}

// ladderKernelOf sweeps ladder on the ladder kernel whatever its length
// — the reference a one-rung Sweep (single-mode kernel) must match.
func ladderKernelOf(tb testing.TB, c *tvg.ContactSet, ladder Ladder, t0 tvg.Time, o SweepOpts) *SpectrumResult {
	tb.Helper()
	res, err := sweep(context.Background(), c, ladder, t0, o, spKernel)
	if err != nil {
		tb.Fatalf("ladder kernel (%s): %v", ladder, err)
	}
	return res
}

// reachOnlyOf packs the reached words of the single-mode kernel's
// reach-only mode — the block loop TemporallyConnected runs — at lane
// width w (0: TemporallyConnected's automatic width) into a ReachMatrix.
func reachOnlyOf(c *tvg.ContactSet, mode Mode, t0 tvg.Time, w int) *ReachMatrix {
	n := c.Graph().NumNodes()
	words := (n + blockBits - 1) / blockBits
	m := &ReachMatrix{n: n, words: words, bits: make([]uint64, n*words)}
	if n == 0 {
		return m
	}
	if w == 0 {
		w = autoWidth(n, spanOf(c, t0), 1, 1)
	}
	reachBlocks(c, mode, t0, w, func(s *msScratch, base int) bool {
		b := base / blockBits
		for v := 0; v < n; v++ {
			for l := 0; l < s.w; l++ {
				m.bits[v*words+b+l] = s.reached[v*s.w+l]
			}
		}
		return true
	})
	return m
}

// TestSweepKernelChoice pins the dispatch rule: a one-rung ladder runs
// the single-mode kernel (dedicated scratches of type *msScratch in a
// checkpoint), longer ladders the ladder kernel — and the one-rung
// answer is bit-identical to the ladder kernel's at every width.
func TestSweepKernelChoice(t *testing.T) {
	c, err := gen.Bernoulli(70, 0.02, 30, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range diffModes() {
		one := rungOf(t, mode)
		if _, ok := kernelFor(one)(false).(*msScratch); !ok {
			t.Fatalf("%s: one-rung ladder does not run the single-mode kernel", mode)
		}
		_, ck, err := SweepCheckpointed(context.Background(), c, one, 0, SweepOpts{Width: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ck.blocks[0].(*msScratch); !ok {
			t.Fatalf("%s: one-rung checkpoint holds %T blocks", mode, ck.blocks[0])
		}
		for _, w := range []int{1, 2, 4} {
			got := foremostOf(t, c, mode, 0, SweepOpts{Width: w})
			want := ladderKernelOf(t, c, one, 0, SweepOpts{Width: w}).Arrivals(0)
			if !slices.Equal(got.arr, want.arr) {
				t.Fatalf("%s/w=%d: single-mode kernel differs from the one-rung ladder kernel", mode, w)
			}
		}
	}
	two, err := NewLadder(NoWait(), Wait())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := kernelFor(two)(false).(*spScratch); !ok {
		t.Fatal("two-rung ladder does not run the ladder kernel")
	}
}

// TestSweepRejectsEmptyLadder: a zero-value ladder is an error on every
// call, before any work (no block is swept).
func TestSweepRejectsEmptyLadder(t *testing.T) {
	c, err := gen.Bernoulli(10, 0.1, 20, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st obs.SweepStats
	if res, err := Sweep(context.Background(), c, Ladder{}, 0, SweepOpts{Stats: &st}); res != nil || err == nil {
		t.Fatalf("Sweep(empty ladder) = (%v, %v), want an error", res, err)
	}
	if res, ck, err := SweepCheckpointed(context.Background(), c, Ladder{}, 0, SweepOpts{Stats: &st}); res != nil || ck != nil || err == nil {
		t.Fatalf("SweepCheckpointed(empty ladder) = (%v, %v, %v), want an error", res, ck, err)
	}
	if st.Blocks.Value() != 0 {
		t.Fatalf("empty-ladder calls swept %d blocks", st.Blocks.Value())
	}
}
