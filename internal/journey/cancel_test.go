package journey

import (
	"context"
	"errors"
	"testing"
	"time"

	"tvgwait/internal/gen"
	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// TestCtxPreCancelled pins the fast path: a context that is already done
// costs no sweep work and returns the typed error, matchable both as
// ErrCanceled and as the ctx's own cause.
func TestCtxPreCancelled(t *testing.T) {
	c, err := gen.Bernoulli(20, 0.1, 30, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var st obs.SweepStats

	if res, err := Sweep(ctx, c, rungOf(t, Wait()), 0, SweepOpts{Workers: 2, Stats: &st}); res != nil || err == nil {
		t.Fatalf("one-rung Sweep on cancelled ctx: res=%v err=%v", res, err)
	} else if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep error %v does not wrap ErrCanceled and context.Canceled", err)
	}
	ladder, err := NewLadder(NoWait(), Wait())
	if err != nil {
		t.Fatal(err)
	}
	if res, err := Sweep(ctx, c, ladder, 0, SweepOpts{Workers: 2, Stats: &st}); res != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("ladder Sweep on cancelled ctx: res=%v err=%v", res, err)
	}
	if res, ck, err := SweepCheckpointed(ctx, c, ladder, 0, SweepOpts{Workers: 2, Stats: &st}); res != nil || ck != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("SweepCheckpointed on cancelled ctx: res=%v ck=%v err=%v", res, ck, err)
	}
	if st.Blocks.Value() != 0 {
		t.Fatalf("pre-cancelled calls ran %d blocks, want 0", st.Blocks.Value())
	}
}

// TestCtxMatchesUncancelled pins bit-identity: a sweep under a live,
// cancellable context produces exactly the matrices of an
// uncancellable one (the checkpoint is bookkeeping, never arithmetic).
func TestCtxMatchesUncancelled(t *testing.T) {
	c, err := gen.Bernoulli(70, 0.04, 60, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Background has no Done channel — also cover a cancellable-but-live
	// ctx so the credit-counting path itself is exercised.
	live, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, mode := range []Mode{NoWait(), BoundedWait(3), Wait()} {
		want := foremostOf(t, c, mode, 0, SweepOpts{})
		for _, useCtx := range []context.Context{ctx, live} {
			res, err := Sweep(useCtx, c, rungOf(t, mode), 0, SweepOpts{Workers: 3})
			if err != nil {
				t.Fatalf("%s: Sweep: %v", mode, err)
			}
			got := res.Arrivals(0)
			for src := tvg.Node(0); int(src) < c.Graph().NumNodes(); src++ {
				wr, gr := want.Row(src), got.Row(src)
				for i := range wr {
					if wr[i] != gr[i] {
						t.Fatalf("%s: row %d differs at %d: live ctx %d, background %d", mode, src, i, gr[i], wr[i])
					}
				}
			}
		}
	}
	ladder, err := NewLadder(NoWait(), BoundedWait(2), Wait())
	if err != nil {
		t.Fatal(err)
	}
	want := sweepOf(t, c, ladder, 0, SweepOpts{})
	got, err := Sweep(live, c, ladder, 0, SweepOpts{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.NumRungs(); i++ {
		wm, gm := want.Arrivals(i), got.Arrivals(i)
		for src := tvg.Node(0); int(src) < c.Graph().NumNodes(); src++ {
			wr, gr := wm.Row(src), gm.Row(src)
			for j := range wr {
				if wr[j] != gr[j] {
					t.Fatalf("rung %d row %d differs at %d", i, src, j)
				}
			}
		}
	}
}

// slowSweepSet builds a contact set whose uncancelled wait sweep takes
// at least minDur, scaling up until it does, and returns the measured
// full-sweep duration. The network is a directed path with every edge
// present at every tick: no source reaches the nodes behind it, so the
// early-exit can never fire and the sweep always runs to the horizon —
// a deterministic worst case that is cheap to construct (one Append per
// contact, no RNG). Skips if even the largest candidate is too fast.
func slowSweepSet(t *testing.T, minDur time.Duration) (*tvg.ContactSet, time.Duration) {
	t.Helper()
	b := tvg.NewBuilder()
	for _, size := range []struct {
		n       int
		horizon tvg.Time
	}{{512, 2000}, {1024, 4000}, {1024, 12000}} {
		b.Reset(size.n, size.horizon)
		for i := 0; i < size.n-1; i++ {
			b.StartEdge(tvg.Node(i), tvg.Node(i+1), 0)
			for dep := tvg.Time(0); dep < size.horizon; dep++ {
				b.Append(dep, dep+1)
			}
		}
		c, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		foremostOf(t, c, Wait(), 0, SweepOpts{})
		if dur := time.Since(start); dur >= minDur {
			return c, dur
		}
	}
	t.Skip("no candidate network sweeps slowly enough on this machine")
	return nil, 0
}

// TestCancelAbortsMidSweep is the latency pin of the checkpoint
// contract: cancelling the context of an in-flight ≥100ms sweep returns
// within a small fraction of the full sweep's duration, reports the
// typed error, and accounts the aborted blocks in SweepStats.
func TestCancelAbortsMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	c, fullDur := slowSweepSet(t, 100*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	var st obs.SweepStats
	done := make(chan error, 1)
	started := time.Now()
	go func() {
		_, err := Sweep(ctx, c, rungOf(t, Wait()), 0, SweepOpts{Workers: 1, Stats: &st})
		done <- err
	}()
	time.Sleep(fullDur / 10) // let the sweep get well into its contact loop
	cancel()
	cancelAt := time.Now()
	err := <-done
	abortLatency := time.Since(cancelAt)

	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel returned %v, want ErrCanceled wrapping context.Canceled", err)
	}
	// One checkpoint interval is ~64K contacts — microseconds. Allow a
	// quarter of the FULL sweep as slack for scheduler noise; the point
	// is that the abort does not ride out the remaining 90% of the work.
	if limit := fullDur/4 + 20*time.Millisecond; abortLatency > limit {
		t.Errorf("abort latency %v exceeds %v (full sweep %v, ran %v before cancel)",
			abortLatency, limit, fullDur, cancelAt.Sub(started))
	}
	if st.Cancellations.Value() == 0 {
		t.Error("aborted sweep recorded no Cancellations")
	}
	if st.Contacts.Value() == 0 {
		t.Error("aborted sweep merged no partial contact work")
	}
}

// TestSweepAfterAbortIsClean pins the pooled-scratch contract: a sweep
// aborted mid-pass must leave its scratch (pending grid included) fit
// for reuse, so the next uncancelled sweep is still bit-identical.
func TestSweepAfterAbortIsClean(t *testing.T) {
	c, err := gen.Bernoulli(90, 0.05, 80, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	wait := rungOf(t, Wait())
	want := foremostOf(t, c, Wait(), 0, SweepOpts{})
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		Sweep(ctx, c, wait, 0, SweepOpts{Workers: 2}) //nolint:errcheck // abort on purpose
		// Also abort mid-flight with a short deadline.
		dctx, dcancel := context.WithTimeout(context.Background(), time.Microsecond)
		Sweep(dctx, c, wait, 0, SweepOpts{Workers: 2}) //nolint:errcheck
		dcancel()

		got := foremostOf(t, c, Wait(), 0, SweepOpts{Workers: 2})
		for src := tvg.Node(0); int(src) < 90; src++ {
			wr, gr := want.Row(src), got.Row(src)
			for j := range wr {
				if wr[j] != gr[j] {
					t.Fatalf("iteration %d: post-abort sweep differs at (%d,%d)", i, src, j)
				}
			}
		}
	}
}
