package journey

// The all-pairs sweep API. Every all-pairs question — one waiting
// mode's foremost matrix, a whole ladder's spectrum, with or without
// telemetry, cancellation or a resumable checkpoint — is one ladder
// query: Sweep, SweepCheckpointed, or (*SweepCheckpoint).Advance. A
// question about one mode is a one-rung ladder. Behind the three calls
// sit two bit-parallel kernels, picked per ladder by kernelFor and
// driven through the blockSweep interface, so no caller needs to know
// that two exist.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// SweepOpts tunes how an all-pairs sweep runs. No field changes the
// result: sweeps are bit-identical at every worker count and width,
// with or without telemetry.
type SweepOpts struct {
	// Workers fans the source blocks out across up to this many
	// goroutines; ≤ 1 stays on the calling goroutine. Blocks write
	// disjoint rows of every rung's matrix.
	Workers int
	// Width is the block's lane-word count — 64·Width sources per
	// contact pass — clamped to {1, 2, 4, 8}. 0 picks it from the node
	// count, the worker fan-out and the dense-grid budget (see
	// autoWidth).
	Width int
	// Stats, when non-nil, accumulates what the sweep did: blocks,
	// contacts swept, early exits, expiries, lane and rung retirements,
	// sparse fallbacks, cancellations and the resolved width. Each block
	// folds its tallies in once; nil is free.
	Stats *obs.SweepStats
}

// width resolves o.Width for a k-rung sweep of c from t0 and reports
// it on o.Stats.
func (o SweepOpts) width(c *tvg.ContactSet, t0 tvg.Time, k int) int {
	w := normWidth(o.Width, c.Graph().NumNodes(), spanOf(c, t0), k, o.Workers)
	if o.Stats != nil {
		o.Stats.Width.Set(int64(w))
	}
	return w
}

// errEmptyLadder rejects a zero-value ladder on every sweep call.
var errEmptyLadder = errors.New("journey: empty ladder")

// Sweep computes the all-pairs foremost-arrival matrix of every rung of
// ladder in one departure-ordered pass over c's contact stream per
// source block — per rung the batch equivalent of n² Foremost calls,
// bit-identical to them (asserted by the randomized differential
// suites). The ladder must not be empty.
//
// Cancelling ctx aborts in-flight blocks within one checkpoint
// interval (~CancelCheckInterval contacts) and returns an error
// wrapping both ErrCanceled and the ctx's own error. A ctx that can
// never be cancelled, such as context.Background, costs nothing.
func Sweep(ctx context.Context, c *tvg.ContactSet, ladder Ladder, t0 tvg.Time, o SweepOpts) (*SpectrumResult, error) {
	return sweep(ctx, c, ladder, t0, o, kernelFor(ladder))
}

// sweep is Sweep on an explicit kernel (the differential suites force
// either one). Each goroutine of the fan-out rents one pooled scratch
// and reuses it block after block: a block is begin, one run to the
// horizon, cleanup of the undrained grid, then extraction into its
// disjoint rows. A tripped canceler skips the remaining blocks and the
// partial result is discarded.
func sweep(ctx context.Context, c *tvg.ContactSet, ladder Ladder, t0 tvg.Time, o SweepOpts, k kernel) (*SpectrumResult, error) {
	if ladder.Len() == 0 {
		return nil, errEmptyLadder
	}
	cc := newCanceler(ctx)
	if cc != nil && cc.poll() {
		return nil, cc.err()
	}
	n := c.Graph().NumNodes()
	res := newSpectrumResult(ladder, t0, n)
	w := o.width(c, t0, ladder.Len())
	windowed := spanOf(c, t0) > 0
	blockFanOut(n, o.Workers, w, func() blockSweep { return k(true) }, func(s blockSweep, _, base, cnt int) {
		if cc.stopped() {
			return
		}
		s.begin(c, ladder, base, cnt, t0, w)
		if windowed {
			t, _ := s.run(c, t0, c.Horizon(), o.Stats, cc)
			s.cleanupFrom(c, t)
		} else if o.Stats != nil {
			o.Stats.Blocks.Inc()
		}
		if cc.stopped() {
			return
		}
		s.extract(res, base, cnt)
	})
	if cc.stopped() {
		return nil, cc.err()
	}
	return res, nil
}

// blockSweep is the state of one source block of an all-pairs sweep.
// Both bit-parallel kernels implement it: msScratch (multisource.go)
// and spScratch (spectrum.go). A sweep is begin, then one or more run
// calls over adjacent tick windows, then either cleanupFrom where the
// last run stopped (a pooled one-shot sweep) or nothing (a
// SweepCheckpoint keeps the state for a later suffix replay).
type blockSweep interface {
	// begin prepares the block [base, base+cnt) at lane width `width`
	// and seeds its sources at t0.
	begin(c *tvg.ContactSet, ladder Ladder, base, cnt int, t0 tvg.Time, width int)
	// run processes the tick window [from, upTo]; see msScratch.run.
	run(c *tvg.ContactSet, from, upTo tvg.Time, st *obs.SweepStats, cc *canceler) (tvg.Time, bool)
	// cleanupFrom zeroes the pending grid from tick t on.
	cleanupFrom(c *tvg.ContactSet, t tvg.Time)
	// extract writes the block's source rows [base, base+cnt) of every
	// rung's matrix, unreached pairs included.
	extract(res *SpectrumResult, base, cnt int)
	// retired reports that no later tick can change the block's result.
	retired() bool
	// retainedBytes estimates the heap the block's scratch pins.
	retainedBytes() int64
	// release returns a pooled scratch to its pool.
	release()
}

// kernel allocates one block's state for a kernel: from its pool for a
// one-shot Sweep, dedicated for a checkpoint.
type kernel func(pooled bool) blockSweep

func msKernel(pooled bool) blockSweep {
	if pooled {
		return getMsScratch()
	}
	return new(msScratch)
}

func spKernel(pooled bool) blockSweep {
	if pooled {
		return getSpScratch()
	}
	return new(spScratch)
}

// kernelFor is the one place a sweep's kernel is chosen. A one-rung
// ladder runs the single-mode kernel: it keeps one plane per lane where
// the ladder kernel keeps K rung-slotted ones, and has no rung cascade.
// On the ledger networks (one goroutine, auto width) a wait rung sweeps
// in 1.5 ms against the ladder kernel's 2.5–3.3 ms at N=256, and in
// 27 ms against 78–87 ms at N=1024. Longer ladders run the ladder
// kernel, whose one contact pass serves every rung.
func kernelFor(ladder Ladder) kernel {
	if ladder.Len() == 1 {
		return msKernel
	}
	return spKernel
}

// blockFanOut runs fn(s, i, base, cnt) for block i — sources [base,
// base+cnt) — of every width·64-source block of an n-node sweep, across
// up to `workers` goroutines claiming blocks from one atomic counter.
// Each goroutine rents one scratch s from get and releases it when the
// blocks run out; with a nil get, s is nil and fn brings its own state.
// Blocks are independent by construction — each owns its scratch and
// writes a disjoint region of the result — so the output is
// bit-identical at any worker count. workers ≤ 1, or a single block,
// stays on the calling goroutine.
func blockFanOut(n, workers, width int, get func() blockSweep, fn func(s blockSweep, i, base, cnt int)) {
	step := width * blockBits
	nBlocks := (n + step - 1) / step
	var next atomic.Int64
	work := func() {
		var s blockSweep
		if get != nil {
			s = get()
			defer s.release()
		}
		for i := int(next.Add(1)) - 1; i < nBlocks; i = int(next.Add(1)) - 1 {
			base := i * step
			fn(s, i, base, min(step, n-base))
		}
	}
	if workers = min(workers, nBlocks); workers <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}
