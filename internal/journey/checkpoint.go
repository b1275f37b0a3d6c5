package journey

// Resumable sweeps. A SweepCheckpoint freezes a bit-parallel sweep at
// the contact stream's watermark (the last departure tick) instead of
// draining it to the horizon: because the extracted quantities — first
// arrivals, reached masks, stage masks, rung counters — are updated
// only when a contact is processed, the state at the end of tick
// LastDep() already determines the full result, and the ticks past the
// watermark would only drain pending arrivals into live windows nobody
// departs from. The checkpoint keeps each block's scratch (pending
// grid, due/expire buckets, live masks, per-bit tables) exactly as the
// tick loop left it; when the stream is extended with later departures
// (tvg.ContactSet.AppendContacts / Builder.Extend), the resume replays
// ONLY the suffix window (doneTick, newWatermark] — the pending cells
// past the old watermark are precisely the in-flight arrivals a
// bounded-wait budget carries across the split, so expiry, refresh and
// retirement behave as if the whole stream had been swept cold. Results
// are bit-identical to a cold sweep of the extended stream at every
// width and worker count (pinned by the randomized differential and
// fuzz suites in checkpoint_test.go).
//
// The pending grid is a tick ring sized for the latencies the stream
// had when the checkpoint was taken, with ckMinRing ticks of headroom
// (see checkpointRing). An extension whose MaxLatency outgrows it
// cannot be replayed into that ring: Advance reports
// ErrCheckpointStale, and the caller rebuilds cold on a ring sized for
// the new stream.
//
// A checkpoint pins its lane width at creation and owns dedicated
// (never pooled) scratches, so its memory is stable and reportable
// (SizeBytes) and a resume cannot observe another sweep's leftovers. It
// is NOT safe for concurrent use — callers serialize resumes per
// checkpoint (internal/engine holds one mutex per cached entry). A
// cancelled resume aborts mid-tick and leaves torn scratch state; the
// checkpoint poisons itself and every later resume fails with
// ErrCheckpointPoisoned, telling the caller to rebuild cold.

import (
	"context"
	"errors"

	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// ErrCheckpointPoisoned is returned by resumes of a checkpoint whose
// state was torn by a cancelled (or otherwise aborted) earlier resume.
var ErrCheckpointPoisoned = errors.New("journey: checkpoint poisoned by an aborted sweep")

// ErrCheckpointStale is returned by a resume whose contact set carries a
// latency longer than the checkpoint's pending ring holds. The
// checkpoint is unchanged, but it cannot replay that set; a cold
// SweepCheckpointed of it sizes a ring that can.
var ErrCheckpointStale = errors.New("journey: contact latency outgrows the checkpoint's tick ring")

// ErrNotExtension is returned when the contact set passed to a resume
// does not extend the checkpointed revision (different lineage, earlier
// revision, or different shape). The checkpoint itself stays valid for
// its own lineage.
var ErrNotExtension = errors.New("journey: contact set does not extend the checkpointed revision")

// SweepCheckpoint is the resumable state of one all-pairs ladder sweep
// (SweepCheckpointed) over a live-filled contact stream: one dedicated
// block state per source block, on the kernel the ladder selects. See
// the file comment for the contract.
type SweepCheckpoint struct {
	ladder   Ladder
	t0       tvg.Time
	width    int // resolved lane width, pinned across resumes
	n        int
	set      *tvg.ContactSet // revision last swept
	ring     tickRing        // every block's pending ring
	doneTick tvg.Time        // last processed tick (t0-1 before any contact)
	poisoned bool
	blocks   []blockSweep
}

// DoneTick returns the last tick the checkpoint has processed (t0-1
// when the stream had no contacts in the window yet).
func (ck *SweepCheckpoint) DoneTick() tvg.Time { return ck.doneTick }

// Revision returns the revision stamp of the contact set last swept.
func (ck *SweepCheckpoint) Revision() uint64 { return ck.set.Revision() }

// T0 returns the earliest-departure time the sweep was started for.
func (ck *SweepCheckpoint) T0() tvg.Time { return ck.t0 }

// Width returns the pinned lane-word width of the checkpointed sweep.
func (ck *SweepCheckpoint) Width() int { return ck.width }

// Poisoned reports whether an aborted resume tore the state; a
// poisoned checkpoint only returns ErrCheckpointPoisoned.
func (ck *SweepCheckpoint) Poisoned() bool { return ck.poisoned }

// Complete reports whether every block has retired (all lanes / rungs
// done): further appends cannot change the result and a resume reduces
// to re-extraction.
func (ck *SweepCheckpoint) Complete() bool {
	for _, s := range ck.blocks {
		if !s.retired() {
			return false
		}
	}
	return true
}

// SizeBytes estimates the heap the checkpoint pins — the per-block
// scratch arenas dominate. Used by the engine's cache byte budget.
func (ck *SweepCheckpoint) SizeBytes() int64 {
	b := int64(256)
	for _, s := range ck.blocks {
		b += s.retainedBytes()
	}
	return b
}

// ckUpTo returns the last tick a checkpointed sweep of c must process:
// the stream's watermark, clamped into the window [t0-1, horizon].
func ckUpTo(c *tvg.ContactSet, t0 tvg.Time) tvg.Time {
	up := c.LastDep()
	if h := c.Horizon(); up > h {
		up = h // defensive: departures never exceed the horizon
	}
	if up < t0 {
		up = t0 - 1
	}
	return up
}

// SweepCheckpointed computes Sweep(ctx, c, ladder, t0, o) — the same
// result bit for bit — and additionally returns a checkpoint that
// Advance resumes after the stream is extended. The lane width resolved
// here is pinned for every resume. The cold pass runs each block up to
// the stream's watermark on its own dedicated scratch; a cancelled ctx
// discards it whole (there is nothing to poison). The ladder must not
// be empty.
func SweepCheckpointed(ctx context.Context, c *tvg.ContactSet, ladder Ladder, t0 tvg.Time, o SweepOpts) (*SpectrumResult, *SweepCheckpoint, error) {
	if ladder.Len() == 0 {
		return nil, nil, errEmptyLadder
	}
	cc := newCanceler(ctx)
	if cc != nil && cc.poll() {
		return nil, nil, cc.err()
	}
	n := c.Graph().NumNodes()
	ring := checkpointRing(c, t0)
	w := o.width(n, ring, ladder.Len())
	ck := &SweepCheckpoint{
		ladder: ladder, t0: t0, width: w, n: n, set: c, ring: ring, doneTick: ckUpTo(c, t0),
		blocks: make([]blockSweep, (n+w*blockBits-1)/(w*blockBits)),
	}
	k := kernelFor(ladder)
	windowed := spanOf(c, t0) > 0
	blockFanOut(n, o.Workers, w, nil, func(_ blockSweep, i, base, cnt int) {
		if cc.stopped() {
			return
		}
		s := k(false)
		ck.blocks[i] = s
		s.begin(c, ladder, base, cnt, t0, w, ring)
		if windowed {
			s.run(c, t0, ck.doneTick, o.Stats, cc)
		}
	})
	if cc.stopped() {
		return nil, nil, cc.err()
	}
	return ck.extract(), ck, nil
}

// Advance validates that c2 extends the checkpointed revision and that
// its latencies fit the pending ring (else ErrCheckpointStale), replays
// the suffix window (doneTick, watermark(c2)] through every block and
// re-extracts every rung's matrix — bit-identical to a cold Sweep of
// c2. Passing the revision already swept is legal and re-extracts
// without sweeping. On success the checkpoint tracks c2. A ctx already
// done when Advance starts leaves the checkpoint resumable; a
// cancellation mid-replay poisons it (the scratches are torn between
// blocks or mid-tick).
func (ck *SweepCheckpoint) Advance(ctx context.Context, c2 *tvg.ContactSet, workers int, st *obs.SweepStats) (*SpectrumResult, error) {
	if ck.poisoned {
		return nil, ErrCheckpointPoisoned
	}
	if !c2.Extends(ck.set) {
		return nil, ErrNotExtension
	}
	if !ck.ring.holds(c2.MaxLatency()) {
		return nil, ErrCheckpointStale
	}
	cc := newCanceler(ctx)
	if cc != nil && cc.poll() {
		return nil, cc.err() // nothing started: stays resumable
	}
	// A later watermark implies a non-empty window, so every block has
	// a run to resume.
	newUp := ckUpTo(c2, ck.t0)
	if newUp > ck.doneTick {
		from := ck.doneTick + 1
		blockFanOut(ck.n, workers, ck.width, nil, func(_ blockSweep, i, _, _ int) {
			if !cc.stopped() {
				ck.blocks[i].run(c2, from, newUp, st, cc)
			}
		})
		if cc.stopped() {
			ck.poisoned = true
			return nil, cc.err()
		}
	}
	ck.set = c2
	ck.doneTick = newUp
	return ck.extract(), nil
}

// extract builds the result of the revision last swept from every
// block's state.
func (ck *SweepCheckpoint) extract() *SpectrumResult {
	res := newSpectrumResult(ck.ladder, ck.t0, ck.n)
	step := ck.width * blockBits
	for i, s := range ck.blocks {
		base := i * step
		s.extract(res, base, min(step, ck.n-base))
	}
	return res
}
