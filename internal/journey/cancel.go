package journey

// Cancellation checkpoints for the bit-parallel sweeps. The sweeps are
// long straight-line loops over the contact stream — a large (N, K)
// request runs for hundreds of milliseconds with no scheduling point —
// so a caller whose deadline has passed used to keep burning the full
// sweep. Every sweep call (Sweep, SweepCheckpointed, Advance) threads a
// shared canceler through every block of the fan-out: each block counts
// down work units (one per contact plus one per due-bucket tick) and
// re-polls the context every ~64K units; the poll outcome is published
// through one atomic flag, so sibling blocks abort at their next
// checkpoint without re-querying the context. An aborted block still
// runs its pending-grid cleanup (the pooled scratches rely on an
// all-zero grid) and still merges its partial telemetry — plus one
// Cancellations tick — into the caller's obs.SweepStats, so cancelled
// work is accounted, not lost.
// A ctx that can never be cancelled (context.Background) yields a nil
// canceler, bit-identical to an uncancellable sweep at one nil-check
// per tick. See DESIGN.md §10 for the checkpoint contract.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrCanceled tags every sweep aborted by its context. The returned
// error also wraps the context's own error, so errors.Is matches both
// ErrCanceled and context.Canceled / context.DeadlineExceeded.
var ErrCanceled = errors.New("journey: sweep canceled")

// CancelCheckInterval is the work-unit budget between context polls: a
// sweep re-checks its context after roughly this many contacts (ticks
// count one unit each, so idle stretches of a huge horizon also reach a
// checkpoint). Exported so tests and the DTN flood share one contract.
const CancelCheckInterval = 1 << 16

// canceler is the shared cancellation checkpoint of one ctx-aware sweep
// call. All blocks of the call's fan-out hold the same canceler: the
// first block whose poll observes a done context trips the flag, and
// every other block aborts at its next checkpoint on one atomic load.
// A nil *canceler disables checkpointing entirely.
type canceler struct {
	ctx     context.Context
	tripped atomic.Bool
}

// newCanceler returns a canceler for ctx, or nil when ctx can never be
// canceled (nil ctx or no Done channel) — the zero-overhead path.
func newCanceler(ctx context.Context) *canceler {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &canceler{ctx: ctx}
}

// poll re-checks the context (called once per CancelCheckInterval work
// units) and reports whether the sweep must abort.
func (cc *canceler) poll() bool {
	if cc.tripped.Load() {
		return true
	}
	if cc.ctx.Err() != nil {
		cc.tripped.Store(true)
		return true
	}
	return false
}

// stopped reports whether any block of the call tripped the canceler.
// Nil-safe, one atomic load.
func (cc *canceler) stopped() bool { return cc != nil && cc.tripped.Load() }

// err builds the typed cancellation error, wrapping both the sentinel
// and the context's cause.
func (cc *canceler) err() error {
	cause := cc.ctx.Err()
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}
