package journey

// Wait-spectrum sweep: the all-pairs foremost-arrival matrix for an
// entire ladder of waiting budgets {nowait, d1 < … < dK, wait} in ONE
// departure-ordered pass over the contact stream per source block
// (64·W sources at width W), instead of one single-mode pass per
// budget. Sweep runs it for every ladder of two or more rungs.
//
// The ladder is the paper's central object — the inclusion chain
// L_nowait ⊆ L_wait[d] ⊆ L_wait[d'] ⊆ L_wait (d ≤ d') — and the sweep
// exploits exactly that monotonicity. Rungs are ordered by
// Mode.AtLeastAsPermissive, so every per-node quantity is *nested
// across rungs*:
//
//	win_r   ⊆ win_{r+1}    (a copy usable under budget d is usable under d' ≥ d)
//	pend_r  ⊆ pend_{r+1}   (arrival masks are forwarded from nested live masks)
//	due_r   ⊆ due_{r+1}    (so a bit's latest due tick at rung r ≤ that at r+1)
//
// The per-rung planes are laid out rung-contiguous per lane row
// ([row*K + rung] masks, [cell*K + rung] pending words, the rungs'
// stamp words back to back per row, where a row is node*W + lane), so
// the words a contact or a due-drain touches for one lane share a cache
// line or two (K ≤ 8 masks are one line exactly) — the rung loop costs
// far less than K separate sweeps, whose tick loops, contact
// iteration, grid scheduling and scratch clears are all paid once
// here. The lane dimension multiplies that amortization: a
// W-lane block re-scans the contact stream once where W narrow blocks
// would scan it W times, and a per-node gate word (the OR of every
// lane's top-active-rung mask) skips dead tails in one load. Nesting
// is also what makes the shared due buckets sound: a pending cell's
// top-rung word is non-zero whenever any rung's word is, so one due
// entry per (node, tick, lane) drains all K rungs.
//
// Per rung the update rules are verbatim msScratch.run — same word
// dedup against the pending cell, same stamp-refreshed expiry at
// a+d_r+1, same terminal handling past the horizon — so each rung's
// state evolves exactly as its independent single-mode sweep would, and
// every rung's matrix is bit-identical to the single-mode kernel's
// under that rung's mode at every width (pinned by the randomized
// differential tests in spectrum_test.go and FuzzSweepForemost). Each
// finite rung keeps its own bit-sliced stamp words (stampWords: B_r =
// bits.Len64(d_r+1) words per lane row, wait none): a per-(node, bit)
// "minimal live rung" alone cannot replace them, because two copies
// (arrival 5, rung 2) and (arrival 9, rung 4) form a Pareto staircase —
// which rung is live depends on *which* arrival refreshed it — so
// rung-aware expiry needs the latest due tick per rung. A due drain
// stamps each active finite rung's word in B_r word operations, and an
// expiry check tests its word in as many, whatever their popcounts. See
// DESIGN.md §7 and §9.

import (
	"errors"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// Ladder is a normalized ladder of waiting budgets: modes sorted from
// least to most permissive (nowait, then bounded waits by increasing d,
// then wait), with duplicates — including BoundedWait(0), which is
// nowait — collapsed. The zero value is an empty ladder; build one with
// NewLadder. Normalization is horizon-independent: wait[d] with
// d ≥ horizon stays a distinct rung from wait (their sweep results
// coincide, their labels do not).
type Ladder struct {
	modes []Mode
}

// NewLadder normalizes modes into a ladder. It rejects an empty list
// and invalid (zero-value) modes; order and duplicates in the input are
// irrelevant.
func NewLadder(modes ...Mode) (Ladder, error) {
	if len(modes) == 0 {
		return Ladder{}, errors.New("journey: ladder needs at least one mode")
	}
	var ds []tvg.Time
	hasWait := false
	for _, m := range modes {
		if !m.IsValid() {
			return Ladder{}, errors.New("journey: invalid mode in ladder")
		}
		if d, finite := m.Bound(); finite {
			ds = append(ds, d)
		} else {
			hasWait = true
		}
	}
	slices.Sort(ds)
	ds = slices.Compact(ds)
	out := make([]Mode, 0, len(ds)+1)
	for _, d := range ds {
		if d == 0 {
			out = append(out, NoWait())
		} else {
			out = append(out, BoundedWait(d))
		}
	}
	if hasWait {
		out = append(out, Wait())
	}
	if len(out) > blockBits {
		return Ladder{}, errors.New("journey: ladder has more than 64 distinct rungs")
	}
	return Ladder{modes: out}, nil
}

// Len returns the number of rungs.
func (l Ladder) Len() int { return len(l.modes) }

// Mode returns rung i's waiting semantics (canonical form: NoWait for
// d = 0, BoundedWait(d) otherwise, Wait last).
func (l Ladder) Mode(i int) Mode { return l.modes[i] }

// Modes returns a copy of the normalized rungs, least permissive first.
func (l Ladder) Modes() []Mode { return slices.Clone(l.modes) }

// RungOf returns the rung index a mode maps to after normalization:
// modes with the same Bound land on the same rung (nowait ≡ wait[0]).
// ok is false for invalid modes and budgets not in the ladder.
func (l Ladder) RungOf(m Mode) (int, bool) {
	if !m.IsValid() {
		return 0, false
	}
	d, finite := m.Bound()
	if !finite {
		if n := len(l.modes); n > 0 {
			if _, f := l.modes[n-1].Bound(); !f {
				return n - 1, true
			}
		}
		return 0, false
	}
	for i, rm := range l.modes {
		if rd, rf := rm.Bound(); rf && rd == d {
			return i, true
		}
	}
	return 0, false
}

// String renders the ladder as its comma-separated canonical mode
// names, e.g. "nowait,wait[2],wait" — stable under re-normalization,
// usable as a cache key.
func (l Ladder) String() string {
	names := make([]string, len(l.modes))
	for i, m := range l.modes {
		names[i] = m.String()
	}
	return strings.Join(names, ",")
}

// SpectrumResult holds one foremost-arrival matrix per ladder rung, all
// computed by a single contact sweep per source block. Rung i's matrix
// is bit-identical to a one-rung Sweep of ladder.Mode(i).
type SpectrumResult struct {
	ladder Ladder
	t0     tvg.Time
	mats   []*ArrivalMatrix
}

// Ladder returns the normalized ladder the spectrum was computed for.
func (r *SpectrumResult) Ladder() Ladder { return r.ladder }

// T0 returns the earliest-departure time of the sweep.
func (r *SpectrumResult) T0() tvg.Time { return r.t0 }

// NumRungs returns the number of rungs (== Ladder().Len()).
func (r *SpectrumResult) NumRungs() int { return len(r.mats) }

// Mode returns rung i's waiting semantics.
func (r *SpectrumResult) Mode(i int) Mode { return r.ladder.Mode(i) }

// Arrivals returns rung i's all-pairs foremost-arrival matrix.
func (r *SpectrumResult) Arrivals(i int) *ArrivalMatrix { return r.mats[i] }

// ArrivalsFor returns the matrix of the rung a mode normalizes to; ok
// is false if the budget is not in the ladder.
func (r *SpectrumResult) ArrivalsFor(m Mode) (*ArrivalMatrix, bool) {
	i, ok := r.ladder.RungOf(m)
	if !ok {
		return nil, false
	}
	return r.mats[i], true
}

// Reach packs rung i's reachability relation into a bitset: per
// source, exactly ReachableSet(c, ladder.Mode(i), src, t0).
func (r *SpectrumResult) Reach(i int) *ReachMatrix {
	m := r.mats[i]
	words := (m.n + blockBits - 1) / blockBits
	rm := &ReachMatrix{n: m.n, words: words, bits: make([]uint64, m.n*words)}
	for src := 0; src < m.n; src++ {
		row := m.arr[src*m.n : (src+1)*m.n]
		for dst, a := range row {
			if a >= 0 {
				rm.bits[dst*words+src/blockBits] |= 1 << (uint(src) % blockBits)
			}
		}
	}
	return rm
}

// FirstConnected returns the least permissive rung at which the network
// is temporally connected — the critical waiting budget of the
// spectrum. ok is false if no rung connects it.
func (r *SpectrumResult) FirstConnected() (int, bool) {
	for i, m := range r.mats {
		if m.Connected() {
			return i, true
		}
	}
	return 0, false
}

// spExpire is one scheduled frontier-expiry check of the spectrum
// sweep: bits `word` from the arrival batch that came due at window
// index `batch` for lane row nl (node<<laneShift | lane) may stop being
// rung-`rung`-live when this bucket's tick is reached (the bucket sits
// at batch + d_rung + 1). Bits found stale cascade into a rung+1 check
// at that rung's later deadline, so one arrival schedules one check at
// its arrival rung rather than one per rung — refreshed bits leave the
// cascade at the first check.
type spExpire struct {
	nl    int32
	rung  int32
	batch int64
	word  uint64
}

// spScratch is the reusable state of one spectrum-sweep block of width
// w lanes: the msScratch layout with a rung dimension appended to every
// plane (see the file comment for the layout and the nesting
// invariant), including its two tick rings — the pending grid and due
// buckets on one as long as the in-flight latency, the expire buckets
// on one as long as the largest finite budget. Like msScratch it is
// self-cleaning: every pending cell written is zeroed when its tick
// drains (or by the post-loop cleanup on early exit) — an all-zero grid
// is layout-independent, so a pooled scratch can change width, rung
// count or ring between sweeps.
//
// The per-bit first-arrival table is *slotted by arrival rung* rather
// than replicated per rung: an arrival event whose minimal feasible
// rung is q writes exactly one slot (q), and extraction takes the
// prefix-min over slots ≤ r. This is what makes a K-rung sweep cost far
// less than K passes: the per-bit work of one arrival is O(1) instead
// of O(K − q), and in the common case (a fresh copy, live at every
// rung) q = 0 saves the whole fan. The waiting windows keep no per-bit
// state at all: each finite rung's latest due ticks are bit-sliced
// across a few stamp words per lane row (stampWords), which need no
// clearing between sweeps.
type spScratch struct {
	k       int      // rung count of the current sweep
	w       int      // lane words per node of the current sweep
	win     []uint64 // [row*k+r]: sources usable this tick, rung r (row = v*w+lane)
	reached []uint64 // [row*k+r]: sources that have ever reached v at rung r
	// anyWin[v]: OR of every lane's top-active-rung live word — the
	// contact-gate filter. The top active plane contains every lower
	// rung's bits (nesting), so a zero gate word proves the node has no
	// usable copy at any rung in any lane.
	anyWin []uint64
	// first[(row*k+q)*64+j]: earliest arrival among events whose arrival
	// rung is exactly q. Only *staged* slots are meaningful — stage bit
	// q of stageMask[row*64+j] marks them — and rung r's foremost
	// arrival is the prefix-min over staged slots ≤ r at extraction. An
	// event therefore writes one slot, not one per rung it newly
	// reaches. Rung-major, so recording a word of bits writes
	// contiguously.
	first []tvg.Time
	// stageMask[row*64+j]: bit q set iff slot q of `first` holds a value
	// from this sweep. Assigned (not OR-ed) on the bit's first stage,
	// so it needs no clearing between sweeps.
	stageMask []uint64
	// stamps[row*stampOff[k] + stampOff[r] + b]: bit b of every source's
	// latest window index due at rung r, mod 2^B_r (B_r = stampOff[r+1]
	// − stampOff[r] = stampWords(d_r); wait keeps none).
	stamps    []uint64
	stampOff  []int
	grid      []uint64 // dense [((v*ring.n+slot)*w+lane)*k+r] pending-arrival words
	sparse    map[int64]uint64
	due       [][]int32    // per ring slot: lane rows (nl) with a pending cell (any rung)
	expire    [][]spExpire // per eRing slot: words whose window may have ended
	d         []tvg.Time   // per rung: pause bound (finite rungs)
	finite    []bool       // per rung: bounded budget?
	anyFinite bool

	sparsePeak int // high-water len(sparse): map buckets never shrink

	remaining []int      // per rung: (node, source) pairs not yet reached
	maxFirst  []tvg.Time // per rung: upper bound on recorded first arrivals
	// topActive gates the per-rung work: rungs ≥ topActive are done —
	// they reached every pair and no future arrival can undercut a
	// recorded first — so their state is frozen exactly where their
	// independent single-mode sweeps would have early-exited. Done
	// rungs form a suffix in the common case (a more permissive rung
	// reaches everything no later and with no-worse arrivals); when
	// out-of-order arrivals break that, lower done rungs simply keep
	// running, which is wasted work but never wrong (post-done updates
	// are no-ops on the recorded results).
	topActive int

	// Sweep parameters, fixed by begin and read by run/cleanup (see
	// msScratch: a resumable sweep spans several run calls).
	n     int
	t0    tvg.Time
	span  int64
	ring  tickRing // pending grid and due buckets
	eRing tickRing // expire buckets (any finite rung)
	dense bool
}

var spPool = sync.Pool{New: func() any { return new(spScratch) }}

func getSpScratch() *spScratch { return spPool.Get().(*spScratch) }

// putSpScratch returns s to its pool unless the arenas it would retain
// exceed msMaxRetainedBytes (see putMsScratch). Reports whether the
// scratch was retained.
func putSpScratch(s *spScratch) bool {
	if s.retainedBytes() > msMaxRetainedBytes {
		return false
	}
	spPool.Put(s)
	return true
}

// retainedBytes estimates the scratch's pinned footprint (see
// msScratch.retainedBytes).
func (s *spScratch) retainedBytes() int64 {
	words := int64(cap(s.win)) + int64(cap(s.reached)) + int64(cap(s.stageMask)) +
		int64(cap(s.anyWin)) + int64(cap(s.stamps)) + int64(cap(s.grid))
	b := (words + int64(cap(s.first))) * 8
	b += int64(cap(s.due))*24 + int64(cap(s.expire))*24
	b += int64(s.sparsePeak) * 48 // ≈ bucket bytes per (int64, uint64) entry
	return b
}

// prepare sizes the buffers for n nodes × w lanes, k rungs, a span-tick
// window and the pending ring, and clears the per-(row, rung) masks; the
// expire ring follows from the ladder's largest finite budget and the
// stamp layout from each rung's. first needs no clearing (it is only
// read for slots whose reached bit is set this sweep), nor do the
// stamps (an expiry only tests bits stamped this sweep).
func (s *spScratch) prepare(ladder Ladder, n, w int, span int64, ring tickRing, dense bool) {
	k := ladder.Len()
	s.k = k
	s.w = w
	rows := n * w
	if len(s.win) < rows*k {
		s.win = make([]uint64, rows*k)
		s.reached = make([]uint64, rows*k)
	} else {
		clear(s.win[:rows*k])
		clear(s.reached[:rows*k])
	}
	if len(s.first) < rows*blockBits*k {
		s.first = make([]tvg.Time, rows*blockBits*k)
	}
	if len(s.stageMask) < rows*blockBits {
		s.stageMask = make([]uint64, rows*blockBits)
	}
	if len(s.anyWin) < n {
		s.anyWin = make([]uint64, n)
	} else {
		clear(s.anyWin[:n])
	}
	if cap(s.d) < k {
		s.d = make([]tvg.Time, k)
		s.finite = make([]bool, k)
		s.remaining = make([]int, k)
		s.maxFirst = make([]tvg.Time, k)
		s.stampOff = make([]int, k+1)
	}
	s.d, s.finite = s.d[:k], s.finite[:k]
	s.remaining, s.maxFirst = s.remaining[:k], s.maxFirst[:k]
	s.stampOff = s.stampOff[:k+1]
	s.anyFinite = false
	s.ring, s.eRing = ring, tickRing{}
	for r := 0; r < k; r++ {
		s.d[r], s.finite[r] = ladder.Mode(r).Bound()
		s.stampOff[r+1] = s.stampOff[r] + stampWords(s.d[r], s.finite[r], span)
		if s.finite[r] {
			s.anyFinite = true
			s.eRing = expireRing(s.d[r], span) // rungs ascend: the last finite one is the largest
		}
	}
	if len(s.stamps) < rows*s.stampOff[k] {
		s.stamps = make([]uint64, rows*s.stampOff[k])
	}
	if int64(len(s.due)) < ring.n {
		s.due = make([][]int32, ring.n)
	}
	if int64(len(s.expire)) < s.eRing.n {
		s.expire = make([][]spExpire, s.eRing.n)
	}
	if ring.n > 0 {
		if dense {
			if int64(len(s.grid)) < int64(n)*ring.n*int64(k)*int64(w) {
				s.grid = make([]uint64, int64(n)*ring.n*int64(k)*int64(w))
			}
		} else if s.sparse == nil {
			s.sparse = make(map[int64]uint64)
		}
	}
}

// cell reads pending word (cellBase + r); cellBase is
// ((v*ring.n+slot)*w + lane)*k.
func (s *spScratch) cell(cellBase int64, r int, dense bool) uint64 {
	if dense {
		return s.grid[cellBase+int64(r)]
	}
	return s.sparse[cellBase+int64(r)]
}

// setCell writes pending word (cellBase + r).
func (s *spScratch) setCell(cellBase int64, r int, w uint64, dense bool) {
	if dense {
		s.grid[cellBase+int64(r)] = w
		return
	}
	if w == 0 {
		delete(s.sparse, cellBase+int64(r))
		return
	}
	s.sparse[cellBase+int64(r)] = w
	if len(s.sparse) > s.sparsePeak {
		s.sparsePeak = len(s.sparse)
	}
}

// record folds one rung's arrival mark into the foremost bookkeeping:
// w are the bits of an arrival event visible at rung r of lane row
// `row`, lowest the subset for which r is the event's minimal feasible
// rung. Bits newly reached at r initialize their slot; bits already
// reached only min-update at the event's arrival rung (lowest) — higher
// slots are covered by the prefix-min at extraction, so the per-rung
// fan of the replicated scheme is skipped.
func (s *spScratch) record(row, r int, w, lowest, seenNew uint64, arr tvg.Time) uint64 {
	k := s.k
	rb := row*k + r
	oldReached := s.reached[rb]
	newBits := w &^ oldReached
	fb := rb * blockBits
	ab := row * blockBits
	rbit := uint64(1) << uint(r)
	if newBits != 0 {
		s.reached[rb] = oldReached | newBits
		s.remaining[r] -= bits.OnesCount64(newBits)
		if arr > s.maxFirst[r] {
			s.maxFirst[r] = arr
		}
		// Stage the event once, at its arrival rung: bits already staged
		// at a lower rung this event (seenNew) skip the slot write — the
		// prefix-min covers them.
		topPre := s.reached[row*k+k-1]
		if r == k-1 {
			topPre = oldReached
		}
		for mw := newBits &^ seenNew; mw != 0; mw &= mw - 1 {
			j := bits.TrailingZeros64(mw)
			s.first[fb+j] = arr
			if topPre>>uint(j)&1 == 0 {
				s.stageMask[ab+j] = rbit // first stage this sweep: reset
			} else {
				s.stageMask[ab+j] |= rbit
			}
		}
	}
	// Min-updates can only fire for out-of-order arrivals (a later
	// departure arriving earlier than a recorded first); rung r's
	// foremost arrivals are bounded by maxFirst[r], so arrivals at or
	// past it skip the probe loop entirely — the common case on
	// monotone streams.
	if arr >= s.maxFirst[r] {
		return newBits
	}
	for mw := lowest & oldReached; mw != 0; mw &= mw - 1 {
		j := bits.TrailingZeros64(mw)
		if s.stageMask[ab+j]&rbit != 0 {
			if arr < s.first[fb+j] {
				s.first[fb+j] = arr
			}
		} else {
			s.first[fb+j] = arr
			s.stageMask[ab+j] |= rbit
		}
	}
	return newBits
}

// begin prepares the scratch for the block [base, base+cnt) and seeds
// the sources at every rung; the tick loop itself is run. Same
// begin/run/cleanup contract as msScratch — a SweepCheckpoint keeps
// the scratch between run calls, and stamps are window indices
// whichever run processes the tick.
func (s *spScratch) begin(c *tvg.ContactSet, ladder Ladder, base, cnt int, t0 tvg.Time, width int, ring tickRing) {
	n := c.Graph().NumNodes()
	k := ladder.Len()
	span := spanOf(c, t0)
	w := width
	if w < 1 {
		w = 1
	}
	if maxW := (cnt + blockBits - 1) / blockBits; w > maxW {
		w = maxW
	}
	dense := ring.n > 0 && int64(n)*ring.n*int64(k)*int64(w) <= msDenseCellLimit
	s.prepare(ladder, n, w, span, ring, dense)
	s.n, s.t0, s.span, s.dense = n, t0, span, dense

	for r := 0; r < k; r++ {
		s.remaining[r] = n * cnt
		s.maxFirst[r] = t0
	}
	s.topActive = k

	// Seed: source l·64+j starts at node base+l·64+j holding its own bit
	// at every rung (the empty journey has no pauses), arrival t0 — one
	// stage at rung 0.
	for j := 0; j < cnt; j++ {
		src := base + j
		l := j >> 6
		bit := uint64(1) << uint(j&(blockBits-1))
		row := src*w + l
		sb := row * k
		for r := 0; r < k; r++ {
			s.reached[sb+r] |= bit
			s.remaining[r]--
		}
		s.first[sb*blockBits+(j&(blockBits-1))] = t0
		s.stageMask[row*blockBits+(j&(blockBits-1))] = 1
		if span > 0 {
			cellBase := (int64(src)*ring.n*int64(w) + int64(l)) * int64(k)
			if s.cell(cellBase, k-1, dense) == 0 {
				s.due[0] = append(s.due[0], int32(src)<<laneShift|int32(l))
			}
			for r := 0; r < k; r++ {
				s.setCell(cellBase, r, s.cell(cellBase, r, dense)|bit, dense)
			}
		}
	}
}

// run processes the tick window [from, upTo] of a begun spectrum sweep
// (rung retirement, due drains, cascading expiries, contacts),
// maintaining every rung's frontier simultaneously across up to s.w
// lane words. The same window-splitting contract as msScratch.run: no
// grid cleanup past the stopping point, state at a window boundary
// identical to one run over the union window, and a cc abort mid-tick
// leaves torn state that must not be resumed.
//
// Early exit mirrors the arrival rule of the single-mode kernel,
// quantified over rungs: stop once every rung has reached every (node,
// source) pair AND no future arrival (≥ t+1) can undercut a recorded
// first (t+1 ≥ maxFirst). Rungs that never complete (nowait on a sparse
// network) keep the sweep running to the horizon — exactly as their
// independent passes would. Rung retirement is a property of the whole
// block (remaining counters sum over lanes), so the spectrum retires
// rungs, not lanes.
//
// A non-nil st receives the block's telemetry — contacts examined,
// cascade expiry checks, mid-sweep rung retirements, early exit, sparse
// fallback — in one atomic merge after the pass (see DESIGN.md §8). A
// non-nil cc is the block's cancellation checkpoint, polled every
// ~CancelCheckInterval work units exactly as in msScratch.run; the
// abort path merges partial telemetry plus one Cancellations tick.
func (s *spScratch) run(c *tvg.ContactSet, from, upTo tvg.Time, st *obs.SweepStats, cc *canceler) {
	n, w, k := s.n, s.w, s.k
	t0, span, dense := s.t0, s.span, s.dense
	ringN, mask, eMask := s.ring.n, s.ring.mask, s.eRing.mask
	stampStride := s.stampOff[k]
	horizon := c.Horizon()
	contacts := c.Contacts()
	var swept, expired, retired int64 // block-local telemetry, merged into st once
	credit := int64(CancelCheckInterval)
	aborted := false
	t := from
	for ; t <= upTo; t++ {
		if cc != nil {
			if credit <= 0 {
				if cc.poll() {
					aborted = true
					break
				}
				credit = CancelCheckInterval
			}
			credit--
		}
		// Retire done rungs from the top: a rung whose pairs are all
		// reached and whose recorded firsts no future arrival (≥ t+1)
		// can undercut is exactly where its independent sweep would
		// early-exit, so its state freezes and its per-rung work stops.
		// The gate words track the top active plane, so they are rebuilt
		// from the new top when it drops.
		ta := s.topActive
		for ta > 0 && s.remaining[ta-1] == 0 && t+1 >= s.maxFirst[ta-1] {
			ta--
			retired++
		}
		if ta != s.topActive {
			s.topActive = ta
			if ta > 0 {
				for v := 0; v < n; v++ {
					var any uint64
					for l := 0; l < w; l++ {
						any |= s.win[(v*w+l)*k+ta-1]
					}
					s.anyWin[v] = any
				}
			}
		}
		if ta == 0 {
			break
		}
		idx := int64(t - t0)
		slot := idx & mask

		// 1. Pending arrivals at t come due at every active rung: fold
		// into the live masks, stamp idx into each finite rung's stamp
		// words, and schedule the word's expiry d_r+1 ticks out once, at
		// each bit's arrival rung (the lowest rung it is due at). Done
		// rungs only have their cells zeroed, keeping the grid
		// self-cleaning. The top active rung's fold covers every lower
		// rung's bits (nesting), so it alone feeds the gate word.
		for _, nl := range s.due[slot] {
			v := int(nl >> laneShift)
			l := int(nl & laneMask)
			cellBase := ((int64(v)*ringN+slot)*int64(w) + int64(l)) * int64(k)
			row := v*w + l
			wb := row * k
			sb := row * stampStride
			var seen uint64
			for r := 0; r < k; r++ {
				wd := s.cell(cellBase, r, dense)
				if wd == 0 {
					continue
				}
				s.setCell(cellBase, r, 0, dense)
				if r >= ta {
					continue
				}
				s.win[wb+r] |= wd
				if r == ta-1 {
					s.anyWin[v] |= wd
				}
				stamp(s.stamps[sb+s.stampOff[r]:sb+s.stampOff[r+1]], wd, idx)
				delta := wd &^ seen // bits whose arrival rung is exactly r
				if delta == 0 {
					continue
				}
				seen |= wd
				// One expiry check at the arrival rung's own deadline;
				// stale bits cascade to later rungs from there. A window
				// that outlives the sweep needs no check at any rung.
				if s.finite[r] && horizon-t > s.d[r] {
					es := (idx + int64(s.d[r]) + 1) & eMask
					s.expire[es] = append(s.expire[es], spExpire{nl: nl, rung: int32(r), batch: idx, word: delta})
				}
			}
		}
		s.due[slot] = s.due[slot][:0]

		// 2. Expire words whose rung-r window [a, a+d_r] ended last tick;
		// bits that came due at rung r again after the batch (a refresh
		// by any arrival usable at rung r) survive. Every bit of the word
		// was stamped at rung r at the batch — an arrival-rung check's
		// bits were due at r, a cascaded check's at the rung below and so
		// (nesting) at r — so the rung's stamp words decide it exactly
		// (stampWords). Lower rungs expire no later than higher ones, so
		// the win planes stay nested. A shrunk top-active plane
		// invalidates the node's gate word, which is rebuilt from the
		// surviving lanes.
		if s.anyFinite {
			es := idx & eMask
			expired += int64(len(s.expire[es]))
			for _, e := range s.expire[es] {
				r := int(e.rung)
				if r >= ta {
					continue
				}
				v := int(e.nl >> laneShift)
				l := int(e.nl & laneMask)
				row := v*w + l
				nb := row * k
				sb := row * stampStride
				stale := unrefreshed(s.stamps[sb+s.stampOff[r]:sb+s.stampOff[r+1]], e.word, e.batch)
				if stale == 0 {
					continue
				}
				s.win[nb+r] &^= stale
				if r == ta-1 {
					var any uint64
					for q := 0; q < w; q++ {
						any |= s.win[(v*w+q)*k+r]
					}
					s.anyWin[v] = any
				}
				// Cascade: the batch also granted these bits liveness at
				// every higher rung; the next rung's window ends at its
				// own later deadline (or outlives the sweep). Compare the
				// bound before forming batch+d+1 — a huge d (e.g.
				// wait[MaxInt64]) would wrap the sum negative.
				if rr := r + 1; rr < ta && s.finite[rr] && int64(s.d[rr]) < span-e.batch-1 {
					cs := (e.batch + int64(s.d[rr]) + 1) & eMask
					s.expire[cs] = append(s.expire[cs], spExpire{nl: e.nl, rung: int32(rr), batch: e.batch, word: stale})
				}
			}
			s.expire[es] = s.expire[es][:0]
		}

		// 3. Contacts departing at t forward every active rung's usable
		// copies, lane by lane. The gate word ORs every lane's
		// top-active-rung mask — itself containing every lower rung's
		// bits — so a zero gate skips the contact in one load, the
		// common case on sparse streams, at any width.
		tick := c.AtTick(t)
		swept += int64(len(tick))
		credit -= int64(len(tick))
		for _, kc := range tick {
			ct := &contacts[kc]
			if s.anyWin[ct.From] == 0 {
				continue
			}
			from := int(ct.From)
			to := int(ct.To)
			if ct.Arr <= horizon {
				aslot := int64(ct.Arr-t0) & mask
				gBase := (int64(to)*ringN + aslot) * int64(w) * int64(k)
				for l := 0; l < w; l++ {
					fromB := (from*w + l) * k
					if s.win[fromB+ta-1] == 0 {
						continue
					}
					cellBase := gBase + int64(l)*int64(k)
					toRow := to*w + l
					// A non-empty cell is already scheduled (a cell's word
					// at the highest active rung is non-zero whenever any
					// active rung's is); schedule on that word's
					// empty→non-empty transition. Cells left over from
					// retired rungs can double-schedule a row, which the
					// zero-word drain skips.
					oldTop := s.cell(cellBase, ta-1, dense)
					// Fast path: when the bottom and top active planes
					// agree (live masks, pending cell, reached) the whole
					// nested chain between them agrees too, so one rung's
					// marking decides every rung's — the common case while
					// a flood carries fresh copies (arrival rung 0). One
					// stage write per bit replaces the per-rung fan.
					if mBot := s.win[fromB]; mBot == s.win[fromB+ta-1] &&
						oldTop == s.cell(cellBase, 0, dense) &&
						s.reached[toRow*k] == s.reached[toRow*k+ta-1] {
						nw := mBot &^ oldTop
						if nw == 0 {
							continue
						}
						cellVal := oldTop | nw
						rb := toRow * k
						for r := 0; r < ta; r++ {
							s.setCell(cellBase, r, cellVal, dense)
						}
						// One staged record at rung 0 carries the event;
						// the other rungs share its newBits (their reached
						// planes were equal) and only need the counters.
						if nb := s.record(toRow, 0, nw, nw, 0, ct.Arr); nb != 0 {
							pc := bits.OnesCount64(nb)
							for r := 1; r < ta; r++ {
								s.reached[rb+r] |= nb
								s.remaining[r] -= pc
								if ct.Arr > s.maxFirst[r] {
									s.maxFirst[r] = ct.Arr
								}
							}
						}
						if oldTop == 0 {
							s.due[aslot] = append(s.due[aslot], int32(to)<<laneShift|int32(l))
						}
						continue
					}
					wasEmpty := oldTop == 0
					marked := false
					var seenNw, seenNew uint64
					for r := 0; r < ta; r++ {
						m := s.win[fromB+r]
						if m == 0 {
							continue
						}
						old := s.cell(cellBase, r, dense)
						nw := m &^ old
						if nw == 0 {
							continue
						}
						s.setCell(cellBase, r, old|nw, dense)
						seenNew |= s.record(toRow, r, nw, nw&^seenNw, seenNew, ct.Arr)
						seenNw |= nw
						marked = true
					}
					if wasEmpty && marked {
						s.due[aslot] = append(s.due[aslot], int32(to)<<laneShift|int32(l))
					}
				}
			} else {
				// Terminal, past the horizon: recorded (min-updated) but
				// never buffered. No in-horizon filter is needed: a bit
				// with an in-horizon arrival has first ≤ horizon < Arr,
				// so the min-update no-ops on it by itself.
				for l := 0; l < w; l++ {
					fromB := (from*w + l) * k
					if s.win[fromB+ta-1] == 0 {
						continue
					}
					toRow := to*w + l
					var seenCand, seenNew uint64
					for r := 0; r < ta; r++ {
						m := s.win[fromB+r]
						if m == 0 {
							continue
						}
						seenNew |= s.record(toRow, r, m, m&^seenCand, seenNew, ct.Arr)
						seenCand |= m
					}
				}
			}
		}
	}

	earlyExit := !aborted && t <= upTo

	if st != nil {
		st.Blocks.Inc()
		st.Contacts.Add(swept)
		st.DueExpiries.Add(expired)
		st.RungRetirements.Add(retired)
		if earlyExit {
			st.EarlyExits.Inc()
		}
		if aborted {
			st.Cancellations.Inc()
		}
		if !dense {
			st.SparseFallbacks.Inc()
		}
	}
}

// cleanup zeroes the pending cells and empties the due and expire
// buckets of every ring slot (see msScratch.cleanup).
func (s *spScratch) cleanup() {
	w, k := s.w, s.k
	for slot := range s.ring.n {
		for _, nl := range s.due[slot] {
			v := int(nl >> laneShift)
			l := int(nl & laneMask)
			cellBase := ((int64(v)*s.ring.n+slot)*int64(w) + int64(l)) * int64(k)
			for r := 0; r < k; r++ {
				s.setCell(cellBase, r, 0, s.dense)
			}
		}
		s.due[slot] = s.due[slot][:0]
	}
	for slot := range s.eRing.n {
		s.expire[slot] = s.expire[slot][:0]
	}
}

// newSpectrumResult allocates the k per-rung n×n matrices of a sweep.
// They are not pre-filled: each block's extract writes every entry of
// its source rows.
func newSpectrumResult(ladder Ladder, t0 tvg.Time, n int) *SpectrumResult {
	res := &SpectrumResult{ladder: ladder, t0: t0, mats: make([]*ArrivalMatrix, ladder.Len())}
	for r := range res.mats {
		res.mats[r] = &ArrivalMatrix{n: n, t0: t0, arr: make([]tvg.Time, n*n)}
	}
	return res
}

// retired implements blockSweep: an empty window, or every rung done.
func (s *spScratch) retired() bool { return s.span == 0 || s.topActive == 0 }

// release implements blockSweep.
func (s *spScratch) release() { putSpScratch(s) }

// extract transposes the slotted scratch into the per-rung matrices
// for the source rows [base, base+cnt): rung r's foremost arrival is
// the prefix-min over the bit's arrival-rung slots ≤ r (a
// slot participates once its reached bit is set; reached masks are
// nested, so the prefix only ever grows). Bit-major order keeps each
// matrix write stream sequential (a source's row is contiguous); the
// reached plane re-read per bit stays resident in cache. Every entry is
// written (unreached pairs get -1), so the matrices need no pre-fill.
func (s *spScratch) extract(res *SpectrumResult, base, cnt int) {
	n, sw, k := s.n, s.w, s.k
	rows := make([][]tvg.Time, k)
	for j := 0; j < cnt; j++ {
		l := j >> 6
		jb := j & (blockBits - 1)
		bit := uint64(1) << uint(jb)
		rowBase := (base + j) * n
		for r := 0; r < k; r++ {
			rows[r] = res.mats[r].arr[rowBase : rowBase+n]
		}
		for v := 0; v < n; v++ {
			row := v*sw + l
			if s.reached[row*k+k-1]&bit == 0 {
				for r := 0; r < k; r++ {
					rows[r][v] = -1
				}
				continue
			}
			// Single stage at rung 0 and reached everywhere — the
			// common case on usable networks — writes one value
			// straight down the ladder.
			sm := s.stageMask[row*blockBits+jb]
			if sm == 1 && s.reached[row*k]&bit != 0 {
				val := s.first[row*k*blockBits+jb]
				for r := 0; r < k; r++ {
					rows[r][v] = val
				}
				continue
			}
			// Prefix-min over the bit's staged slots; a bit reached
			// at rung r always has a stage at some rung ≤ r.
			var val tvg.Time
			have := false
			for r := 0; r < k; r++ {
				if sm>>uint(r)&1 == 1 {
					if f := s.first[(row*k+r)*blockBits+jb]; !have || f < val {
						val, have = f, true
					}
				}
				if s.reached[row*k+r]&bit != 0 {
					rows[r][v] = val
				} else {
					rows[r][v] = -1
				}
			}
		}
	}
}
