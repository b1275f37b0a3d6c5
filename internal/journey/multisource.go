package journey

// Bit-parallel multi-source temporal reachability. The all-pairs
// questions this package answers — "is the TVG temporally connected
// under this waiting semantics?", "what is its temporal diameter?" —
// used to be N single-source searches (N² Foremost calls for the
// diameter). This file replaces those re-traversals with one pass over
// the contact stream per source block: every node carries W uint64
// presence words (W ∈ {1, 2, 4, 8} "lanes", 64–512 sources per block)
// whose bit j of lane l means "a copy originating at source l·64+j is
// usable here now", and contacts are processed in departure-time order,
// OR-ing whole frontiers at once. Widening the block amortizes the
// dominant cost — the departure-ordered scan of the contact stream —
// across up to 8× more sources per pass; the per-contact work that is
// proportional to live bits is unchanged, so results are bit-identical
// at every width. The semantics mirror dtn's epidemic flood (whose
// earliest arrival provably equals the foremost-journey arrival; the
// engine cross-check asserts it):
//
//   - Wait: masks are persistent — once a bit turns on at a node it
//     stays usable forever.
//   - NoWait / BoundedWait(d): a bit arriving at time a is usable for
//     departures in [a, a+d] only. Arrivals are buffered per (node,
//     arrival-tick, lane) in a pending grid; when tick a is processed
//     the word comes due (ORed into the live mask) and its expiry is
//     scheduled d+1 ticks later, where bits refreshed by a newer
//     arrival — detected via a per-(node, lane, bit) latest-arrival
//     table — survive the clear. This is the due-bucket idea of
//     dtn.Scratch, word-packed.
//
// Foremost arrivals are recorded per (src, dst) the first time a bit is
// newly buffered for a node, with a min-update for the rare
// out-of-order case where a later departure arrives earlier (variable
// latencies). Each lane keeps its own remaining counter and arrival
// bound, and retires — its live words zeroed, its folds skipped —
// exactly where its independent 64-source sweep would have early-
// exited, so a wide block never does more per-lane work than W narrow
// blocks would. See DESIGN.md §5 and §9 for the layout, the expiry
// rule, the early-exit contract and the auto-width rule.

import (
	"math/bits"
	"sync"

	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// blockBits is the bit width of one lane word: 64 sources.
const blockBits = 64

// maxSweepWidth is the widest supported sweep block: 8 lane words, 512
// sources per contact pass.
const maxSweepWidth = 8

// autoMaxWidth is the widest block the automatic rule will pick. Four
// lanes (256 sources) already cut the contact-stream passes to the
// point where the per-live-lane payload — grid probes, arrival
// recording, gate loads — dominates the sweep, so an eighth lane word
// doubles the grid working set for no stream savings; on the ledger
// networks (BENCH_sweepwidth.json) 512-lane blocks measure slower than
// 256 at every size. W=8 stays available to explicit callers.
const autoMaxWidth = 4

// laneShift/laneMask pack a (node, lane) pair into one int32 for the
// due/expire buckets: nl = node<<laneShift | lane. Three bits cover
// maxSweepWidth lanes and keep node ids below 1<<28 — far beyond any
// graph the per-tick int32 contact encoding can hold.
const (
	laneShift = 3
	laneMask  = 1<<laneShift - 1
)

// msDenseCellLimit bounds the nodes × span × width pending-arrival
// grid (in uint64 words) a sweep will allocate. Above it (huge horizons
// on many nodes) the sweep falls back to a hash map, trading speed for
// bounded memory — the same escape hatch as dtn's denseCellLimit. The
// budget is charged for the full ×W lane growth, and the auto-width
// rule narrows a block before it would push an affordable dense grid
// into the sparse path.
const msDenseCellLimit = 1 << 23

// msMaxRetainedBytes caps the arena footprint a sweep scratch may carry
// back into its pool. One wide, large-horizon sweep can grow a scratch
// to hundreds of MB; retaining that for the process lifetime is worse
// than re-allocating on the next oversized sweep, so Put drops such
// scratches on the floor instead.
const msMaxRetainedBytes = 128 << 20

// ArrivalMatrix is the all-pairs foremost-arrival table of a contact
// set under one waiting semantics: entry (src, dst) is the earliest
// arrival of a feasible journey from src to dst departing no earlier
// than t0, or -1 if dst is unreachable from src within the horizon.
// The diagonal holds t0 (the empty journey). Sweep produces one per
// ladder rung.
type ArrivalMatrix struct {
	n   int
	t0  tvg.Time
	arr []tvg.Time // row-major [src*n + dst]; -1 = unreachable
}

// NumNodes returns the node count (the matrix is NumNodes × NumNodes).
func (m *ArrivalMatrix) NumNodes() int { return m.n }

// T0 returns the earliest-departure time the matrix was computed for.
func (m *ArrivalMatrix) T0() tvg.Time { return m.t0 }

// At returns the foremost arrival time from src to dst, matching
// Foremost(c, mode, src, dst, t0) bit for bit. ok is false if dst is
// unreachable (or either endpoint is invalid).
func (m *ArrivalMatrix) At(src, dst tvg.Node) (tvg.Time, bool) {
	if src < 0 || int(src) >= m.n || dst < 0 || int(dst) >= m.n {
		return 0, false
	}
	a := m.arr[int(src)*m.n+int(dst)]
	if a < 0 {
		return 0, false
	}
	return a, true
}

// Row returns src's full arrival row; -1 marks unreachable
// destinations. The slice is shared; callers must not modify it.
func (m *ArrivalMatrix) Row(src tvg.Node) []tvg.Time {
	if src < 0 || int(src) >= m.n {
		return nil
	}
	return m.arr[int(src)*m.n : (int(src)+1)*m.n]
}

// Eccentricity returns src's temporal eccentricity — the worst foremost
// delay (arrival − t0) over all destinations. ok is false if some node
// is unreachable from src.
func (m *ArrivalMatrix) Eccentricity(src tvg.Node) (tvg.Time, bool) {
	row := m.Row(src)
	if row == nil {
		return 0, false
	}
	var worst tvg.Time
	for _, a := range row {
		if a < 0 {
			return 0, false
		}
		if d := a - m.t0; d > worst {
			worst = d
		}
	}
	return worst, true
}

// Diameter returns the maximum eccentricity over all sources. ok is
// false if any ordered pair is unreachable.
func (m *ArrivalMatrix) Diameter() (tvg.Time, bool) {
	var worst tvg.Time
	for src := 0; src < m.n; src++ {
		ecc, ok := m.Eccentricity(tvg.Node(src))
		if !ok {
			return 0, false
		}
		if ecc > worst {
			worst = ecc
		}
	}
	return worst, true
}

// Connected reports whether every ordered pair has a feasible journey.
func (m *ArrivalMatrix) Connected() bool {
	for _, a := range m.arr {
		if a < 0 {
			return false
		}
	}
	return true
}

// ReachablePairs counts the ordered (src, dst) pairs with a feasible
// journey (out of NumNodes², diagonal included).
func (m *ArrivalMatrix) ReachablePairs() int {
	count := 0
	for _, a := range m.arr {
		if a >= 0 {
			count++
		}
	}
	return count
}

// ReachMatrix is the packed all-pairs temporal reachability relation:
// one bit per ordered (src, dst) pair, source bits word-packed per
// destination. Produced by SpectrumResult.Reach.
type ReachMatrix struct {
	n     int
	words int      // ⌈n/64⌉ source words per destination row
	bits  []uint64 // [dst*words + src/64], bit src%64
}

// NumNodes returns the node count.
func (m *ReachMatrix) NumNodes() int { return m.n }

// Reachable reports whether a feasible journey from src to dst exists,
// matching ReachableSet(c, mode, src, t0)[dst].
func (m *ReachMatrix) Reachable(src, dst tvg.Node) bool {
	if src < 0 || int(src) >= m.n || dst < 0 || int(dst) >= m.n {
		return false
	}
	return m.bits[int(dst)*m.words+int(src)/blockBits]>>(uint(src)%blockBits)&1 == 1
}

// ReachablePairs counts the ordered pairs with a feasible journey.
func (m *ReachMatrix) ReachablePairs() int {
	count := 0
	for _, w := range m.bits {
		count += bits.OnesCount64(w)
	}
	return count
}

// AllOnes reports whether every ordered pair is reachable — the
// temporal-connectivity test, as one popcount.
func (m *ReachMatrix) AllOnes() bool { return m.ReachablePairs() == m.n*m.n }

// msExpire is one scheduled frontier expiry: the word that came due for
// lane row nl (node<<laneShift | lane) at the tick d+1 before the
// bucket it sits in.
type msExpire struct {
	nl   int32
	word uint64
}

// msScratch is the reusable state of one multi-source sweep block of
// width w lanes. Per-node state is laid out lane-contiguous — the w
// words a contact touches for one node are adjacent, so an 8-lane block
// reads one cache line where 8 narrow blocks would read 8 — and the
// per-bit tables keep the [node*64*w + j] slot indexing of the narrow
// sweep with j = lane*64 + bit. The pending grid and the due/expire
// buckets are self-cleaning: every cell written is zeroed when its tick
// is drained (or by the post-loop cleanup on early exit), so reuse
// needs no O(nodes × span × w) clear — and an all-zero grid is layout-
// independent, so a pooled scratch can change width between sweeps.
type msScratch struct {
	w       int              // lane words per node of the current sweep
	win     []uint64         // [v*w+l]: sources whose copy is usable this tick
	reached []uint64         // [v*w+l]: sources that have ever reached v
	inHoriz []uint64         // [v*w+l]: sources whose recorded arrival is ≤ horizon
	anyWin  []uint64         // [v]: OR of v's live lane words (contact-gate filter)
	first   []tvg.Time       // [(v*w+l)*64+bit]: earliest arrival (valid iff reached)
	lastArr []tvg.Time       // [(v*w+l)*64+bit]: latest due arrival (bounded modes)
	grid    []uint64         // dense [(v*span+idx)*w+l] pending-arrival words
	sparse  map[int64]uint64 // fallback for oversized grids
	due     [][]int32        // per tick: lane rows (nl) with a pending word
	expire  [][]msExpire     // per tick: words whose window may have ended

	sparsePeak int // high-water len(sparse): map buckets never shrink

	unreached int                     // (node, source) pairs not yet reached, all lanes
	active    int                     // lanes not yet retired
	remaining [maxSweepWidth]int      // per lane: (node, source) pairs not yet reached
	maxFirst  [maxSweepWidth]tvg.Time // per lane: upper bound on recorded first arrivals
	laneDone  [maxSweepWidth]bool     // per lane: retired (live words zeroed, folds skipped)

	// Sweep parameters, fixed by begin and read by run/cleanupFrom — a
	// resumable sweep (SweepCheckpoint) spans several run calls and must
	// see the same window geometry in each.
	n        int
	t0       tvg.Time
	span     int64
	dense    bool
	arrivals bool
	d        tvg.Time
	finite   bool
}

var msPool = sync.Pool{New: func() any { return new(msScratch) }}

func getMsScratch() *msScratch { return msPool.Get().(*msScratch) }

// putMsScratch returns s to its pool unless the arenas it would retain
// exceed msMaxRetainedBytes, in which case s is dropped for the GC.
// Reports whether the scratch was retained (the retention-cap tests
// assert the drop).
func putMsScratch(s *msScratch) bool {
	if s.retainedBytes() > msMaxRetainedBytes {
		return false
	}
	msPool.Put(s)
	return true
}

// retainedBytes estimates the scratch's pinned footprint. The flat
// arenas (masks, per-bit tables, dense grid) dominate and are exact;
// the per-tick bucket backbones are charged by header, and the sparse
// map — whose buckets never shrink — by its high-water entry count.
func (s *msScratch) retainedBytes() int64 {
	words := int64(cap(s.win)) + int64(cap(s.reached)) + int64(cap(s.inHoriz)) +
		int64(cap(s.anyWin)) + int64(cap(s.grid))
	times := int64(cap(s.first)) + int64(cap(s.lastArr))
	b := (words + times) * 8
	b += int64(cap(s.due))*24 + int64(cap(s.expire))*24
	b += int64(s.sparsePeak) * 48 // ≈ bucket bytes per (int64, uint64) entry
	return b
}

// prepare sizes the buffers for n nodes × w lanes and a span-tick
// window and clears the per-node masks. first and lastArr need no
// clearing: first is only read for bits marked reached this sweep,
// lastArr only for bits that came due this sweep — both invariants are
// layout-local, so they survive width changes between sweeps.
func (s *msScratch) prepare(n, w int, span int64, dense bool) {
	s.w = w
	rows := n * w
	if len(s.win) < rows {
		s.win = make([]uint64, rows)
		s.reached = make([]uint64, rows)
		s.inHoriz = make([]uint64, rows)
		s.first = make([]tvg.Time, rows*blockBits)
		s.lastArr = make([]tvg.Time, rows*blockBits)
	} else {
		clear(s.win[:rows])
		clear(s.reached[:rows])
		clear(s.inHoriz[:rows])
	}
	if len(s.anyWin) < n {
		s.anyWin = make([]uint64, n)
	} else {
		clear(s.anyWin[:n])
	}
	if span > 0 {
		if int64(len(s.due)) < span {
			s.due = make([][]int32, span)
			s.expire = make([][]msExpire, span)
		}
		if dense {
			if int64(len(s.grid)) < int64(n)*span*int64(w) {
				s.grid = make([]uint64, int64(n)*span*int64(w))
			}
		} else if s.sparse == nil {
			s.sparse = make(map[int64]uint64)
		}
	}
}

// markPending records "bits w arrive in lane row nl at window tick idx"
// (key is the row's grid cell, (node*span+idx)*width + lane) and
// returns the bits not already pending there. The first mark of a cell
// schedules the row in that tick's due bucket.
func (s *msScratch) markPending(nl int32, key, idx int64, w uint64, dense bool) uint64 {
	if dense {
		old := s.grid[key]
		nw := w &^ old
		if nw == 0 {
			return 0
		}
		if old == 0 {
			s.due[idx] = append(s.due[idx], nl)
		}
		s.grid[key] = old | nw
		return nw
	}
	old := s.sparse[key]
	nw := w &^ old
	if nw == 0 {
		return 0
	}
	if old == 0 {
		s.due[idx] = append(s.due[idx], nl)
	}
	s.sparse[key] = old | nw
	if len(s.sparse) > s.sparsePeak {
		s.sparsePeak = len(s.sparse)
	}
	return nw
}

// takePending reads and clears lane row nl's pending word at window
// tick idx.
func (s *msScratch) takePending(nl int32, idx, span int64, dense bool) uint64 {
	key := (int64(nl>>laneShift)*span+idx)*int64(s.w) + int64(nl&laneMask)
	if dense {
		w := s.grid[key]
		s.grid[key] = 0
		return w
	}
	w := s.sparse[key]
	delete(s.sparse, key)
	return w
}

// recordArrivals folds one pending mark (bits w of lane l arriving at
// lane row `row` = node*width+l at arr) into the foremost bookkeeping:
// first-ever bits set their arrival and shrink the lane's remaining
// count; already-reached bits min-update (a later departure can arrive
// earlier under variable latencies). Min-updates can only fire for
// out-of-order arrivals — lane l's recorded firsts are bounded by
// maxFirst[l], so arrivals at or past it skip the already-reached scan
// entirely, which is the common case on monotone streams and the bulk
// of this function's calls once a flood saturates.
func (s *msScratch) recordArrivals(row, l int, w uint64, arr tvg.Time) {
	fb := row * blockBits
	newBits := w &^ s.reached[row]
	if newBits != 0 {
		s.reached[row] |= newBits
		pc := bits.OnesCount64(newBits)
		s.remaining[l] -= pc
		s.unreached -= pc
		if arr > s.maxFirst[l] {
			s.maxFirst[l] = arr
		}
		for mw := newBits; mw != 0; mw &= mw - 1 {
			s.first[fb+bits.TrailingZeros64(mw)] = arr
		}
	}
	if arr >= s.maxFirst[l] {
		return
	}
	for mw := w &^ newBits; mw != 0; mw &= mw - 1 {
		j := bits.TrailingZeros64(mw)
		if arr < s.first[fb+j] {
			s.first[fb+j] = arr
		}
	}
}

// recordReached folds bits w of lane l into the reachability-only
// bookkeeping.
func (s *msScratch) recordReached(row, l int, w uint64) {
	nw := w &^ s.reached[row]
	if nw != 0 {
		s.reached[row] |= nw
		pc := bits.OnesCount64(nw)
		s.remaining[l] -= pc
		s.unreached -= pc
	}
}

// sweep floods the source block [base, base+cnt) through the contact
// stream in one departure-ordered pass, carrying up to width lane words
// (width·64 sources) at once. With arrivals set it maintains the
// per-(node, bit) foremost arrivals in s.first; without it only the
// reached masks and the remaining counts (cheaper, used by the boolean
// connectivity queries). Results stay in the scratch for the caller to
// extract before the next sweep; the effective lane count is s.w
// (width, clamped to the lanes cnt actually fills).
//
// Early exit is per lane: once every (node, source) pair of lane l is
// reached — and, for arrivals, no future arrival (≥ t+1) can undercut a
// recorded first (t+1 ≥ maxFirst[l]) — the lane retires: its live
// words are zeroed (so the contact loop's lane iteration is branch-
// free) and its due folds are skipped, freezing its state exactly where
// its independent 64-source sweep would have stopped. The block exits
// when every lane has retired.
//
// A non-nil st receives the block's telemetry — contacts examined, due
// expiries processed, lanes retired mid-sweep, early exit, sparse
// fallback — in one atomic merge after the pass (per-tick bookkeeping
// stays in locals), so the instrumented sweep costs the uninstrumented
// one plus a few adds per block. See DESIGN.md §8.
//
// A non-nil cc is the block's cancellation checkpoint: the sweep polls
// it every ~CancelCheckInterval work units (one per contact, one per
// tick) and aborts the tick loop when it trips. The abort path still
// runs the pending-grid cleanup — the pooled scratch contract requires
// an all-zero grid — and still merges the partial telemetry (plus one
// Cancellations tick, and no EarlyExits credit). A nil cc costs one
// nil-check per tick and leaves results bit-identical to the
// pre-cancellation sweep.
func (s *msScratch) sweep(c *tvg.ContactSet, mode Mode, base, cnt int, t0 tvg.Time, arrivals bool, width int, st *obs.SweepStats, cc *canceler) {
	s.beginMode(c, mode, base, cnt, t0, arrivals, width)
	if s.span == 0 {
		if st != nil {
			st.Blocks.Inc()
		}
		return
	}
	t, _ := s.run(c, t0, c.Horizon(), st, cc)
	// Cleanup after an early exit or a cancellation abort: zero the
	// never-drained pending cells so the grid is all-zero for the next
	// sweep.
	s.cleanupFrom(c, t)
}

// beginMode prepares the scratch for the block [base, base+cnt) and
// seeds the sources; the tick loop itself is run. A sweep is beginMode
// + one or more run calls over adjacent tick windows + cleanupFrom
// where the last run stopped — sweep does all three at once, a
// SweepCheckpoint keeps the scratch between run calls and replays only
// the suffix of an extended contact stream.
func (s *msScratch) beginMode(c *tvg.ContactSet, mode Mode, base, cnt int, t0 tvg.Time, arrivals bool, width int) {
	n := c.Graph().NumNodes()
	horizon := c.Horizon()
	span := spanOf(c, t0)
	w := width
	if w < 1 {
		w = 1
	}
	if maxW := (cnt + blockBits - 1) / blockBits; w > maxW {
		w = maxW
	}
	dense := span > 0 && int64(n)*span*int64(w) <= msDenseCellLimit
	s.prepare(n, w, span, dense)
	d, finite := mode.Bound()
	s.n, s.t0, s.span, s.dense = n, t0, span, dense
	s.arrivals, s.d, s.finite = arrivals, d, finite

	s.unreached = n * cnt
	s.active = w
	for l := 0; l < w; l++ {
		s.remaining[l] = n * min(blockBits, cnt-l*blockBits)
		s.maxFirst[l] = t0
		s.laneDone[l] = false
	}

	// Seed: source l·64+j starts at node base+l·64+j holding its own
	// bit, arrival t0 — the pause before the first hop draws on the same
	// waiting budget as every later pause.
	for j := 0; j < cnt; j++ {
		src := base + j
		l := j >> 6
		bit := uint64(1) << uint(j&(blockBits-1))
		row := src*w + l
		s.reached[row] |= bit
		s.remaining[l]--
		s.unreached--
		if arrivals {
			s.first[row*blockBits+(j&(blockBits-1))] = t0
			if t0 <= horizon {
				s.inHoriz[row] |= bit
			}
		}
		if span > 0 {
			s.markPending(int32(src)<<laneShift|int32(l), int64(src)*span*int64(w)+int64(l), 0, bit, dense)
		}
	}
}

// run processes the tick window [from, upTo] of a begun sweep: lane
// retirement, due drains, expiries and the contacts departing in the
// window. It does NOT clean the pending grid past its stopping point —
// the caller either resumes with a later run (whose window must start
// exactly where this one stopped) or calls cleanupFrom. Returns the
// first unprocessed tick (upTo+1, or earlier on retirement/abort) and
// whether cc aborted the loop mid-tick (after which the scratch state
// is torn and must not be resumed). State at any window boundary is
// identical to a single run over the union window — the checkpoint
// suffix-replay invariant — because every tick's processing reads only
// the scratch and the contacts departing at that tick.
func (s *msScratch) run(c *tvg.ContactSet, from, upTo tvg.Time, st *obs.SweepStats, cc *canceler) (tvg.Time, bool) {
	n, w := s.n, s.w
	t0, span, dense := s.t0, s.span, s.dense
	arrivals, d, finite := s.arrivals, s.d, s.finite
	horizon := c.Horizon()
	contacts := c.Contacts()
	// gate[v] must be zero only if no lane has a usable copy at v; for
	// single-lane sweeps the live mask itself is the gate, saving the
	// anyWin maintenance and its extra load per live contact.
	gate := s.anyWin
	if w == 1 {
		gate = s.win
	}
	var swept, expired, lanesRetired int64 // block-local telemetry, merged once
	credit := int64(CancelCheckInterval)   // work units until the next ctx poll
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
		// Retire lanes whose independent sweeps would have early-exited:
		// all pairs reached, and (for arrivals) no future arrival (≥ t+1)
		// can undercut a recorded first. Zeroing the retired lane's live
		// words keeps the contact loop branch-free; gate words are
		// rebuilt so fully-idle nodes skip the lane scan again.
		if s.active > 0 {
			for l := 0; l < w; l++ {
				if s.laneDone[l] || s.remaining[l] != 0 || (arrivals && t+1 < s.maxFirst[l]) {
					continue
				}
				s.laneDone[l] = true
				s.active--
				if s.active > 0 {
					lanesRetired++
				}
				if w > 1 {
					for v := 0; v < n; v++ {
						s.win[v*w+l] = 0
						var any uint64
						for q := 0; q < w; q++ {
							any |= s.win[v*w+q]
						}
						s.anyWin[v] = any
					}
				}
			}
		}
		if s.active == 0 {
			break
		}
		idx := int64(t - t0)

		// 1. Pending arrivals at t come due: fold into the live masks,
		// stamp the latest-arrival table, and (for finite budgets)
		// schedule the expiry of this word d+1 ticks out. Retired lanes
		// only have their cells zeroed, keeping the grid self-cleaning.
		for _, nl := range s.due[idx] {
			wd := s.takePending(nl, idx, span, dense)
			l := int(nl & laneMask)
			if s.laneDone[l] {
				continue
			}
			v := int(nl >> laneShift)
			row := v*w + l
			s.win[row] |= wd
			s.anyWin[v] |= wd
			if finite {
				fb := row * blockBits
				for mw := wd; mw != 0; mw &= mw - 1 {
					s.lastArr[fb+bits.TrailingZeros64(mw)] = t
				}
				if horizon-t > d { // else the window outlives the sweep
					eidx := idx + int64(d) + 1
					s.expire[eidx] = append(s.expire[eidx], msExpire{nl: nl, word: wd})
				}
			}
		}
		s.due[idx] = s.due[idx][:0]

		// 2. Expire words whose window [a, a+d] ended last tick. Bits
		// refreshed by a newer arrival (lastArr ≥ t−d) survive. Runs
		// after the due drain so same-tick refreshes are visible. A
		// shrunk live word invalidates the node's gate word, which is
		// rebuilt from the surviving lanes.
		if finite {
			expired += int64(len(s.expire[idx]))
			for _, e := range s.expire[idx] {
				l := int(e.nl & laneMask)
				if s.laneDone[l] {
					continue
				}
				v := int(e.nl >> laneShift)
				row := v*w + l
				fb := row * blockBits
				stale := e.word
				for mw := e.word; mw != 0; mw &= mw - 1 {
					j := bits.TrailingZeros64(mw)
					if s.lastArr[fb+j]+d >= t {
						stale &^= 1 << uint(j)
					}
				}
				if stale == 0 {
					continue
				}
				s.win[row] &^= stale
				if w > 1 {
					var any uint64
					for q := 0; q < w; q++ {
						any |= s.win[v*w+q]
					}
					s.anyWin[v] = any
				}
			}
			s.expire[idx] = s.expire[idx][:0]
		}

		// 3. Contacts departing at t forward every usable copy of their
		// tail, one word OR per live lane. The gate word (the OR of the
		// tail's lanes) skips dead tails in one load — the common case on
		// sparse streams — so a wide block pays the lane scan only where
		// a narrow block would have forwarded too. Arrivals within the
		// horizon are buffered (and may relay further); later arrivals
		// are terminal and only recorded.
		tick := c.AtTick(t)
		swept += int64(len(tick))
		credit -= int64(len(tick))
		for _, k := range tick {
			ct := &contacts[k]
			if gate[ct.From] == 0 {
				continue
			}
			fb := int(ct.From) * w
			to := int(ct.To)
			if ct.Arr <= horizon {
				arrIdx := int64(ct.Arr - t0)
				cellBase := (int64(to)*span + arrIdx) * int64(w)
				if dense {
					// Inlined dense markPending: the grid probe, the due
					// scheduling and the dedup are three array ops per live
					// lane — a call (and its per-lane dense/sparse branch)
					// here costs as much as the work it wraps.
					for l := 0; l < w; l++ {
						mfrom := s.win[fb+l]
						if mfrom == 0 {
							continue
						}
						old := s.grid[cellBase+int64(l)]
						nw := mfrom &^ old
						if nw == 0 {
							continue
						}
						if old == 0 {
							s.due[arrIdx] = append(s.due[arrIdx], int32(to)<<laneShift|int32(l))
						}
						s.grid[cellBase+int64(l)] = old | nw
						row := to*w + l
						if arrivals {
							s.recordArrivals(row, l, nw, ct.Arr)
							s.inHoriz[row] |= nw
						} else {
							s.recordReached(row, l, nw)
						}
					}
				} else {
					for l := 0; l < w; l++ {
						mfrom := s.win[fb+l]
						if mfrom == 0 {
							continue
						}
						nw := s.markPending(int32(to)<<laneShift|int32(l), cellBase+int64(l), arrIdx, mfrom, false)
						if nw == 0 {
							continue
						}
						row := to*w + l
						if arrivals {
							s.recordArrivals(row, l, nw, ct.Arr)
							s.inHoriz[row] |= nw
						} else {
							s.recordReached(row, l, nw)
						}
					}
				}
			} else if arrivals {
				// Terminal, past the horizon: only bits without an
				// in-horizon arrival can still be improved.
				for l := 0; l < w; l++ {
					mfrom := s.win[fb+l]
					if mfrom == 0 {
						continue
					}
					row := to*w + l
					if cand := mfrom &^ s.inHoriz[row]; cand != 0 {
						s.recordArrivals(row, l, cand, ct.Arr)
					}
				}
			} else {
				for l := 0; l < w; l++ {
					if mfrom := s.win[fb+l]; mfrom != 0 {
						s.recordReached(to*w+l, l, mfrom)
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
		st.LaneRetirements.Add(lanesRetired)
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
	return t, aborted
}

// cleanupFrom zeroes the pending cells and due/expire buckets of every
// tick in [t, horizon], restoring the all-zero-grid invariant a pooled
// scratch must uphold after an early exit or an abort. A checkpointed
// sweep skips it while live — the undrained cells past the watermark
// ARE the state the resume drains.
func (s *msScratch) cleanupFrom(c *tvg.ContactSet, t tvg.Time) {
	horizon := c.Horizon()
	span, dense := s.span, s.dense
	for ; t <= horizon; t++ {
		idx := int64(t - s.t0)
		for _, nl := range s.due[idx] {
			s.takePending(nl, idx, span, dense)
		}
		s.due[idx] = s.due[idx][:0]
		if s.finite {
			s.expire[idx] = s.expire[idx][:0]
		}
	}
}

// begin implements blockSweep: the single-mode kernel answers a
// one-rung ladder, foremost arrivals recorded.
func (s *msScratch) begin(c *tvg.ContactSet, ladder Ladder, base, cnt int, t0 tvg.Time, width int) {
	s.beginMode(c, ladder.Mode(0), base, cnt, t0, true, width)
}

// extract scatters the block's recorded firsts into the source rows
// [base, base+cnt) of the one-rung result, after marking every pair of
// those rows unreached (-1). Lane-major: each lane scatters into only
// its own 64 source rows of the matrix (the working set of a narrow
// sweep), where a node-major walk over a wide block would cycle through
// 64·W rows per node and thrash the write lines.
func (s *msScratch) extract(res *SpectrumResult, base, cnt int) {
	m := res.mats[0]
	n, sw := s.n, s.w
	rows := m.arr[base*n : (base+cnt)*n]
	for i := range rows {
		rows[i] = -1
	}
	for l := 0; l < sw; l++ {
		srcBase := base + l*blockBits
		for v := 0; v < n; v++ {
			row := v*sw + l
			wd := s.reached[row]
			if wd == 0 {
				continue
			}
			fb := row * blockBits
			for mw := wd; mw != 0; mw &= mw - 1 {
				j := bits.TrailingZeros64(mw)
				m.arr[(srcBase+j)*n+v] = s.first[fb+j]
			}
		}
	}
}

// retired implements blockSweep: an empty window, or every lane done.
func (s *msScratch) retired() bool { return s.span == 0 || s.active == 0 }

// release implements blockSweep.
func (s *msScratch) release() { putMsScratch(s) }

// spanOf returns the length of the sweep window [t0, horizon] in
// ticks, or 0 when the window is empty.
func spanOf(c *tvg.ContactSet, t0 tvg.Time) int64 {
	if h := c.Horizon(); h >= t0 {
		return int64(h-t0) + 1
	}
	return 0
}

// autoWidth picks the lane-word count W ∈ {1, 2, 4} of a sweep (W=8 is
// explicit-only; see autoMaxWidth). Three pressures, applied in order:
//
//   - Node count: widen while extra lanes absorb whole 64-source passes
//     (n > w·64) — a wider block than the source count is pure waste.
//   - Worker fan-out: blocks shrink in count as they widen; narrow until
//     every worker keeps at least one block, so widening never idles
//     cores (single-threaded sweeps skip this and take the full width).
//   - Dense-grid budget: the pending grid grows ×W. A grid the dense
//     path can afford at W=1 must not be pushed into the sparse
//     fallback by widening — narrow until it fits again. Grids sparse
//     even at W=1 keep the full width (the map is keyed per cell either
//     way, and the wider block still amortizes the stream scan).
//
// rungs is 1 for the single-mode sweeps and the ladder length for the
// spectrum, whose grid carries one word per rung.
func autoWidth(n int, span int64, rungs, workers int) int {
	w := 1
	for w < autoMaxWidth && n > w*blockBits {
		w *= 2
	}
	if workers > 1 {
		for w > 1 && (n+w*blockBits-1)/(w*blockBits) < workers {
			w /= 2
		}
	}
	if span > 0 && rungs > 0 {
		if cells := int64(n) * span * int64(rungs); cells <= msDenseCellLimit {
			for w > 1 && cells*int64(w) > msDenseCellLimit {
				w /= 2
			}
		}
	}
	return w
}

// normWidth resolves a caller-supplied sweep width: 0 (or negative)
// selects automatically via autoWidth, anything else is clamped to the
// supported powers of two {1, 2, 4, 8}, rounding down.
func normWidth(width, n int, span int64, rungs, workers int) int {
	if width <= 0 {
		return autoWidth(n, span, rungs, workers)
	}
	w := 1
	for w < maxSweepWidth && w*2 <= width {
		w *= 2
	}
	return w
}

// TemporallyConnected reports whether every ordered pair of nodes is
// connected by a feasible journey departing no earlier than t0 — the
// temporal connectivity property that underpins broadcast and routing
// in the paper's motivating setting. It short-circuits inside the
// bit-parallel sweep: each source block stops at the first tick its
// masks are all ones, and the first block that ends with an unreached
// pair answers false without sweeping the rest.
func TemporallyConnected(c *tvg.ContactSet, mode Mode, t0 tvg.Time) bool {
	n := c.Graph().NumNodes()
	if n == 0 {
		return true
	}
	if !mode.IsValid() {
		return false
	}
	w := autoWidth(n, spanOf(c, t0), 1, 1)
	return reachBlocks(c, mode, t0, w, func(s *msScratch, _ int) bool { return s.unreached == 0 })
}

// reachBlocks runs the single-mode kernel's reach-only mode (no arrival
// times, cheaper) over the width·64-source blocks of c in order, and
// hands each finished block to each, stopping at the first false.
// Reports whether every call returned true.
func reachBlocks(c *tvg.ContactSet, mode Mode, t0 tvg.Time, width int, each func(s *msScratch, base int) bool) bool {
	n := c.Graph().NumNodes()
	s := getMsScratch()
	defer putMsScratch(s)
	step := width * blockBits
	for base := 0; base < n; base += step {
		s.sweep(c, mode, base, min(step, n-base), t0, false, width, nil, nil)
		if !each(s, base) {
			return false
		}
	}
	return true
}
