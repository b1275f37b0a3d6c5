package engine

// Live contact-ingest pipeline. A stream is a named, revision-stamped
// contact set that grows by appended batches (tvg.AppendContacts) while
// the engine keeps answering Metrics and Spectrum requests against its
// current revision. The expensive part — the all-pairs bit-parallel
// sweep — is NOT recomputed per revision: the engine caches one
// journey.SweepCheckpoint per (stream, t0, ladder) and advances it
// in place, replaying only the appended suffix window (see
// internal/journey/checkpoint.go). Incremental advances and cold builds
// are counted separately (tvg_engine_checkpoint_advances_total vs
// …_cold_builds_total), so an operator can see the pipeline running
// warm. Checkpoint entries are priced into the engine's shared byte
// budget — their scratch arenas dominate — and repriced after every
// advance; global LRU eviction treats them like any other cache entry.

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"tvgwait/internal/faultinject"
	"tvgwait/internal/journey"
	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// Stream caps. Streams are client-shaped data (not generated), so the
// registry enforces its own bounds: the shape caps match GraphSpec's,
// and maxStreamContacts bounds the contacts one stream may accumulate
// across appends (append batches mint fresh edge ids, so the per-spec
// nodes²·horizon work bound does not apply).
const (
	maxStreams        = 64
	maxStreamName     = 128
	maxStreamContacts = 1 << 22
	maxIngestBatch    = 1 << 16
)

// liveStream is one registered stream: cur is the latest revision, mu
// serializes appends (readers grab cur under mu and then work on the
// immutable snapshot).
type liveStream struct {
	mu  sync.Mutex
	cur *tvg.ContactSet
}

// IngestSink observes every state change of the stream registry before
// it is published, so a durability layer (internal/store) can write a
// WAL record for each one and gate the client ack on its fsync. The
// contract:
//
//   - Both methods are called under the registry's ordering locks, so
//     calls for one stream arrive in apply order and carry the revision
//     they produced. They must be fast (log append, no fsync).
//   - A non-nil error vetoes the change: the engine does NOT publish
//     the new revision, and the client sees the failure. This is what
//     makes "acked implies durable" an invariant rather than a race —
//     nothing becomes visible that the log did not accept.
//   - The returned wait (may be nil) blocks until the record is
//     durable per the sink's fsync policy; the engine calls it after
//     releasing its locks and before acking, so slow fsyncs serialize
//     neither other streams nor readers of this one.
type IngestSink interface {
	StreamCreated(name string, set *tvg.ContactSet) (wait func() error, err error)
	BatchAppended(name string, recs []tvg.ContactRecord, set *tvg.ContactSet) (wait func() error, err error)
}

// sinkErr wraps a sink veto: a server-side durability failure, not a
// client mistake — tvgserve maps it to 500, not 400.
func sinkErr(err error) error {
	return fmt.Errorf("engine: durable log rejected the change: %w", err)
}

// IngestRequest is the body of cmd/tvgserve's POST /contacts: a batch
// of contact records for the named stream. The first post for a stream
// must carry Nodes and Horizon (it creates the stream); later posts may
// repeat them (checked against the live shape) or omit them. Contacts
// may be empty — a bare create, or a shape probe.
type IngestRequest struct {
	Stream   string              `json:"stream"`
	Nodes    int                 `json:"nodes,omitempty"`
	Horizon  tvg.Time            `json:"horizon,omitempty"`
	Contacts []tvg.ContactRecord `json:"contacts,omitempty"`
}

// Validate checks the ingest request's client-side bounds (the registry
// enforces shape caps and watermark ordering at apply time).
func (r IngestRequest) Validate() error {
	if r.Stream == "" || len(r.Stream) > maxStreamName {
		return specErr("stream name must be 1..%d bytes", maxStreamName)
	}
	if len(r.Contacts) > maxIngestBatch {
		return specErr("at most %d contacts per batch, got %d", maxIngestBatch, len(r.Contacts))
	}
	return nil
}

// IngestReport describes the stream after the batch was applied.
type IngestReport struct {
	Stream   string   `json:"stream"`
	Revision uint64   `json:"revision"`
	Nodes    int      `json:"nodes"`
	Horizon  tvg.Time `json:"horizon"`
	Contacts int      `json:"contacts"`
	LastDep  tvg.Time `json:"lastDep"`
}

// Ingest applies one ingest request: create-on-first-post, then append.
// A failed batch leaves the stream exactly as it was (AppendContacts
// validates before publishing), so a client can fix its records and
// retry without tearing the stream down.
func (e *Engine) Ingest(req IngestRequest) (*IngestReport, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	cur, ok := e.StreamSet(req.Stream)
	switch {
	case !ok && req.Nodes == 0 && req.Horizon == 0:
		return nil, specErr("unknown stream %q (the first post must carry nodes and horizon)", req.Stream)
	case !ok:
		var err error
		if cur, err = e.CreateStream(req.Stream, req.Nodes, req.Horizon); err != nil {
			return nil, err
		}
	case req.Nodes != 0 || req.Horizon != 0:
		if req.Nodes != cur.Graph().NumNodes() || req.Horizon != cur.Horizon() {
			return nil, specErr("stream %q has %d nodes and horizon %d, request declares %d and %d",
				req.Stream, cur.Graph().NumNodes(), cur.Horizon(), req.Nodes, req.Horizon)
		}
	}
	if len(req.Contacts) > 0 {
		var err error
		if cur, err = e.AppendStream(req.Stream, req.Contacts); err != nil {
			return nil, err
		}
	}
	return &IngestReport{
		Stream: req.Stream, Revision: cur.Revision(),
		Nodes: cur.Graph().NumNodes(), Horizon: cur.Horizon(),
		Contacts: cur.NumContacts(), LastDep: cur.LastDep(),
	}, nil
}

// CreateStream registers an empty stream of the given shape and returns
// its revision-0 contact set. Creating an existing stream is idempotent
// when the shape matches (the live set is returned unchanged) and an
// error when it does not — so concurrent first-posters of the same
// stream cannot race each other into two registries.
func (e *Engine) CreateStream(name string, nodes int, horizon tvg.Time) (*tvg.ContactSet, error) {
	if name == "" || len(name) > maxStreamName {
		return nil, specErr("stream name must be 1..%d bytes", maxStreamName)
	}
	if nodes < 2 || nodes > maxNodes {
		return nil, specErr("nodes must be in [2, %d], got %d", maxNodes, nodes)
	}
	if horizon < 0 || horizon > maxHorizon {
		return nil, specErr("horizon must be in [0, %d], got %d", maxHorizon, horizon)
	}
	b := e.builders.Get().(*tvg.Builder)
	b.Reset(nodes, horizon)
	cur, err := b.Finalize()
	e.putBuilder(b)
	if err != nil {
		return nil, specErr("%v", err)
	}
	for {
		e.streamsMu.Lock()
		if s := e.streams[name]; s != nil {
			e.streamsMu.Unlock()
			s.mu.Lock()
			live := s.cur
			s.mu.Unlock()
			if live == nil {
				// A concurrent creator's sink vetoed this placeholder; it
				// was unregistered before s.mu was released, so the next
				// pass sees a clean registry and creates afresh.
				continue
			}
			if live.Graph().NumNodes() != nodes || live.Horizon() != horizon {
				return nil, specErr("stream %q exists with %d nodes and horizon %d",
					name, live.Graph().NumNodes(), live.Horizon())
			}
			return live, nil
		}
		if len(e.streams) >= maxStreams {
			e.streamsMu.Unlock()
			return nil, specErr("at most %d streams", maxStreams)
		}
		if e.streams == nil {
			e.streams = make(map[string]*liveStream)
		}
		// Reserve the name with a locked placeholder so the registry lock
		// stays memory-only (like the append path): the sink's WAL write
		// happens under s.mu, stalling only same-stream callers — they
		// block on s.mu until cur is published (or the placeholder is
		// unregistered on veto), never observing the half-made stream.
		s := &liveStream{}
		s.mu.Lock()
		e.streams[name] = s
		e.streamsMu.Unlock()
		// The sink sees the creation BEFORE it is published: a veto
		// unregisters the placeholder, so nothing un-logged is visible.
		var wait func() error
		if e.ingest != nil {
			var serr error
			if wait, serr = e.ingest.StreamCreated(name, cur); serr != nil {
				e.streamsMu.Lock()
				delete(e.streams, name)
				e.streamsMu.Unlock()
				s.mu.Unlock()
				return nil, sinkErr(serr)
			}
		}
		s.cur = cur
		s.mu.Unlock()
		// Durability wait runs with no locks held: a slow fsync stalls only
		// this caller's ack, never other streams or readers.
		if wait != nil {
			if err := wait(); err != nil {
				return nil, sinkErr(err)
			}
		}
		return cur, nil
	}
}

// InstallStream registers a recovered stream at its restored revision,
// bypassing the ingest sink — the store already holds everything the
// set contains, so re-logging it would double the WAL on every boot.
// Installing over an existing stream is an error; recovery runs before
// the server accepts traffic, so there is nothing to race.
func (e *Engine) InstallStream(name string, set *tvg.ContactSet) error {
	if name == "" || len(name) > maxStreamName {
		return specErr("stream name must be 1..%d bytes", maxStreamName)
	}
	if set == nil {
		return specErr("nil contact set for stream %q", name)
	}
	if set.NumContacts() > maxStreamContacts {
		return specErr("stream %q holds %d contacts, cap is %d", name, set.NumContacts(), maxStreamContacts)
	}
	e.streamsMu.Lock()
	defer e.streamsMu.Unlock()
	if e.streams[name] != nil {
		return specErr("stream %q already exists", name)
	}
	if len(e.streams) >= maxStreams {
		return specErr("at most %d streams", maxStreams)
	}
	if e.streams == nil {
		e.streams = make(map[string]*liveStream)
	}
	e.streams[name] = &liveStream{cur: set}
	return nil
}

// StreamNames returns the registered stream names, sorted.
func (e *Engine) StreamNames() []string {
	e.streamsMu.Lock()
	names := make([]string, 0, len(e.streams))
	for name := range e.streams {
		names = append(names, name)
	}
	e.streamsMu.Unlock()
	sort.Strings(names)
	return names
}

// AppendStream appends a batch of contact records to the named stream
// and returns the new revision. Batch validation (unknown nodes,
// departures at or before the watermark, arrivals not after departure)
// is tvg.AppendContacts'; a failed batch leaves the stream unchanged.
// Appends are serialized per stream; readers keep working on the
// revision they snapshotted.
func (e *Engine) AppendStream(name string, recs []tvg.ContactRecord) (*tvg.ContactSet, error) {
	e.streamsMu.Lock()
	s := e.streams[name]
	e.streamsMu.Unlock()
	if s == nil {
		return nil, specErr("unknown stream %q", name)
	}
	s.mu.Lock()
	if s.cur == nil {
		// Grabbed a creation placeholder whose sink veto unregistered it
		// before publishing: the stream never came to exist.
		s.mu.Unlock()
		return nil, specErr("unknown stream %q", name)
	}
	if s.cur.NumContacts()+len(recs) > maxStreamContacts {
		s.mu.Unlock()
		return nil, specErr("stream %q would exceed %d contacts", name, maxStreamContacts)
	}
	next, err := s.cur.AppendContacts(recs)
	if err != nil {
		s.mu.Unlock()
		return nil, specErr("%v", err)
	}
	// Publish only after the sink logged the batch: a vetoed batch
	// leaves s.cur at the prior revision, exactly like a validation
	// failure, so "visible" always implies "in the log".
	var wait func() error
	if e.ingest != nil {
		if wait, err = e.ingest.BatchAppended(name, recs, next); err != nil {
			s.mu.Unlock()
			return nil, sinkErr(err)
		}
	}
	s.cur = next
	s.mu.Unlock()
	// Ack-after-durable: the fsync wait happens outside the stream
	// lock, so readers and concurrent appends to other streams proceed.
	if wait != nil {
		if err := wait(); err != nil {
			return nil, sinkErr(err)
		}
	}
	return next, nil
}

// StreamSet returns the named stream's current revision.
func (e *Engine) StreamSet(name string) (*tvg.ContactSet, bool) {
	e.streamsMu.Lock()
	s := e.streams[name]
	e.streamsMu.Unlock()
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if cur == nil {
		return nil, false // vetoed creation placeholder: never existed
	}
	return cur, true
}

// numStreams backs the stream-count gauge.
func (e *Engine) numStreams() int64 {
	e.streamsMu.Lock()
	defer e.streamsMu.Unlock()
	return int64(len(e.streams))
}

// streamSet resolves a "stream" GraphSpec to the live revision.
func (e *Engine) streamSet(name string) (*tvg.ContactSet, error) {
	c, ok := e.StreamSet(name)
	if !ok {
		return nil, specErr("unknown stream %q", name)
	}
	return c, nil
}

// streamSpectrumRows returns the whole ladder's rows for the stream
// revision c, via one checkpointed ladder sweep: advanced incrementally
// when the stream grew, re-extracted for free when it did not. The
// sweep runs uncancellable (context.Background): it mutates a
// checkpoint every later reader of the entry shares, and an abort
// mid-replay would poison it into a cold rebuild.
func (e *Engine) streamSpectrumRows(ctx context.Context, name string, c *tvg.ContactSet, t0 tvg.Time, ladder journey.Ladder) ([]*ModeMetrics, error) {
	key := fmt.Sprintf("stream:%s|t0%d|ladder:%s", name, t0, ladder)
	return e.withCkEntry(ctx, key, c, func(entry *ckEntry) ([]*ModeMetrics, error) {
		var res *journey.SpectrumResult
		var err error
		if entry.ck != nil {
			res, err = entry.ck.Advance(context.Background(), c, e.workers, &e.sweeps)
		}
		if entry.ck == nil || staleCheckpoint(err) {
			entry.ck = nil // drop the unusable checkpoint before rebuilding
			var ck *journey.SweepCheckpoint
			res, ck, err = journey.SweepCheckpointed(context.Background(), c, ladder, t0, journey.SweepOpts{Workers: e.workers, Stats: &e.sweeps})
			if err != nil {
				return nil, err
			}
			entry.ck = ck
			e.checkpoints.cold.Inc()
		} else if err != nil {
			return nil, err
		} else {
			e.checkpoints.advances.Inc()
		}
		return rungRows(res), nil
	})
}

// staleCheckpoint reports an error that calls for a cold rebuild rather
// than a failure: the cached checkpoint is on a dead lineage (the stream
// was re-created, or the entry outlived a sibling branch) or was
// poisoned by an aborted replay.
func staleCheckpoint(err error) bool {
	return errors.Is(err, journey.ErrNotExtension) || errors.Is(err, journey.ErrCheckpointPoisoned)
}

// withCkEntry runs compute against the checkpoint entry for key,
// serialized on the entry's mutex (a SweepCheckpoint is not safe for
// concurrent use). Requests at the revision the entry already holds are
// served from its cached rows without touching the sweep; compute must
// leave the entry consistent (rows matching ck) or return an error.
func (e *Engine) withCkEntry(ctx context.Context, key string, c *tvg.ContactSet, compute func(*ckEntry) ([]*ModeMetrics, error)) ([]*ModeMetrics, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entry := e.checkpoints.entry(key)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	// The hit check is POINTER identity on the revision snapshot, not the
	// revision counter: counters restart per lineage, so a re-created
	// stream's rev N would collide with a stale entry's rev N. Revisions
	// are immutable, so the same pointer always means the same rows.
	if entry.ck != nil && !entry.ck.Poisoned() && entry.set == c && len(entry.rows) > 0 {
		e.checkpoints.hits.Inc()
		traceFrom(ctx).record(true)
		return entry.rows, nil
	}
	if err := e.fault.Fire(faultinject.SiteSweep); err != nil {
		return nil, err
	}
	warm := entry.ck != nil
	rows, err := compute(entry)
	if err != nil {
		entry.rows, entry.set = nil, nil
		e.checkpoints.reprice(entry)
		return nil, err
	}
	entry.rows = rows
	entry.set = c
	e.checkpoints.reprice(entry)
	traceFrom(ctx).record(warm)
	return rows, nil
}

// ckEntry is one cached resumable sweep: the checkpoint itself plus the
// extracted metric rows of the revision it last swept (so repeated
// reads of an idle stream cost a map hit, not a re-extraction). mu
// serializes sweeps and extraction; size and seq belong to the owning
// ckCache (under its mu), exactly like cacheEntry.
type ckEntry struct {
	key string

	mu sync.Mutex
	ck *journey.SweepCheckpoint
	// set is the revision snapshot rows were extracted from; the hit
	// check compares it by pointer (revision counters restart per
	// lineage, so they cannot identify a revision across re-creates).
	set  *tvg.ContactSet
	rows []*ModeMetrics

	size int64
	seq  uint64
}

// bytes prices the entry: the checkpoint's pinned scratch arenas plus
// the cached rows. Called with entry.mu held.
func (ce *ckEntry) bytes() int64 {
	var b int64 = 96
	if ce.ck != nil {
		b += ce.ck.SizeBytes()
	}
	for _, row := range ce.rows {
		b += modeMetricsBytes(row)
	}
	return b
}

// ckCache is the bounded LRU of checkpoint entries. It mirrors
// onceCache's budget integration (budgetMember; lock order budget.mu →
// ckCache.mu) but holds MUTABLE entries: a lookup returns the live
// entry and the caller mutates it under entry.mu, then reprices it.
// Eviction under entry load is safe — the evicted entry keeps working
// for its in-flight caller, its reprice then charges nothing, and the
// GC reclaims it when the caller lets go.
type ckCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *ckEntry
	m   map[string]*list.Element

	budget *byteBudget

	hits, advances, cold, evictions obs.Counter
}

func newCkCache(capacity int) *ckCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ckCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// entry returns the live entry for key, creating (and LRU-evicting at
// capacity) as needed.
func (cc *ckCache) entry(key string) *ckEntry {
	cc.mu.Lock()
	if el, ok := cc.m[key]; ok {
		cc.ll.MoveToFront(el)
		e := el.Value.(*ckEntry)
		e.seq = lruClock.Add(1)
		cc.mu.Unlock()
		return e
	}
	e := &ckEntry{key: key, seq: lruClock.Add(1)}
	cc.m[key] = cc.ll.PushFront(e)
	var freed int64
	for cc.ll.Len() > cc.cap {
		oldest := cc.ll.Back()
		cc.ll.Remove(oldest)
		oe := oldest.Value.(*ckEntry)
		delete(cc.m, oe.key)
		freed += oe.size
		oe.size = 0
		cc.evictions.Inc()
	}
	cc.mu.Unlock()
	if freed > 0 && cc.budget != nil {
		cc.budget.release(freed)
	}
	return e
}

// reprice re-charges entry at its current footprint: release the old
// price, charge the new (which may evict globally-LRU entries to fit).
// Called with entry.mu held, never with cc.mu or budget.mu held.
func (cc *ckCache) reprice(e *ckEntry) {
	size := e.bytes()
	if cc.budget == nil {
		cc.mu.Lock()
		if el, ok := cc.m[e.key]; ok && el.Value.(*ckEntry) == e {
			e.size = size
		}
		cc.mu.Unlock()
		return
	}
	cc.mu.Lock()
	old := e.size
	e.size = 0
	cc.mu.Unlock()
	if old > 0 {
		cc.budget.release(old)
	}
	cc.budget.charge(cc, e, size)
}

// priceUnderBudget implements budgetMember (see onceCache).
func (cc *ckCache) priceUnderBudget(entry any, size int64) int64 {
	e := entry.(*ckEntry)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.m[e.key]; ok && el.Value.(*ckEntry) == e {
		e.size = size
		return size
	}
	return 0 // evicted while sweeping: nothing to charge
}

// tailSeq implements budgetMember.
func (cc *ckCache) tailSeq() (uint64, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for el := cc.ll.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*ckEntry); e.size > 0 {
			return e.seq, true
		}
	}
	return 0, false
}

// evictOldest implements budgetMember.
func (cc *ckCache) evictOldest() int64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for el := cc.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*ckEntry)
		if e.size == 0 {
			continue
		}
		cc.ll.Remove(el)
		delete(cc.m, e.key)
		freed := e.size
		e.size = 0
		cc.evictions.Inc()
		return freed
	}
	return 0
}

// len reports the number of cached entries.
func (cc *ckCache) len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.ll.Len()
}

// bytes sums the priced footprints.
func (cc *ckCache) bytes() int64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	var total int64
	for el := cc.ll.Front(); el != nil; el = el.Next() {
		total += el.Value.(*ckEntry).size
	}
	return total
}
