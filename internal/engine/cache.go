package engine

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// onceCache is a bounded LRU of immutable values keyed by string. The
// engine uses two instances: the compiled-schedule cache (contact sets
// are read-only after construction, so a cached pointer can be shared
// by any number of concurrent workers) and the per-ladder spectra
// cache.
//
// Builds are DETACHED: the first request for a key spawns the build on
// its own goroutine under the engine's base context, and every request
// — the originator included — waits on the entry's done channel OR its
// own context, whichever fires first. A waiter whose deadline passes
// returns immediately with its ctx error while the build runs to
// completion and is cached for later hits; one slow caller can neither
// poison nor abort the coalesced crowd (the old sync.Once design made
// every waiter block unboundedly on a stranger's build). Failed builds
// are removed on completion so they pin neither a capacity slot nor a
// stale error.
//
// Lookup outcomes are tallied three ways: a hit (entry exists and its
// build already succeeded), a miss (this request created the entry and
// pays the build) or a coalesced wait (entry exists but its build is
// still in flight — NOT a hit: the waiter may yet see the build fail).
// A registry merely exposes the counters.
//
// Byte accounting: sizeOf prices a value once when its build completes,
// under the cache lock; bytes() walks the list under the lock when a
// gauge is sampled. When the cache belongs to a byteBudget (see
// Options.MaxCacheBytes) the priced entry is charged against the shared
// budget, which evicts globally-least-recently-used priced entries
// across all member caches until the total fits.
type onceCache[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *cacheEntry[V]
	m   map[string]*list.Element
	// sizeOf, when non-nil, estimates a built value's heap footprint for
	// the bytes gauge and the byte budget. Called once per successful
	// build.
	sizeOf func(V) int64
	// budget, when non-nil, is the shared byte budget this cache charges
	// successful builds against. Lock order: budget.mu strictly before
	// any member cache's mu.
	budget *byteBudget

	hits, misses, coalesced, evictions obs.Counter
}

type cacheEntry[V any] struct {
	key  string
	done chan struct{} // closed when the detached build completes
	v    V             // valid after done, if err == nil
	err  error         // valid after done
	// size and seq are maintained under the owning cache's mu: size is
	// the priced footprint (0 while building, after eviction, or for
	// failed builds), seq the global LRU stamp of the entry's last touch.
	size int64
	seq  uint64
}

func newOnceCache[V any](capacity int) *onceCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &onceCache[V]{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// lruClock stamps every cache touch so the shared byte budget can
// compare recency ACROSS caches. One process-global atomic is simpler
// than per-budget plumbing and the stamps only ever need to be ordered.
var lruClock atomic.Uint64

// get returns the value for key, building it with build on a miss. The
// hit flag reports whether the value was served from an existing entry
// (complete or in flight) whose build succeeded. A caller whose ctx is
// done returns its ctx error without waiting; the build keeps running
// detached and is cached for later requests.
func (sc *onceCache[V]) get(ctx context.Context, key string, build func() (V, error)) (V, bool, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, false, err
	}
	sc.mu.Lock()
	el, found := sc.m[key]
	var entry *cacheEntry[V]
	if found {
		sc.ll.MoveToFront(el)
		entry = el.Value.(*cacheEntry[V])
		entry.seq = lruClock.Add(1)
		select {
		case <-entry.done:
			if entry.err == nil {
				sc.hits.Inc()
				v := entry.v
				sc.mu.Unlock()
				return v, true, nil
			}
			// Completed-failed entry still in the map (the build goroutine
			// has not removed it yet): treat like an in-flight failure.
			sc.coalesced.Inc()
		default:
			sc.coalesced.Inc()
		}
		sc.mu.Unlock()
	} else {
		sc.misses.Inc()
		entry = &cacheEntry[V]{key: key, done: make(chan struct{}), seq: lruClock.Add(1)}
		el = sc.ll.PushFront(entry)
		sc.m[key] = el
		var freed int64
		for sc.ll.Len() > sc.cap {
			oldest := sc.ll.Back()
			sc.ll.Remove(oldest)
			oe := oldest.Value.(*cacheEntry[V])
			delete(sc.m, oe.key)
			freed += oe.size
			oe.size = 0
			sc.evictions.Inc()
		}
		sc.mu.Unlock()
		if freed > 0 && sc.budget != nil {
			sc.budget.release(freed)
		}
		go sc.runBuild(entry, build)
	}

	select {
	case <-entry.done:
	case <-ctx.Done():
		return zero, false, ctx.Err()
	}
	if entry.err != nil {
		return zero, false, entry.err
	}
	return entry.v, found, nil
}

// runBuild executes one detached build and completes the entry:
// publish the value (or error), close done, then settle the
// bookkeeping — failed builds leave the map; successful ones are priced
// and charged against the byte budget (which may evict to fit). The
// build closures capture the engine's base context themselves, so
// Engine.Close aborts them.
func (sc *onceCache[V]) runBuild(entry *cacheEntry[V], build func() (V, error)) {
	v, err := build()
	entry.v, entry.err = v, err
	var size int64
	if err == nil && sc.sizeOf != nil {
		size = sc.sizeOf(v)
	}
	close(entry.done)

	if err != nil {
		sc.mu.Lock()
		if el, ok := sc.m[entry.key]; ok && el.Value.(*cacheEntry[V]) == entry {
			sc.ll.Remove(el)
			delete(sc.m, entry.key)
		}
		sc.mu.Unlock()
		return
	}
	if size == 0 {
		return
	}
	if sc.budget == nil {
		sc.mu.Lock()
		if el, ok := sc.m[entry.key]; ok && el.Value.(*cacheEntry[V]) == entry {
			entry.size = size
		}
		sc.mu.Unlock()
		return
	}
	sc.budget.charge(sc, entry, size)
}

// priceUnderBudget records the entry's size if it is still cached.
// Called by byteBudget.charge with budget.mu held; takes sc.mu (the
// budget→cache lock order). Returns the bytes actually charged.
func (sc *onceCache[V]) priceUnderBudget(e any, size int64) int64 {
	entry := e.(*cacheEntry[V])
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if el, ok := sc.m[entry.key]; ok && el.Value.(*cacheEntry[V]) == entry {
		entry.size = size
		return size
	}
	return 0 // evicted while building: nothing to charge
}

// tailSeq returns the LRU stamp of the cache's oldest PRICED entry
// (unpriced entries are still building and free to "evict" — skipping
// them keeps budget eviction meaningful). ok is false when no priced
// entry exists.
func (sc *onceCache[V]) tailSeq() (uint64, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for el := sc.ll.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*cacheEntry[V]); e.size > 0 {
			return e.seq, true
		}
	}
	return 0, false
}

// evictOldest removes the cache's least-recently-used priced entry and
// returns the bytes freed (0 when none exists).
func (sc *onceCache[V]) evictOldest() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for el := sc.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry[V])
		if e.size == 0 {
			continue
		}
		sc.ll.Remove(el)
		delete(sc.m, e.key)
		freed := e.size
		e.size = 0
		sc.evictions.Inc()
		return freed
	}
	return 0
}

// len reports the number of cached entries (for tests and the entry
// gauges).
func (sc *onceCache[V]) len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.ll.Len()
}

// bytes sums the sized entries' footprints. Entries still building (or
// caches without a sizeOf) price as zero.
func (sc *onceCache[V]) bytes() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var total int64
	for el := sc.ll.Front(); el != nil; el = el.Next() {
		total += el.Value.(*cacheEntry[V]).size
	}
	return total
}

// counters exposes the tally quad for registration (see Engine.wireObs).
func (sc *onceCache[V]) counters() (hits, misses, coalesced, evictions *obs.Counter) {
	return &sc.hits, &sc.misses, &sc.coalesced, &sc.evictions
}

// budgetMember is the slice of onceCache the shared byte budget needs,
// erased of the value type parameter.
type budgetMember interface {
	priceUnderBudget(entry any, size int64) int64
	tailSeq() (uint64, bool)
	evictOldest() int64
}

// byteBudget bounds the TOTAL priced bytes of a set of member caches
// (Options.MaxCacheBytes). Charging and the evictions it forces happen
// inside ONE budget.mu critical section, so a reader of used() never
// observes the total above max — the "bytes gauge never exceeds the
// budget" invariant the overload tests pin. Eviction is globally LRU:
// the member whose tail entry carries the smallest lruClock stamp loses
// it, regardless of which cache the new bytes landed in.
//
// Lock order: budget.mu → (one member cache's mu at a time). Member
// caches never call into the budget while holding their own mu
// (capacity evictions collect freed bytes and release after unlocking).
type byteBudget struct {
	max     int64
	mu      sync.Mutex
	usedB   int64
	members []budgetMember
}

func newByteBudget(max int64, members ...budgetMember) *byteBudget {
	return &byteBudget{max: max, members: members}
}

// charge prices entry into member m and evicts across all members until
// the total fits again. The price-then-evict sequence holds budget.mu
// throughout, so the transient overshoot is invisible to used().
func (b *byteBudget) charge(m budgetMember, entry any, size int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	charged := m.priceUnderBudget(entry, size)
	if charged == 0 {
		return
	}
	b.usedB += charged
	for b.usedB > b.max {
		var victim budgetMember
		var oldest uint64
		for _, cand := range b.members {
			seq, ok := cand.tailSeq()
			if !ok {
				continue
			}
			if victim == nil || seq < oldest {
				victim, oldest = cand, seq
			}
		}
		if victim == nil {
			return // nothing evictable (the single new entry exceeds max on its own)
		}
		b.usedB -= victim.evictOldest()
	}
}

// release returns bytes freed by a member's own capacity eviction.
func (b *byteBudget) release(n int64) {
	b.mu.Lock()
	b.usedB -= n
	b.mu.Unlock()
}

// used reports the current charged total. Never above max (except when
// a single entry larger than max was admitted with no evictable peers —
// the admission check in Metrics/Spectrum exists to prevent exactly
// that).
func (b *byteBudget) used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.usedB
}

// scheduleCache is the compiled-schedule instance, keyed by
// GraphSpec.key.
type scheduleCache = onceCache[*tvg.ContactSet]

func newScheduleCache(capacity int) *scheduleCache {
	sc := newOnceCache[*tvg.ContactSet](capacity)
	sc.sizeOf = func(c *tvg.ContactSet) int64 { return c.SizeBytes() }
	return sc
}

// modeMetricsBytes prices one metrics row: the struct, its mode string
// and the optional eccentricity histogram.
func modeMetricsBytes(mm *ModeMetrics) int64 {
	if mm == nil {
		return 0
	}
	return 160 + int64(len(mm.Mode)) + 8*int64(len(mm.EccHistogram))
}
