package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tvgwait/internal/dtn"
	"tvgwait/internal/faultinject"
	"tvgwait/internal/journey"
	"tvgwait/internal/obs"
	"tvgwait/internal/tvg"
)

// ErrTooLarge reports a request whose predicted result footprint exceeds
// the engine's byte budget (Options.MaxCacheBytes). The check runs at
// admission — before any contact set or matrix is allocated — so an
// over-budget spec is rejected in microseconds, not after an allocation
// storm. Match with errors.Is; tvgserve maps it to HTTP 413.
var ErrTooLarge = errors.New("engine: predicted result exceeds cache byte budget")

// Options configures an Engine. The zero value selects sensible defaults.
type Options struct {
	// Workers is the default worker-pool width (0 = GOMAXPROCS). A
	// spec's Workers field overrides it per run.
	Workers int
	// CacheSize bounds the compiled-schedule LRU (0 = 64 entries).
	CacheSize int
	// Obs, when non-nil, registers the engine's telemetry on the given
	// registry (cache hit/miss/eviction/byte series, worker-pool
	// occupancy and task durations, cold-build durations, sweep stats —
	// see DESIGN.md §8). The counters are maintained either way;
	// registration only exposes them.
	Obs *obs.Registry
	// MaxCacheBytes, when positive, bounds the TOTAL priced bytes held
	// across the engine's three caches (schedules, ladder rows,
	// checkpoints) with globally-LRU eviction, and enables the admission
	// check: Metrics/Spectrum requests whose predicted O(N²·K) arrival-
	// matrix footprint alone exceeds the budget fail fast with
	// ErrTooLarge. 0 disables both (entry-count capacity still applies).
	MaxCacheBytes int64
	// FaultHook, when non-nil, is fired at the engine's failure-prone
	// sites (cold builds, sweep kernels, flood tasks) so chaos tests can
	// inject latency and errors. nil — the production configuration —
	// costs one nil check per site. See internal/faultinject.
	FaultHook faultinject.Hook
	// Ingest, when non-nil, is the durability sink every stream create
	// and append flows through before it is published (see IngestSink).
	// nil — the default — keeps the registry memory-only.
	Ingest IngestSink
}

// Engine runs batch simulations. It is safe for concurrent use: runs
// share the contact-set cache and the flood-scratch pool and nothing
// else.
type Engine struct {
	workers int
	cache   *scheduleCache
	// spectra caches the per-rung metric rows of a whole waiting-budget
	// ladder per (spec, seed, t0, ladder) — one entry for K rungs,
	// computed by one sweep. Every generated-graph Metrics and Spectrum
	// request lands here; a single mode is a one-rung ladder.
	spectra *onceCache[[]*ModeMetrics]
	// scratch pools dtn flood state across worker tasks: a worker rents
	// one Scratch per task, so a run with W workers keeps at most W live
	// scratches regardless of how many floods it performs.
	scratch sync.Pool
	// builders pools tvg.Builder arenas across cache misses: a replicate
	// generation rents one, streams contacts straight into CSR and
	// returns it, so steady-state generation allocates only the
	// finalised ContactSet (see DESIGN.md §6).
	builders sync.Pool

	// streams is the live contact-stream registry (CreateStream /
	// AppendStream); checkpoints caches one resumable sweep per
	// (stream, t0, ladder) and advances it in place as the
	// stream grows, instead of re-sweeping cold per revision. See
	// stream.go and DESIGN.md §11.
	streamsMu   sync.Mutex
	streams     map[string]*liveStream
	checkpoints *ckCache

	// busy counts worker-pool tasks currently executing (occupancy);
	// taskDur prices each task's wall time and buildDur each cold
	// contact-set build. sweeps aggregates the bit-parallel sweep
	// telemetry of the metrics/spectrum paths. builderDrops counts pooled
	// builders dropped at the arena retention cap (see putBuilder). All
	// are maintained unconditionally — an Options.Obs registry only
	// exposes them.
	busy         obs.Gauge
	taskDur      *obs.Histogram
	buildDur     *obs.Histogram
	sweeps       obs.SweepStats
	builderDrops obs.Counter

	// baseCtx is the context detached cache builds run under; Close
	// cancels it, aborting in-flight builds at their next checkpoint.
	// Request contexts deliberately do NOT reach cached builds — a
	// caller's deadline must not poison the build for coalesced waiters.
	baseCtx context.Context
	cancel  context.CancelFunc
	// budget is the shared byte budget (nil when MaxCacheBytes == 0);
	// maxBytes mirrors Options.MaxCacheBytes for the admission check.
	budget   *byteBudget
	maxBytes int64
	fault    faultinject.Hook
	// ingest is the durability sink (Options.Ingest); see IngestSink.
	ingest IngestSink
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := opts.CacheSize
	if cacheSize <= 0 {
		cacheSize = 64
	}
	e := &Engine{
		workers: workers,
		cache:   newScheduleCache(cacheSize),
		// Metric rows are tiny next to compiled schedules; keep a couple
		// of whole ladders per cached schedule (an entry holds all its
		// rungs).
		spectra: newOnceCache[[]*ModeMetrics](2 * cacheSize),
		// Checkpoint entries pin whole sweep scratches; cap them like the
		// schedule cache rather than the cheap row caches.
		checkpoints: newCkCache(cacheSize),
		streams:     make(map[string]*liveStream),
		taskDur:     obs.NewHistogram(obs.LatencyBuckets()...),
		buildDur:    obs.NewHistogram(obs.LatencyBuckets()...),
	}
	e.spectra.sizeOf = func(rows []*ModeMetrics) int64 {
		var total int64
		for _, mm := range rows {
			total += modeMetricsBytes(mm)
		}
		return total
	}
	e.baseCtx, e.cancel = context.WithCancel(context.Background())
	if opts.MaxCacheBytes > 0 {
		e.maxBytes = opts.MaxCacheBytes
		e.budget = newByteBudget(opts.MaxCacheBytes, e.cache, e.spectra, e.checkpoints)
		e.cache.budget = e.budget
		e.spectra.budget = e.budget
		e.checkpoints.budget = e.budget
	}
	e.fault = opts.FaultHook
	e.ingest = opts.Ingest
	e.scratch.New = func() any { return dtn.NewScratch() }
	e.builders.New = func() any { return tvg.NewBuilder() }
	if opts.Obs != nil {
		e.wireObs(opts.Obs)
	}
	return e
}

// Close cancels the engine's base context: detached cache builds still
// in flight abort at their next cancellation checkpoint and their
// failed entries are dropped from the caches. Close is idempotent and
// does not wait for those builds to unwind; cached values stay
// readable. Call it at server shutdown so no build goroutine outlives
// the process's accept loop.
func (e *Engine) Close() {
	e.cancel()
}

// CacheBytes reports the engine's current charged cache footprint: the
// budget's total when MaxCacheBytes is set, the sum of the three
// caches' priced bytes otherwise.
func (e *Engine) CacheBytes() int64 {
	if e.budget != nil {
		return e.budget.used()
	}
	return e.cache.bytes() + e.spectra.bytes() + e.checkpoints.bytes()
}

// admitFootprint is the byte-budget admission check: it rejects a
// request whose transient arrival matrix alone — 8·nodes²·rungs bytes
// of tvg.Time cells, the dominant allocation of a metrics or spectrum
// computation — exceeds MaxCacheBytes. Charged before the contact set
// is built, so an over-budget spec allocates nothing. No-op when the
// budget is off.
func (e *Engine) admitFootprint(nodes, rungs int) error {
	if e.maxBytes <= 0 {
		return nil
	}
	need := 8 * int64(nodes) * int64(nodes) * int64(rungs)
	if need > e.maxBytes {
		return fmt.Errorf("%w: %d nodes x %d rungs needs %d bytes (budget %d)",
			ErrTooLarge, nodes, rungs, need, e.maxBytes)
	}
	return nil
}

// builderMaxRetainedBytes caps the arena capacity a builder may carry
// back into the pool, mirroring the sweep scratches' msMaxRetainedBytes:
// one degenerate giant generation would otherwise pin its high-water
// arena for the process lifetime (sync.Pool sheds only under GC
// pressure, and a hot pool is never idle long enough). A var, not a
// const, so TestBuilderRetentionCap can lower it.
var builderMaxRetainedBytes = int64(128 << 20)

// putBuilder returns b to the pool unless its retained arenas exceed
// the cap, in which case it is dropped (and counted) so the next miss
// starts from an empty arena.
func (e *Engine) putBuilder(b *tvg.Builder) {
	if b.RetainedBytes() > builderMaxRetainedBytes {
		e.builderDrops.Inc()
		return
	}
	e.builders.Put(b)
}

// ContactSet returns the cached compiled contact set of (spec, seed),
// generating and compiling it on a miss.
func (e *Engine) ContactSet(g GraphSpec, seed int64) (*tvg.ContactSet, error) {
	return e.contactSet(context.Background(), g, seed)
}

// contactSet is ContactSet with the request's cache trace (if the
// context carries one — see WithCacheTrace) fed by the lookup outcome.
func (e *Engine) contactSet(ctx context.Context, g GraphSpec, seed int64) (*tvg.ContactSet, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	c, hit, err := e.cache.get(ctx, g.key(seed), func() (*tvg.ContactSet, error) {
		if err := e.fault.Fire(faultinject.SiteBuild); err != nil {
			return nil, err
		}
		start := time.Now()
		b := e.builders.Get().(*tvg.Builder)
		defer e.putBuilder(b)
		c, err := g.BuildContacts(seed, b)
		if err != nil {
			// A validated spec should never fail generation; if a
			// generator still rejects it, the spec is to blame.
			return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
		}
		e.buildDur.Observe(time.Since(start).Nanoseconds())
		return c, nil
	})
	if err == nil {
		traceFrom(ctx).record(hit)
	}
	return c, err
}

// Run executes the scenario and aggregates a Report. The run is
// deterministic in the spec: any Workers value (including the engine
// default) produces an identical Report for the same spec and seed.
// Cancellation and deadlines on ctx are honoured between tasks.
func (e *Engine) Run(ctx context.Context, spec ScenarioSpec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	modes, err := ParseModes(spec.Modes)
	if err != nil {
		return nil, err
	}
	workers := spec.Workers
	if workers == 0 {
		workers = e.workers
	}

	// Stage 1: materialize every replicate's contact set, in parallel
	// across replicates (cache hits are free).
	compiled := make([]*tvg.ContactSet, spec.Replicates)
	err = e.forEach(ctx, workers, spec.Replicates, func(r int) error {
		c, err := e.contactSet(ctx, spec.Graph, graphSeed(spec.Seed, r))
		if err != nil {
			return fmt.Errorf("replicate %d: %w", r, err)
		}
		compiled[r] = c
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 2: fan the simulations out and aggregate.
	if spec.Broadcast != nil {
		return e.runBroadcast(ctx, spec, modes, compiled, workers)
	}
	return e.runUnicast(ctx, spec, modes, compiled, workers)
}

// runUnicast floods every (replicate, mode, message) task independently.
// Tasks land in pre-assigned result slots, so aggregation order — and
// therefore the Report — is independent of scheduling.
func (e *Engine) runUnicast(ctx context.Context, spec ScenarioSpec, modes []journey.Mode, compiled []*tvg.ContactSet, workers int) (*Report, error) {
	workloads := make([][]dtn.Message, spec.Replicates)
	for r := range workloads {
		workloads[r] = spec.WorkloadFor(r)
	}
	nModes, nMsgs := len(modes), spec.Messages
	results := make([]dtn.Result, spec.Replicates*nModes*nMsgs)
	err := e.forEach(ctx, workers, len(results), func(i int) error {
		r := i / (nModes * nMsgs)
		mi := i / nMsgs % nModes
		k := i % nMsgs
		msg := workloads[r][k]
		if err := e.fault.Fire(faultinject.SiteFlood); err != nil {
			return fmt.Errorf("replicate %d mode %s message %d: %w", r, modes[mi], msg.ID, err)
		}
		scratch := e.scratch.Get().(*dtn.Scratch)
		res, err := scratch.SimulateCtx(ctx, compiled[r], modes[mi], msg)
		e.scratch.Put(scratch)
		if err != nil {
			return fmt.Errorf("replicate %d mode %s message %d: %w", r, modes[mi], msg.ID, err)
		}
		if spec.CrossCheck {
			if err := crossCheck(compiled[r], modes[mi], msg, res); err != nil {
				return fmt.Errorf("replicate %d: %w", r, err)
			}
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	report := newReport(spec, compiled)
	for mi, mode := range modes {
		agg := newModeAggregator(mode, spec.Replicates*nMsgs)
		for r := 0; r < spec.Replicates; r++ {
			base := (r*nModes + mi) * nMsgs
			for k := 0; k < nMsgs; k++ {
				agg.add(results[base+k])
			}
		}
		report.Unicast = append(report.Unicast, agg.finish())
	}
	return report, nil
}

// crossCheck validates one flood result against an independent foremost-
// journey search: delivery iff a feasible journey exists, and the flood's
// earliest arrival equals the foremost arrival (the dtn/journey duality
// the paper's semantics rest on).
func crossCheck(c *tvg.ContactSet, mode journey.Mode, msg dtn.Message, res dtn.Result) error {
	_, arrival, ok := journey.Foremost(c, mode, msg.Src, msg.Dst, msg.Created)
	if ok != res.Delivered {
		return fmt.Errorf("engine: cross-check failed for message %d under %s: simulate delivered=%v, journey feasible=%v",
			msg.ID, mode, res.Delivered, ok)
	}
	if ok && arrival != res.DeliveredAt {
		return fmt.Errorf("engine: cross-check failed for message %d under %s: simulate arrival=%d, foremost arrival=%d",
			msg.ID, mode, res.DeliveredAt, arrival)
	}
	return nil
}

// runBroadcast floods from the broadcast source once per (replicate,
// mode).
func (e *Engine) runBroadcast(ctx context.Context, spec ScenarioSpec, modes []journey.Mode, compiled []*tvg.ContactSet, workers int) (*Report, error) {
	src := *spec.Broadcast
	nModes := len(modes)
	results := make([]dtn.BroadcastResult, spec.Replicates*nModes)
	err := e.forEach(ctx, workers, len(results), func(i int) error {
		r, mi := i/nModes, i%nModes
		if err := e.fault.Fire(faultinject.SiteFlood); err != nil {
			return fmt.Errorf("replicate %d mode %s: %w", r, modes[mi], err)
		}
		scratch := e.scratch.Get().(*dtn.Scratch)
		res, err := scratch.BroadcastCtx(ctx, compiled[r], modes[mi], src, 0)
		e.scratch.Put(scratch)
		if err != nil {
			return fmt.Errorf("replicate %d mode %s: %w", r, modes[mi], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	report := newReport(spec, compiled)
	for mi, mode := range modes {
		br := BroadcastModeReport{Mode: mode.String(), Runs: spec.Replicates, MinRatio: 1}
		var ratioSum, txSum float64
		for r := 0; r < spec.Replicates; r++ {
			res := results[r*nModes+mi]
			ratioSum += res.Ratio
			txSum += float64(res.Transmissions)
			if res.Ratio < br.MinRatio {
				br.MinRatio = res.Ratio
			}
			if res.Ratio > br.MaxRatio {
				br.MaxRatio = res.Ratio
			}
		}
		br.MeanRatio = ratioSum / float64(spec.Replicates)
		br.MeanTransmissions = txSum / float64(spec.Replicates)
		report.Broadcast = append(report.Broadcast, br)
	}
	return report, nil
}

// forEach is the engine's instrumented pool entry point: each task is
// bracketed by the occupancy gauge and priced into the task-duration
// histogram (two atomic adds and two clock reads per task — noise next
// to a flood or a generation).
func (e *Engine) forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	return forEach(ctx, workers, n, func(i int) error {
		e.busy.Add(1)
		start := time.Now()
		err := fn(i)
		e.taskDur.Observe(time.Since(start).Nanoseconds())
		e.busy.Add(-1)
		return err
	})
}

// forEach runs fn(0..n-1) across a pool of at most `workers` goroutines.
// Each index is attempted at most once; errors are recorded per index and
// the lowest recorded index wins. A failure (or context cancellation)
// stops the pool from starting new tasks. Success paths are fully
// deterministic; which error surfaces from a multi-failure run can vary,
// but whether the run fails cannot.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
