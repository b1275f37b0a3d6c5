package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tvgwait/internal/engine"
	"tvgwait/internal/store"
	"tvgwait/internal/tvg"
)

// replay re-executes a plan's request sequence in-process through the
// layers' public APIs, doing what tvgserve's handlers do: decode with
// DisallowUnknownFields, Validate, call the engine, encode. It serves two
// purposes. Traced, with the engine and store configured exactly as
// tvgserve configures them, it records a span around every layer call.
// Untraced, on a memory-only engine, it recomputes a sample of answers to
// check the served ones.
type replay struct {
	eng *engine.Engine
	p   *plan
	// n[c] is how many of client c's requests to replay: the number the
	// untraced window sent.
	n []int
	// keep selects the requests whose encoded answers are kept. With
	// sampleOnly, other requests are skipped, except ingests, which
	// every later read of their stream depends on.
	keep       map[int32]bool
	sampleOnly bool

	bufs []*spanBuf // per client; nil when untraced
	// Per client: the engine.Ingest span and request id the store
	// wrapper parents its spans to (streams are pinned to clients, so
	// each is written and read by one goroutine).
	ingestSpan, curReq []int32
	clientOf           map[string]int

	seen []atomic.Bool // per request.set: looked up already

	mu      sync.Mutex
	answers map[int32][]byte
	errs    map[int32]string
	// acked are the ingest batches the replay applied, per stream, in
	// order (for the WAL bytes-per-contact measurement).
	acked map[string][][]tvg.ContactRecord
}

func newReplay(eng *engine.Engine, p *plan, n []int, traced bool, epoch time.Time) *replay {
	r := &replay{
		eng: eng, p: p, n: n, keep: map[int32]bool{},
		ingestSpan: make([]int32, clients), curReq: make([]int32, clients),
		clientOf: map[string]int{}, seen: make([]atomic.Bool, len(p.sets)),
		answers: map[int32][]byte{}, errs: map[int32]string{},
		acked: map[string][][]tvg.ContactRecord{},
	}
	for _, s := range p.streams {
		r.clientOf[s.name] = s.client
	}
	if traced {
		r.bufs = make([]*spanBuf, clients)
		for c := range r.bufs {
			r.bufs[c] = newSpanBuf(epoch, 8*n[c]+16)
		}
	}
	return r
}

// buf returns client c's span buffer (nil when untraced).
func (r *replay) buf(c int) *spanBuf {
	if r.bufs == nil {
		return nil
	}
	return r.bufs[c]
}

// warm sends the plan's warm-up requests untraced.
func (r *replay) warm(ctx context.Context) {
	var out bytes.Buffer
	for _, ri := range r.p.warm {
		st := &clientState{reads: map[string]int{}, ingests: map[string]int{}}
		_, _ = r.exec(ctx, nil, st, -1, ri, &out)
	}
}

// clientState is one replay goroutine's bookkeeping for classifying
// stream reads.
type clientState struct {
	ingests map[string]int // stream → batches acked so far
	reads   map[string]int // stream+path → ingests seen at the last read
}

// run replays every client concurrently, in the plan's order and, for an
// open loop, on the plan's schedule.
func (r *replay) run(ctx context.Context) error {
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					errs[c] = fmt.Errorf("replay client %d panicked: %v", c, v)
				}
			}()
			st := &clientState{reads: map[string]int{}, ingests: map[string]int{}}
			var out bytes.Buffer
			for _, ri := range r.p.seq[c][:r.n[c]] {
				if ctx.Err() != nil {
					return
				}
				q := &r.p.reqs[ri]
				if r.sampleOnly && !q.ingest && !r.keep[ri] {
					continue
				}
				if r.p.openLoop && r.bufs != nil {
					if wait := time.Until(start.Add(q.due)); wait > 0 {
						time.Sleep(wait)
					}
				}
				body, err := r.exec(ctx, r.buf(c), st, c, ri, &out)
				r.mu.Lock()
				if err != nil {
					r.errs[ri] = err.Error()
				} else if r.keep[ri] {
					r.answers[ri] = append([]byte(nil), body...)
				}
				r.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// exec runs one request as tvgserve's handler would and returns the
// encoded answer (valid until the next call with the same out buffer).
// c is the client (-1 for the warm-up, which records no spans).
func (r *replay) exec(ctx context.Context, b *spanBuf, st *clientState, c int, ri int32, out *bytes.Buffer) ([]byte, error) {
	q := &r.p.reqs[ri]
	root := b.begin("request", -1, ri)
	var (
		rep   any
		err   error
		class uint8
	)
	switch q.path {
	case "/metrics":
		var req engine.MetricsRequest
		if err = decodeTimed(b, root, ri, q.body, &req); err != nil {
			break
		}
		r.resolve(b, root, ri, req.Graph, req.Seed)
		tctx, tr := engine.WithCacheTrace(ctx)
		s := b.begin("engine.Metrics", root, ri)
		rep, err = r.eng.Metrics(tctx, req)
		class = classify(st, q, tr)
		b.end(s, class, 0)
	case "/spectrum":
		var req engine.SpectrumRequest
		if err = decodeTimed(b, root, ri, q.body, &req); err != nil {
			break
		}
		r.resolve(b, root, ri, req.Graph, req.Seed)
		tctx, tr := engine.WithCacheTrace(ctx)
		s := b.begin("engine.Spectrum", root, ri)
		rep, err = r.eng.Spectrum(tctx, req)
		class = classify(st, q, tr)
		b.end(s, class, 0)
	case "/simulate":
		var req engine.ScenarioSpec
		if err = decodeTimed(b, root, ri, q.body, &req); err != nil {
			break
		}
		r.resolve(b, root, ri, req.Graph, req.Seed)
		s := b.begin("engine.Run", root, ri)
		rep, err = r.eng.Run(ctx, req)
		b.end(s, 0, 0)
	case "/journey":
		var req engine.JourneyRequest
		if err = decodeTimed(b, root, ri, q.body, &req); err != nil {
			break
		}
		r.resolve(b, root, ri, req.Graph, req.Seed)
		s := b.begin("engine.Journey", root, ri)
		rep, err = r.eng.Journey(ctx, req)
		b.end(s, 0, 0)
	case "/contacts":
		var req engine.IngestRequest
		if err = decodeTimed(b, root, ri, q.body, &req); err != nil {
			break
		}
		s := b.begin("engine.Ingest", root, ri)
		if c >= 0 {
			r.ingestSpan[c], r.curReq[c] = s, ri
		}
		rep, err = r.eng.Ingest(req)
		b.end(s, 0, int64(len(req.Contacts)))
		if err == nil {
			st.ingests[q.stream]++
			r.mu.Lock()
			r.acked[q.stream] = append(r.acked[q.stream], req.Contacts)
			r.mu.Unlock()
		}
	default:
		err = fmt.Errorf("unknown path %s", q.path)
	}
	if err != nil {
		b.end(root, 0, 0)
		return nil, err
	}
	s := b.begin("http.encode", root, ri)
	out.Reset()
	err = json.NewEncoder(out).Encode(rep)
	b.end(s, 0, int64(out.Len()))
	b.end(root, 0, 0)
	return out.Bytes(), err
}

// decodeTimed is tvgserve's decodeJSON plus the handler's Validate call,
// inside one http.decode span.
func decodeTimed(b *spanBuf, root, ri int32, body []byte, v interface{ Validate() error }) error {
	s := b.begin("http.decode", root, ri)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		err = v.Validate()
	}
	b.end(s, 0, 0)
	return err
}

// resolve looks up a generated spec's contact set in its own span before
// the engine call, so that a miss there is the generation build and the
// engine call's self time is the sweep, flood or search alone. Stream
// specs have no generated set.
func (r *replay) resolve(b *spanBuf, root, ri int32, g engine.GraphSpec, seed int64) {
	if g.Model == "stream" {
		return
	}
	s := b.begin("engine.ContactSet", root, ri)
	cs, err := r.eng.ContactSet(g, seed)
	class := classHit
	if !r.seen[r.p.reqs[ri].set].Swap(true) {
		class = classMiss
	}
	n := int64(0)
	if err == nil {
		n = int64(cs.NumContacts())
	}
	b.end(s, class, n)
}

// classify names how the engine served a Metrics or Spectrum call. A
// generated spec hits or misses its row cache. A stream read builds its
// checkpoint cold, advances it (the stream grew since this question was
// last asked on it) or hits it.
func classify(st *clientState, q *request, tr *engine.CacheTrace) uint8 {
	if q.stream == "" {
		if tr.Misses() > 0 {
			return classMiss
		}
		return classHit
	}
	key := q.stream + q.path
	grew := st.reads[key] != st.ingests[q.stream]
	_, asked := st.reads[key]
	st.reads[key] = st.ingests[q.stream]
	switch {
	case tr.Misses() > 0:
		return classCold
	case grew || !asked:
		return classAdvance
	default:
		return classHit
	}
}

// timedSink wraps the store as the engine's IngestSink, recording
// store.log around the log call and store.durable_wait around the wait it
// returns, as children of the current engine.Ingest span.
type timedSink struct {
	st *store.Store
	r  *replay
}

func (t *timedSink) wrap(name string, log func() (func() error, error)) (func() error, error) {
	c, ok := t.r.clientOf[name]
	b := t.r.buf(c)
	if !ok || b == nil {
		return log()
	}
	parent, ri := t.r.ingestSpan[c], t.r.curReq[c]
	s := b.begin("store.log", parent, ri)
	wait, err := log()
	b.end(s, 0, 0)
	if wait == nil {
		return nil, err
	}
	return func() error {
		w := b.begin("store.durable_wait", parent, ri)
		err := wait()
		b.end(w, 0, 0)
		return err
	}, err
}

func (t *timedSink) StreamCreated(name string, set *tvg.ContactSet) (func() error, error) {
	return t.wrap(name, func() (func() error, error) { return t.st.StreamCreated(name, set) })
}

func (t *timedSink) BatchAppended(name string, recs []tvg.ContactRecord, set *tvg.ContactSet) (func() error, error) {
	return t.wrap(name, func() (func() error, error) { return t.st.BatchAppended(name, recs, set) })
}

// walBytesPerContact re-logs the acked batches into a fresh WAL with
// tvgserve's segment size and no compaction, and returns the bytes written
// per contact (segment headers included).
func walBytesPerContact(dir string, acked map[string][][]tvg.ContactRecord) (float64, error) {
	opts := storeOptions()
	opts.Policy, opts.CompactBytes = store.SyncNone, -1
	st, _, err := store.Open(dir, opts)
	if err != nil {
		return 0, err
	}
	empty := st.WAL().Size()
	contacts := 0
	for name, batches := range acked {
		for _, recs := range batches {
			if _, _, err := st.WAL().Append(&store.Record{Type: store.RecAppend, Stream: name, Recs: recs}); err != nil {
				st.Close()
				return 0, err
			}
			contacts += len(recs)
		}
	}
	bytes := st.WAL().Size() - empty
	if err := st.Close(); err != nil {
		return 0, err
	}
	return ratio(float64(bytes), float64(contacts)), nil
}
