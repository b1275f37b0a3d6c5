package main

import (
	"fmt"
	"math/rand"
	"time"

	"tvgwait/internal/engine"
	"tvgwait/internal/store"
	"tvgwait/internal/tvg"
)

// live-ingest shape. The stream shape is that of tvgload's ingest mix (a
// node count inside its 64–128 range, the engine's maximum horizon),
// whose checkpoint entries are large next to the 256 MiB cache budget;
// the benchmark keeps that pressure.
const (
	ingestStreams = 4 // two per connection
	ingestNodes   = 96
	ingestHorizon = 1_000_000
	// ingestRate is the fixed offered rate in requests per second, about
	// half the ~81 req/s at which this mix saturates two connections on
	// the reference host.
	ingestRate = 40
	// prefill: per stream, large batches folded into the snapshot, then
	// ordinary batches left in the WAL suffix that recovery replays.
	prefillSnapBatches = 20
	prefillSnapBatch   = 400
	prefillWALBatches  = 20
	// WAL thresholds passed to tvgserve (and the traced store) so the
	// compactor completes several rounds inside the window.
	ingestSegmentBytes = 16 << 10
	ingestCompactBytes = 64 << 10
)

// ingestFsync is the WAL policy: every ack waits for its fsync.
const ingestFsync = "always"

// streamShape is one pre-filled live stream and the batches that make up
// its recovered state.
type streamShape struct {
	name    string
	nodes   int
	client  int
	snap    [][]tvg.ContactRecord // folded into the snapshot
	wal     [][]tvg.ContactRecord // replayed from the WAL at recovery
	nextDep tvg.Time
	rng     *rand.Rand
}

// batch draws n contacts (8–32 when n is 0) departing after the stream's
// watermark, two ticks apart, so batches of one stream arrive in
// watermark order.
func (s *streamShape) batch(n int) []tvg.ContactRecord {
	if n == 0 {
		n = 8 + s.rng.Intn(25)
	}
	recs := make([]tvg.ContactRecord, n)
	for i := range recs {
		from := s.rng.Intn(s.nodes)
		to := (from + 1 + s.rng.Intn(s.nodes-1)) % s.nodes
		recs[i] = tvg.ContactRecord{From: tvg.Node(from), To: tvg.Node(to), Dep: s.nextDep, Arr: s.nextDep + 1}
		s.nextDep += 2
	}
	return recs
}

// ingestDeck is one cycle of live-ingest's request kinds, in the shares
// of tvgload's ingest mix: 50% POST /contacts batches, 35% stream
// /metrics reads (nowait, wait) and 15% stream /spectrum reads (four
// rungs).
var ingestDeck = []string{
	"/contacts", "/contacts", "/contacts", "/contacts", "/contacts",
	"/contacts", "/contacts", "/contacts", "/contacts", "/contacts",
	"/metrics", "/metrics", "/metrics", "/metrics", "/metrics", "/metrics", "/metrics",
	"/spectrum", "/spectrum", "/spectrum",
}

// ingestPlan: an open loop at ingestRate. Requests alternate between the
// two connections, each connection alternates between its two streams,
// and the kinds follow ingestDeck, shuffled the same way for every seed;
// the seed draws the contacts. A warm-up pass reads every stream once
// with each read kind before the window: the first reads after recovery
// build every checkpoint cold and grow the server's heap to its working
// size, which set-up time, not the window, then accounts for.
func ingestPlan(seed int64, window time.Duration) *plan {
	p := &plan{workload: "live-ingest", openLoop: true, seq: make([][]int32, clients)}
	for i := 0; i < ingestStreams; i++ {
		s := streamShape{
			name:   fmt.Sprintf("live-%d", i),
			nodes:  ingestNodes,
			client: i % clients,
			rng:    rand.New(rand.NewSource(seed*7919 + int64(i))),
		}
		for b := 0; b < prefillSnapBatches; b++ {
			s.snap = append(s.snap, s.batch(prefillSnapBatch))
		}
		for b := 0; b < prefillWALBatches; b++ {
			s.wal = append(s.wal, s.batch(0))
		}
		p.streams = append(p.streams, s)
	}
	for i := range p.streams {
		for _, path := range []string{"/metrics", "/spectrum"} {
			p.warm = append(p.warm, p.add(-1, streamRead(path, p.streams[i].name), ""))
		}
	}
	order := rand.New(rand.NewSource(1))
	deck := append([]string(nil), ingestDeck...)
	total := int(window.Seconds() * ingestRate)
	for k := 0; k < total; k++ {
		if k%len(deck) == 0 {
			order.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		c := k % clients
		j := k / clients
		s := &p.streams[c+clients*(j%(ingestStreams/clients))]
		var r request
		if path := deck[k%len(deck)]; path == "/contacts" {
			r = request{path: path, stream: s.name, ingest: true,
				body: mustJSON(engine.IngestRequest{Stream: s.name, Contacts: s.batch(0)})}
		} else {
			r = streamRead(path, s.name)
		}
		r.due = time.Duration(k) * time.Second / ingestRate
		p.add(c, r, "")
	}
	p.serverArgs = []string{
		"-fsync", ingestFsync,
		"-wal-segment-bytes", fmt.Sprint(ingestSegmentBytes),
		"-compact-bytes", fmt.Sprint(ingestCompactBytes),
	}
	return p
}

// streamRead is a read of a live stream: /metrics under nowait and wait,
// or /spectrum over four rungs.
func streamRead(path, stream string) request {
	graph := engine.GraphSpec{Model: "stream", Stream: stream}
	var body any = engine.MetricsRequest{Graph: graph, Modes: []string{"nowait", "wait"}}
	if path == "/spectrum" {
		body = engine.SpectrumRequest{Graph: graph, Modes: []string{"nowait", "wait:2", "wait:8", "wait"}}
	}
	return request{path: path, stream: stream, body: mustJSON(body)}
}

// storeOptions are the store settings tvgserve derives from the flags in
// plan.serverArgs.
func storeOptions() store.Options {
	policy, err := store.ParseSyncPolicy(ingestFsync)
	if err != nil {
		panic(err)
	}
	return store.Options{Policy: policy, SegmentBytes: ingestSegmentBytes, CompactBytes: ingestCompactBytes}
}

// prefill writes the streams' recovered state into dir: each stream's
// snapshot batches, one compaction (a snapshot per stream), then the WAL
// suffix. The write policy does not change the bytes on disk, so the
// prefill skips fsync.
func prefill(dir string, streams []streamShape) error {
	opts := storeOptions()
	opts.Policy = store.SyncNone
	opts.CompactBytes = -1
	st, _, err := store.Open(dir, opts)
	if err != nil {
		return err
	}
	eng := engine.New(engine.Options{Ingest: st})
	defer eng.Close()
	apply := func(pick func(*streamShape) [][]tvg.ContactRecord) error {
		for i := range streams {
			for _, recs := range pick(&streams[i]) {
				if _, err := eng.AppendStream(streams[i].name, recs); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, s := range streams {
		if _, err := eng.CreateStream(s.name, s.nodes, ingestHorizon); err != nil {
			st.Close()
			return err
		}
	}
	err = apply(func(s *streamShape) [][]tvg.ContactRecord { return s.snap })
	if err == nil {
		err = st.Compact()
	}
	if err == nil {
		err = apply(func(s *streamShape) [][]tvg.ContactRecord { return s.wal })
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}
