package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tvgwait/internal/engine"
	"tvgwait/internal/obs"
	"tvgwait/internal/store"
	"tvgwait/internal/tvg"
)

// serverEngineOptions are the engine options tvgserve runs with by
// default: Workers 0 (GOMAXPROCS), a 256-entry schedule cache and a
// 256 MiB cache budget.
func serverEngineOptions() engine.Options {
	return engine.Options{CacheSize: 256, MaxCacheBytes: 256 << 20}
}

// compactInterval is tvgserve's default -compact-interval.
const compactInterval = time.Second

// tracedRun is the traced replay and what it measured besides spans.
type tracedRun struct {
	replay    *replay
	sum       *traceSummary
	opens     sample // store.Open durations on copies of the pre-filled directory, ns
	replayed  float64
	walPerCt  float64
	spansPath string
}

// runTraced replays the window's requests in-process with tracing on,
// the engine and store configured as tvgserve configures them.
func runTraced(ctx context.Context, life *lifecycle, p *plan, prefilled string, n []int, keep map[int32]bool) (*tracedRun, error) {
	reg := obs.NewRegistry()
	reg.EnableRuntime()
	opts := serverEngineOptions()
	opts.Obs = reg
	r := newReplay(nil, p, n, true, time.Now())
	r.keep = keep
	tr := &tracedRun{replay: r}
	var st *store.Store
	var recovered map[string]*tvg.ContactSet
	if prefilled != "" {
		for i := 0; i < 3; i++ {
			s, rec, took, err := openCopy(life, prefilled, storeOptions())
			if err != nil {
				return nil, err
			}
			tr.opens = append(tr.opens, float64(took))
			if i < 2 {
				if err := s.Close(); err != nil {
					return nil, err
				}
				continue
			}
			st, recovered = s, rec
		}
		st.Register(reg)
		tr.replayed = float64(st.StatsRef().RecoveredRecords.Value())
		opts.Ingest = &timedSink{st: st, r: r}
	}
	eng := engine.New(opts)
	r.eng = eng
	for name, set := range recovered {
		if err := eng.InstallStream(name, set); err != nil {
			st.Close()
			eng.Close()
			return nil, err
		}
	}
	if st != nil {
		st.StartCompactor(compactInterval)
	}
	r.warm(ctx)
	err := r.run(ctx)
	if st != nil {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	eng.Close()
	if err != nil {
		return nil, err
	}
	tr.sum = summarize(r.bufs)
	if len(r.acked) > 0 {
		dir, err := life.tempDir("relog-")
		if err != nil {
			return nil, err
		}
		if tr.walPerCt, err = walBytesPerContact(dir, r.acked); err != nil {
			return nil, err
		}
	}
	traceDir := filepath.Join(filepath.Dir(life.scratch), "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	tr.spansPath = filepath.Join(traceDir, p.workload+".jsonl")
	if err := writeSpans(tr.spansPath, r.bufs); err != nil {
		return nil, err
	}
	return tr, nil
}

// openCopy recovers a fresh copy of the pre-filled directory and reports
// how long store.Open took.
func openCopy(life *lifecycle, prefilled string, opts store.Options) (*store.Store, map[string]*tvg.ContactSet, time.Duration, error) {
	dir, err := life.tempDir("data-")
	if err != nil {
		return nil, nil, 0, err
	}
	if err := copyDir(prefilled, dir); err != nil {
		return nil, nil, 0, err
	}
	t := time.Now()
	st, recovered, err := store.Open(dir, opts)
	return st, recovered, time.Since(t), err
}

// verifySample recomputes the sampled answers untraced on a memory-only
// engine, applying every ingest the sampled stream reads depend on.
func verifySample(ctx context.Context, life *lifecycle, p *plan, prefilled string, n []int, keep map[int32]bool) (*replay, error) {
	eng := engine.New(serverEngineOptions())
	defer eng.Close()
	if prefilled != "" {
		opts := storeOptions()
		opts.Policy = store.SyncNone
		st, recovered, _, err := openCopy(life, prefilled, opts)
		if err != nil {
			return nil, err
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
		for name, set := range recovered {
			if err := eng.InstallStream(name, set); err != nil {
				return nil, err
			}
		}
	}
	r := newReplay(eng, p, n, false, time.Now())
	r.keep, r.sampleOnly = keep, true
	return r, r.run(ctx)
}

// latencies splits the window's successful round trips (in ms) into all
// requests, ingests and reads. Wrong answers count as failures, not
// samples.
func latencies(p *plan, w *windowRun, wrong map[int32]string) (all, ingest, read sample, ok int) {
	for _, run := range w.runs {
		for i := range run.outs {
			o := &run.outs[i]
			if !o.ok() || wrong[o.req] != "" {
				continue
			}
			ok++
			ms := float64(o.latency(p.openLoop)) / 1e6
			all = append(all, ms)
			if p.reqs[o.req].ingest {
				ingest = append(ingest, ms)
			} else {
				read = append(read, ms)
			}
		}
	}
	return all, ingest, read, ok
}

// generatorLag is the open-loop generator's own lateness per request, in
// ms: how long after the request was due and its connection free it was
// sent. Waiting for a busy connection is the server's delay and is counted
// in the due-time latencies instead.
func generatorLag(runs []clientRun) sample {
	var lag sample
	for _, run := range runs {
		var free time.Duration
		for _, o := range run.outs {
			lag = append(lag, float64(max(o.sent-max(o.due, free), 0))/1e6)
			free = o.done
		}
	}
	return lag
}

// m is a plain metric.
func m(name, unit string, value float64, n int) metric {
	return metric{name: name, unit: unit, value: value, n: n}
}

// pct is the q-th percentile of s divided by div, flagged when fewer than
// minBeyond samples lie beyond it. The unit follows the name's suffix.
func pct(name string, s sample, q, div float64) metric {
	v, ok := percentile(s.sorted(), q)
	unit := "ms"
	if strings.HasSuffix(name, "_us") {
		unit = "us"
	}
	return metric{name: name, unit: unit, value: v / div, n: len(s), thin: len(s) > 0 && !ok}
}

// endToEnd computes the metrics a user of tvgserve sees.
func endToEnd(p *plan, w *windowRun, setups sample, wrong map[int32]string) []metric {
	all, _, _, ok := latencies(p, w, wrong)
	return []metric{
		m("setup_s", "s", setups.p(50), len(setups)),
		m("throughput_rps", "req/s", ratio(float64(ok), w.wall.Seconds()), ok),
		pct("p50_ms", all, 50, 1),
		pct("p90_ms", all, 90, 1),
		pct("p99_ms", all, 99, 1),
		m("cpu_ms_per_req", "ms", ratio(float64(w.serverCPU)/1e6, float64(ok)), ok),
		m("peak_rss_mb", "MB", float64(w.rss)/(1<<20), 0),
	}
}

// perLayer computes the per-layer metrics: timings from the traced
// replay's spans, counts from the untraced server's /statusz deltas.
func perLayer(p *plan, w *windowRun, tr *tracedRun, wrong map[int32]string) []metric {
	all, ingest, read, ok := latencies(p, w, wrong)
	ts := tr.sum
	d := func(prefix string) float64 { return delta(w.before, w.after, prefix) }
	per1k := func(v float64) float64 { return ratio(1000*v, float64(ok)) }
	us := func(s sample) float64 { return s.p(50) / 1e3 }
	ms := func(s sample) float64 { return s.p(50) / 1e6 }
	both := func(m map[string]sample, a, b string) sample { return append(append(sample{}, m[a]...), m[b]...) }

	schedHits := d(`tvg_engine_cache_hits_total{cache="schedule"}`)
	schedLookups := schedHits + d(`tvg_engine_cache_misses_total{cache="schedule"}`) + d(`tvg_engine_cache_coalesced_total{cache="schedule"}`)
	rowHits := d(`tvg_engine_cache_hits_total{cache="metrics"}`) + d(`tvg_engine_cache_hits_total{cache="spectra"}`)
	rowLookups := rowHits + d(`tvg_engine_cache_misses_total{cache="metrics"}`) + d(`tvg_engine_cache_misses_total{cache="spectra"}`) +
		d(`tvg_engine_cache_coalesced_total{cache="metrics"}`) + d(`tvg_engine_cache_coalesced_total{cache="spectra"}`)
	advances, colds := d("tvg_engine_checkpoint_advances_total"), d("tvg_engine_checkpoint_cold_builds_total")
	blocks := d("tvg_sweep_blocks_total")

	var lag sample
	if p.openLoop {
		lag = generatorLag(w.runs)
	}
	hits := both(ts.self, "engine.Metrics/hit", "engine.Spectrum/hit")
	sweeps := both(ts.self, "engine.Metrics/miss", "engine.Spectrum/miss")
	advancesT := both(ts.self, "engine.Metrics/advance", "engine.Spectrum/advance")
	coldsT := both(ts.self, "engine.Metrics/cold", "engine.Spectrum/cold")
	waits := ts.dur["store.durable_wait"]
	return []metric{
		m("http.decode_us", "us", us(ts.dur["http.decode"]), len(ts.dur["http.decode"])),
		m("http.encode_us", "us", us(ts.dur["http.encode"]), len(ts.dur["http.encode"])),
		m("http.resp_bytes", "B", ts.n["http.encode"].mean(), len(ts.n["http.encode"])),
		m("engine.schedule_hit_ratio", "ratio", ratio(schedHits, schedLookups), int(schedLookups)),
		m("engine.rows_hit_ratio", "ratio", ratio(rowHits, rowLookups), int(rowLookups)),
		m("engine.lookup_us", "us", us(hits), len(hits)),
		m("engine.coalesced", "count/1k_req", per1k(d("tvg_engine_cache_coalesced_total")), 0),
		m("engine.evictions", "count/1k_req", per1k(d("tvg_engine_cache_evictions_total")), 0),
		m("engine.cache_mb", "MB", w.after["tvg_engine_cache_budget_used_bytes"]/(1<<20), 0),
		m("engine.ingest_self_us", "us", us(ts.self["engine.Ingest"]), len(ts.self["engine.Ingest"])),
		m("engine.checkpoint_advance_ratio", "ratio", ratio(advances, advances+colds), int(advances+colds)),
		m("engine.checkpoint_evictions", "count/1k_reads", ratio(1000*d("tvg_engine_checkpoint_evictions_total"), float64(len(read))), 0),
		m("gen.build_ms", "ms", ms(ts.dur["engine.ContactSet/miss"]), len(ts.dur["engine.ContactSet/miss"])),
		m("gen.contacts_per_build", "count", ts.n["engine.ContactSet/miss"].mean(), len(ts.n["engine.ContactSet/miss"])),
		m("journey.sweep_ms", "ms", ms(sweeps), len(sweeps)),
		m("journey.contacts_per_block", "count", ratio(d("tvg_sweep_contacts_total"), blocks), int(blocks)),
		m("journey.early_exit_ratio", "ratio", ratio(d("tvg_sweep_early_exits_total"), blocks), int(blocks)),
		m("journey.search_us", "us", us(ts.self["engine.Journey"]), len(ts.self["engine.Journey"])),
		m("journey.advance_ms", "ms", ms(advancesT), len(advancesT)),
		m("journey.cold_checkpoint_ms", "ms", ms(coldsT), len(coldsT)),
		m("dtn.flood_ms", "ms", ms(ts.self["engine.Run"]), len(ts.self["engine.Run"])),
		m("store.log_us", "us", us(ts.dur["store.log"]), len(ts.dur["store.log"])),
		pct("store.durable_wait_p50_us", waits, 50, 1e3),
		pct("store.durable_wait_p99_us", waits, 99, 1e3),
		m("store.wal_bytes_per_contact", "B/contact", tr.walPerCt, 0),
		m("store.compactions", "count", d("tvg_store_compactions_total"), 0),
		m("store.snapshots_written", "count", d("tvg_store_snapshots_written_total"), 0),
		m("store.segments_pruned", "count", d("tvg_store_segments_pruned_total"), 0),
		m("store.recovery_ms", "ms", tr.opens.p(50)/1e6, len(tr.opens)),
		m("store.replayed_records", "count", tr.replayed, 0),
		m("runtime.gc_per_1k_req", "count/1k_req", per1k(d("go_gc_cycles_total")), 0),
		pct("ingest_p50_ms", ingest, 50, 1),
		pct("ingest_p99_ms", ingest, 99, 1),
		pct("read_p50_ms", read, 50, 1),
		pct("read_p99_ms", read, 99, 1),
		pct("loadgen.lag_p99_ms", lag, 99, 1),
		m("loadgen.cpu_share", "ratio", ratio(float64(w.selfCPU), float64(w.wall)), 0),
		m("trace.unattributed_share", "ratio", ratio(ts.reqSelf.mean(), ts.reqDur.mean()), len(ts.reqDur)),
		m("trace.gap_ms", "ms", all.p(50)-ts.reqDur.p(50)/1e6, len(all)),
	}
}
