// Command perfbench is the repository's end-to-end benchmark. It builds
// cmd/tvgserve, runs one seeded workload against the real binary over
// loopback HTTP from a single load-generating process, checks every
// answer, always reaps the server, and prints the metrics BENCHMARK.json
// names: the end-to-end metrics with -trace 0, the per-layer metrics
// (from a traced in-process replay of the same requests plus the server's
// /statusz counts) with -trace 1. See README.md.
//
//	perfbench -root . -workload spec-cold -seed 1 -seconds 30 -trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	root, workload string
	seed           int64
	seconds        int
	trace          bool
}

// runLimit bounds a whole invocation, so that even a wedged server is
// reaped and the process exits well within three minutes.
const runLimit = 150 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root (holds go.mod and cmd/tvgserve)")
	workload := fs.String("workload", "", "workload: spec-cold, spec-hot or live-ingest")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measurement window in seconds (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 = print the per-layer metrics of a traced replay instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	cfg := config{root: *root, workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}

	// The load generator uses at most nproc threads.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	life, err := newLifecycle(filepath.Join(cfg.root, ".bench_build", "tmp"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := guarded(func() (*result, error) { return bench(ctx, life, cfg) })
	if cerr := life.close(); cerr != nil {
		err = errors.Join(err, cerr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stderr)
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.wrong == 0 && res.attempted > res.failed, res.attempted, res.failed, map[string]jsonMetric{}}
	for _, m := range res.reported(cfg.trace) {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// guarded runs f, turning a panic on this goroutine into an error so the
// caller still reaps the children.
func guarded(f func() (*result, error)) (res *result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
	}()
	return f()
}

// metric is one named measurement; n is its sample count (0 if not a
// sample statistic) and thin marks a percentile with fewer than minBeyond
// samples beyond it.
type metric struct {
	name, unit string
	value      float64
	n          int
	thin       bool
}

// result is everything one invocation measured.
type result struct {
	cfg                      config
	attempted, failed, wrong int
	e2e, layer               []metric
	notes                    []string
}

// reported is what the JSON line carries.
func (r *result) reported(trace bool) []metric {
	if trace {
		return r.layer
	}
	return r.e2e
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench: workload %s, seed %d, window %ds: %d attempted, %d failed, %d wrong answers\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.attempted, r.failed, r.wrong)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, group := range [][]metric{r.e2e, r.layer} {
		for _, m := range group {
			samples := ""
			if m.n > 0 {
				samples = fmt.Sprintf("n=%d", m.n)
			}
			if m.thin {
				samples += ", fewer than 10 beyond"
			}
			fmt.Fprintf(w, "  %-32s %16.4f %-14s %s\n", m.name, m.value, m.unit, samples)
		}
	}
}

// setupRuns is how many times a run starts the server (and, on spec-hot,
// warms it) to report the median set-up time; the last start serves the
// window.
const setupRuns = 5

// sampleSize is how many served answers are recomputed in-process and
// compared field for field.
const sampleSize = 32

func bench(ctx context.Context, life *lifecycle, cfg config) (*result, error) {
	window := time.Duration(cfg.seconds) * time.Second
	p, err := newPlan(cfg.workload, cfg.seed, window)
	if err != nil {
		return nil, err
	}
	bin, err := buildServer(ctx, life, cfg.root)
	if err != nil {
		return nil, err
	}
	var prefilled string
	if len(p.streams) > 0 {
		if prefilled, err = life.tempDir("prefill-"); err != nil {
			return nil, err
		}
		if err := prefill(prefilled, p.streams); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}

	var setups sample
	var srv *server
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop(drainGrace)
		}
		args := append([]string(nil), p.serverArgs...)
		if prefilled != "" {
			dir, err := life.tempDir("data-")
			if err != nil {
				return nil, err
			}
			if err := copyDir(prefilled, dir); err != nil {
				return nil, err
			}
			args = append(args, "-data-dir", dir)
		}
		s, ready, err := startServer(ctx, life, bin, args)
		if err != nil {
			return nil, err
		}
		srv = s
		if len(p.warm) > 0 {
			t := time.Now()
			if err := warmUp(ctx, s.base, p); err != nil {
				return nil, err
			}
			ready += time.Since(t)
		}
		setups = append(setups, ready.Seconds())
	}

	w, err := measure(ctx, srv, p, window)
	srv.stop(drainGrace)
	if err != nil {
		return nil, err
	}
	for c, run := range w.runs {
		if !p.openLoop && len(run.outs) == len(p.seq[c]) {
			return nil, fmt.Errorf("client %d sent all %d planned requests before the window ended", c, len(run.outs))
		}
	}
	w.serverCPU = srv.cpuTotal() - w.cpu0

	res := &result{cfg: cfg}
	wrong := map[int32]string{}
	served := map[int32][]byte{}
	n := make([]int, clients)
	for c, run := range w.runs {
		n[c] = len(run.outs)
		for ri, body := range run.answers {
			if prev, ok := served[ri]; ok && !bytes.Equal(prev, body) {
				wrong[ri] = "the two clients got different answers to the same request"
			}
			served[ri] = body
			if err := checkAnswer(p.reqs[ri].path, body); err != nil {
				wrong[ri] = err.Error()
			}
		}
	}
	keep := pickSample(cfg.seed, served)

	// The sampled answers are recomputed in-process: by the traced replay
	// when tracing, otherwise by an untraced replay of just the sample
	// (and the ingests it depends on) on a memory-only engine.
	var rp *replay
	var tr *tracedRun
	if cfg.trace {
		if tr, err = runTraced(ctx, life, p, prefilled, n, keep); err != nil {
			return nil, err
		}
		rp = tr.replay
	} else if rp, err = verifySample(ctx, life, p, prefilled, n, keep); err != nil {
		return nil, err
	}
	for ri := range keep {
		got, ok := rp.answers[ri]
		switch {
		case rp.errs[ri] != "":
			wrong[ri] = "in-process replay failed: " + rp.errs[ri]
		case !ok:
			wrong[ri] = "in-process replay produced no answer"
		default:
			if err := sameAnswer(served[ri], got); err != nil {
				wrong[ri] = "served answer differs from the in-process replay: " + err.Error()
			}
		}
	}
	for ri, e := range rp.errs {
		if _, ok := served[ri]; ok {
			wrong[ri] = "in-process replay failed: " + e
		}
	}

	for _, run := range w.runs {
		for i := range run.outs {
			o := &run.outs[i]
			res.attempted++
			if !o.ok() || wrong[o.req] != "" {
				res.failed++
			}
		}
	}
	res.wrong = len(wrong)
	for ri, e := range wrong {
		if len(res.notes) < 5 {
			res.notes = append(res.notes, fmt.Sprintf("wrong answer to request %d (%s): %s", ri, p.reqs[ri].path, e))
		}
	}
	for _, run := range w.runs {
		for _, o := range run.outs {
			if o.err != "" && len(res.notes) < 10 {
				res.notes = append(res.notes, fmt.Sprintf("failed request %d (%s): %s", o.req, p.reqs[o.req].path, o.err))
			}
		}
	}

	res.e2e = endToEnd(p, w, setups, wrong)
	if _, _, _, ok := latencies(p, w, wrong); ok > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d successful requests: p%g is the highest percentile with ten samples beyond it", ok, highestSupported(ok)))
	}
	if tr != nil {
		res.layer = perLayer(p, w, tr, wrong)
		res.notes = append(res.notes, "spans written to "+tr.spansPath)
	}
	return res, nil
}

// warmUp sends each warm-up request once and requires a 2xx.
func warmUp(ctx context.Context, base string, p *plan) error {
	send, closeIdle := httpSender(base)
	defer closeIdle()
	for _, ri := range p.warm {
		status, body, err := send(ctx, &p.reqs[ri])
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if status != 200 {
			return fmt.Errorf("warm-up: status %d: %.200s", status, body)
		}
	}
	return nil
}

// windowRun is what the untraced window measured.
type windowRun struct {
	runs          []clientRun
	wall          time.Duration // window start to the last answer
	before, after varz
	cpu0          time.Duration // server CPU when the window opened
	serverCPU     time.Duration // server CPU spent from then to its exit
	selfCPU       time.Duration // load generator CPU in the window
	rss           int64         // server VmHWM at the end of the window
}

// measure runs the untraced window against srv. /statusz is read only
// before and after it.
func measure(ctx context.Context, srv *server, p *plan, window time.Duration) (*windowRun, error) {
	w := &windowRun{}
	var err error
	if w.before, err = srv.statusz(ctx); err != nil {
		return nil, err
	}
	pid := srv.cmd.Process.Pid
	if w.cpu0, err = procCPU(pid); err != nil {
		return nil, err
	}
	senders := make([]sender, clients)
	for c := range senders {
		send, closeIdle := httpSender(srv.base)
		defer closeIdle()
		senders[c] = send
	}
	self0 := selfCPU()
	start := time.Now()
	if w.runs, err = runClients(ctx, p, senders, start, window); err != nil {
		return nil, err
	}
	for _, run := range w.runs {
		for _, o := range run.outs {
			w.wall = max(w.wall, o.done)
		}
	}
	w.selfCPU = selfCPU() - self0
	if w.rss, err = peakRSS(pid); err != nil {
		return nil, err
	}
	if w.after, err = srv.statusz(ctx); err != nil {
		return nil, err
	}
	return w, nil
}

// pickSample draws up to sampleSize served requests, seeded.
func pickSample(seed int64, served map[int32][]byte) map[int32]bool {
	ids := make([]int32, 0, len(served))
	for ri := range served {
		ids = append(ids, ri)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	keep := map[int32]bool{}
	for _, ri := range ids[:min(sampleSize, len(ids))] {
		keep[ri] = true
	}
	return keep
}
