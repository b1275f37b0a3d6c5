// Command benchjson converts `go test -bench -benchmem` text output into
// the JSON benchmark ledgers committed as BENCH_contactset.json and
// BENCH_multisource.json, so the perf trajectory of the contact-set and
// multi-source cores is tracked across PRs.
//
// Usage:
//
//	go test -bench=. -benchmem ./internal/... | go run ./scripts/benchjson -label after > BENCH.json
//	... | go run ./scripts/benchjson -label seed -in BENCH.json > BENCH.json.new
//	... | go run ./scripts/benchjson -compare BENCH.json -tolerance 25
//
// Lines that are not benchmark results (pkg headers aside, which scope
// the entries) are ignored, so the raw `go test` stream can be piped in
// unfiltered. -in merges previously captured entries first, letting one
// ledger accumulate phases (e.g. the pre-refactor seed numbers next to
// the current ones).
//
// With -compare the parsed entries are checked against a committed
// ledger instead of printed: each fresh benchmark is matched by name to
// the most recent ledger entry of the same name (so multi-phase ledgers
// compare against their newest phase), and the command exits non-zero
// if any fresh ns/op regresses by more than -tolerance percent — the CI
// regression gate for the bench ledgers. Benchmarks missing from the
// ledger are reported (NEW) but do not fail the gate on their own; a
// run in which NO fresh benchmark matches a ledger name fails, so a
// renamed suite cannot silently drop out of CI.
//
// -rebaseline is -compare corrected for host drift. Committed absolute
// numbers move when the hardware under CI does (a container re-run at
// the very commit that produced a ledger can miss its own numbers), so
// the rebaseline gate re-anchors the committed baseline in the same
// run: pipe in several interleaved repetitions (`go test -count=3` or
// higher — interleaving spreads thermal and noisy-neighbor drift over
// every benchmark alike), and benchjson takes the best sample per
// benchmark, computes the suite's median fresh/committed ratio, and
// gates each benchmark against its committed value scaled by that
// ratio. Uniform host drift divides out; only a benchmark that moved
// relative to its peers can fail. Each ledger entry also records a
// host fingerprint so like-for-like comparisons are auditable.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement.
type Entry struct {
	Label       string  `json:"label,omitempty"`
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Host        string  `json:"host,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Ledger is the file format of BENCH_contactset.json.
type Ledger struct {
	Note    string  `json:"note,omitempty"`
	Entries []Entry `json:"entries"`
}

func main() {
	label := flag.String("label", "", "label recorded on every parsed entry (e.g. seed, contactset)")
	in := flag.String("in", "", "existing ledger to merge entries from")
	note := flag.String("note", "", "free-form note stored in the ledger")
	compare := flag.String("compare", "", "committed ledger to compare the parsed entries against (exit 1 on regression)")
	rebaseline := flag.String("rebaseline", "", "like -compare, but gate against the committed values scaled by the suite's median fresh/committed ratio (divides out uniform host drift; feed interleaved -count>=3 samples)")
	tolerance := flag.Float64("tolerance", 25, "allowed ns/op regression in percent for -compare/-rebaseline")
	flag.Parse()

	if *compare != "" && *rebaseline != "" {
		fatal(fmt.Errorf("-compare and -rebaseline are mutually exclusive"))
	}

	var ledger Ledger
	if *in != "" {
		data, err := os.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(data, &ledger); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *in, err))
		}
	}
	if *note != "" {
		ledger.Note = *note
	}

	host := hostFingerprint()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	var fresh []Entry
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		e, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		e.Label = *label
		e.Pkg = pkg
		e.Host = host
		fresh = append(fresh, e)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	ledger.Entries = append(ledger.Entries, fresh...)

	if *compare != "" {
		if !runCompare(os.Stdout, *compare, readLedger(*compare), fresh, *tolerance) {
			os.Exit(1)
		}
		return
	}
	if *rebaseline != "" {
		if !runRebaseline(os.Stdout, *rebaseline, readLedger(*rebaseline), fresh, *tolerance) {
			os.Exit(1)
		}
		return
	}

	out, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// readLedger loads the committed ledger at path.
func readLedger(path string) Ledger {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", path, err))
	}
	return l
}

// baselines indexes a ledger by benchmark name. When a name occurs
// several times (multi-phase history), the last — most recently
// appended — entry is the baseline.
func baselines(l Ledger) map[string]Entry {
	m := make(map[string]Entry, len(l.Entries))
	for _, e := range l.Entries {
		m[trimProcSuffix(e.Name)] = e // later entries win
	}
	return m
}

// noMatch reports the failure shared by both gates: fresh results, none
// of them named in the ledger — a renamed or missing suite, which would
// otherwise pass as all-NEW.
func noMatch(w io.Writer, path string) bool {
	fmt.Fprintf(w, "benchjson: no fresh benchmark matches a name in %s (renamed or missing?)\n", path)
	return false
}

// runCompare checks fresh entries against the committed ledger old
// (read from path) and writes one verdict line per benchmark to w. It
// returns false if stdin held no results, if no result matches a
// ledger name, or if any matched benchmark's ns/op exceeds its ledger
// value by more than tolerance percent.
func runCompare(w io.Writer, path string, old Ledger, fresh []Entry, tolerance float64) bool {
	if len(fresh) == 0 {
		fmt.Fprintf(w, "benchjson: no benchmark results on stdin to compare against %s\n", path)
		return false
	}
	baseline := baselines(old)
	ok, matched := true, 0
	for _, e := range fresh {
		base, found := baseline[trimProcSuffix(e.Name)]
		if !found {
			fmt.Fprintf(w, "NEW        %-60s %12.0f ns/op (not in %s)\n", e.Name, e.NsPerOp, path)
			continue
		}
		matched++
		delta := 100 * (e.NsPerOp - base.NsPerOp) / base.NsPerOp
		verdict := "OK"
		if delta > tolerance {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-10s %-60s %12.0f ns/op vs %12.0f (%+.1f%%, tolerance %.0f%%)\n",
			verdict, e.Name, e.NsPerOp, base.NsPerOp, delta, tolerance)
	}
	if matched == 0 {
		return noMatch(w, path)
	}
	if !ok {
		fmt.Fprintf(w, "benchjson: regression above %.0f%% against %s\n", tolerance, path)
	}
	return ok
}

// runRebaseline gates like runCompare, but first divides out uniform
// host drift: fresh samples (interleaved `go test -count=N` output) are
// reduced to the best ns/op per benchmark, the median fresh/committed
// ratio across every matched benchmark becomes the drift factor, and
// each benchmark is then judged against its committed value scaled by
// that factor. A container that is uniformly 1.4× slower than the one
// that wrote the ledger passes untouched; a benchmark that regressed
// relative to its peers still fails. With fewer than three matched
// benchmarks the median has little to hide behind — keep suites that
// use this gate at least that wide. Like runCompare, it fails when no
// fresh benchmark matches a ledger name (there is then no drift to
// measure either).
func runRebaseline(w io.Writer, path string, old Ledger, fresh []Entry, tolerance float64) bool {
	if len(fresh) == 0 {
		fmt.Fprintf(w, "benchjson: no benchmark results on stdin to rebaseline against %s\n", path)
		return false
	}
	baseline := baselines(old)

	// Best sample per benchmark across the interleaved repetitions.
	best := make(map[string]Entry, len(fresh))
	var order []string
	for _, e := range fresh {
		name := trimProcSuffix(e.Name)
		cur, seen := best[name]
		if !seen {
			order = append(order, name)
		}
		if !seen || e.NsPerOp < cur.NsPerOp {
			best[name] = e
		}
	}

	var ratios []float64
	for _, name := range order {
		if base, found := baseline[name]; found && base.NsPerOp > 0 {
			ratios = append(ratios, best[name].NsPerOp/base.NsPerOp)
		}
	}
	if len(ratios) == 0 {
		return noMatch(w, path)
	}
	drift := median(ratios)
	fmt.Fprintf(w, "benchjson: rebaseline host drift x%.3f (median of %d benchmarks, host %q)\n",
		drift, len(ratios), hostFingerprint())

	ok := true
	for _, name := range order {
		e := best[name]
		base, found := baseline[name]
		if !found {
			fmt.Fprintf(w, "NEW        %-60s %12.0f ns/op (not in %s)\n", e.Name, e.NsPerOp, path)
			continue
		}
		rebased := base.NsPerOp * drift
		delta := 100 * (e.NsPerOp - rebased) / rebased
		verdict := "OK"
		if delta > tolerance {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-10s %-60s %12.0f ns/op vs %12.0f rebased (%+.1f%%, tolerance %.0f%%)\n",
			verdict, e.Name, e.NsPerOp, rebased, delta, tolerance)
	}
	if !ok {
		fmt.Fprintf(w, "benchjson: regression above %.0f%% against rebased %s\n", tolerance, path)
	}
	return ok
}

// median returns the median of xs (the mean of the middle two for an
// even count), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := xs[len(xs)/2]
	if len(xs)%2 == 0 {
		m = (xs[len(xs)/2-1] + m) / 2
	}
	return m
}

// hostFingerprint identifies the measuring machine well enough to tell
// whether two ledger entries are comparable like-for-like: platform,
// logical CPU count, and (best-effort) the CPU model.
func hostFingerprint() string {
	fp := fmt.Sprintf("%s/%s ncpu=%d", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	if model := cpuModel(); model != "" {
		fp += " " + model
	}
	return fp
}

// cpuModel reads the first "model name" from /proc/cpuinfo; empty on
// platforms without it — the fingerprint degrades, never fails.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(rest, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// trimProcSuffix drops the trailing -<GOMAXPROCS> that `go test`
// appends to benchmark names on multi-core hosts, so ledgers recorded
// on machines with different core counts still match by name.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseBenchLine parses one `Benchmark... N ns/op [B/op allocs/op]` line.
func parseBenchLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if e.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Entry{}, false
			}
		case "B/op":
			if e.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Entry{}, false
			}
		case "allocs/op":
			if e.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Entry{}, false
			}
		}
	}
	if e.NsPerOp == 0 && e.BytesPerOp == 0 && e.AllocsPerOp == 0 {
		return Entry{}, false
	}
	return e, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
