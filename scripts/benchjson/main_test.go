package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line string
		ok   bool
		want Entry
	}{
		{"BenchmarkAllForemost256-2   \t     500\t   2401234 ns/op", true,
			Entry{Name: "BenchmarkAllForemost256-2", Iterations: 500, NsPerOp: 2401234}},
		{"BenchmarkAllForemost256-2 500 2401234 ns/op 65904 B/op 5 allocs/op", true,
			Entry{Name: "BenchmarkAllForemost256-2", Iterations: 500, NsPerOp: 2401234, BytesPerOp: 65904, AllocsPerOp: 5}},
		// Extra b.ReportMetric units are skipped, not misread.
		{"BenchmarkServeOverload-2 1 31000000000 ns/op 950.0 shed_permille 12.5 p99_ms 64 B/op 1 allocs/op", true,
			Entry{Name: "BenchmarkServeOverload-2", Iterations: 1, NsPerOp: 31000000000, BytesPerOp: 64, AllocsPerOp: 1}},
		{"BenchmarkWidthAllForemost1024/w4-2 5 21.5 ns/op", true,
			Entry{Name: "BenchmarkWidthAllForemost1024/w4-2", Iterations: 5, NsPerOp: 21.5}},
		{"PASS", false, Entry{}},
		{"goos: linux", false, Entry{}},
		{"ok  \ttvgwait/internal/journey\t3.1s", false, Entry{}},
		{"--- FAIL: BenchmarkX-2", false, Entry{}},
		{"BenchmarkTemporalDiameter256/wait-2", false, Entry{}},        // name line of a failed run
		{"BenchmarkX-2 many 12 ns/op", false, Entry{}},                 // non-numeric iterations
		{"BenchmarkX-2 10 twelve ns/op", false, Entry{}},               // non-numeric ns/op
		{"BenchmarkX-2 10 0 ns/op 0 B/op 0 allocs/op", false, Entry{}}, // nothing measured
	}
	for _, tc := range cases {
		got, ok := parseBenchLine(tc.line)
		if ok != tc.ok || got != tc.want {
			t.Errorf("parseBenchLine(%q) = (%+v, %v), want (%+v, %v)", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}

func TestTrimProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkAllForemost256-2":          "BenchmarkAllForemost256",
		"BenchmarkAllForemost256-128":        "BenchmarkAllForemost256",
		"BenchmarkAllForemost256":            "BenchmarkAllForemost256",
		"BenchmarkWidthAllForemost1024/w4-8": "BenchmarkWidthAllForemost1024/w4",
		"BenchmarkWaitSpectrumRungs/k=1":     "BenchmarkWaitSpectrumRungs/k=1",
		"BenchmarkMix/read-only":             "BenchmarkMix/read-only",
	} {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// ledgerOf builds a committed ledger from (name, ns/op) pairs, in
// append order.
func ledgerOf(pairs ...any) Ledger {
	var l Ledger
	for i := 0; i < len(pairs); i += 2 {
		l.Entries = append(l.Entries, Entry{Name: pairs[i].(string), NsPerOp: pairs[i+1].(float64)})
	}
	return l
}

// freshOf builds parsed fresh results from (name, ns/op) pairs.
func freshOf(pairs ...any) []Entry {
	return ledgerOf(pairs...).Entries
}

func TestCompareLaterEntryWins(t *testing.T) {
	// A multi-phase ledger: the seed phase (1000) and the newer phase
	// (100) under the same name, recorded on different core counts.
	old := ledgerOf("BenchmarkA-4", 1000.0, "BenchmarkA-2", 100.0)
	var out strings.Builder
	if runCompare(&out, "L.json", old, freshOf("BenchmarkA-2", 500.0), 25) {
		t.Fatalf("500 ns/op passed against the newest phase (100):\n%s", out.String())
	}
	if !runCompare(io.Discard, "L.json", old, freshOf("BenchmarkA-8", 110.0), 25) {
		t.Fatal("110 ns/op failed against the newest phase (100)")
	}
	if got := baselines(old)["BenchmarkA"].NsPerOp; got != 100 {
		t.Fatalf("baseline = %v, want the last entry (100)", got)
	}
}

func TestCompareToleranceBoundary(t *testing.T) {
	old := ledgerOf("BenchmarkA", 100.0, "BenchmarkB", 200.0)
	if !runCompare(io.Discard, "L.json", old, freshOf("BenchmarkA", 125.0, "BenchmarkB", 250.0), 25) {
		t.Fatal("exactly +25% failed a 25% tolerance")
	}
	if runCompare(io.Discard, "L.json", old, freshOf("BenchmarkA", 125.0, "BenchmarkB", 250.5), 25) {
		t.Fatal("+25.25% passed a 25% tolerance")
	}
	// A faster run always passes.
	if !runCompare(io.Discard, "L.json", old, freshOf("BenchmarkA", 10.0), 0) {
		t.Fatal("a speedup failed a 0% tolerance")
	}
}

func TestRebaselineEvenMedianDrift(t *testing.T) {
	// Four benchmarks, fresh/committed ratios 1.0, 1.2, 1.4, 3.0: the
	// drift is the mean of the middle two, 1.3. Interleaved repeats keep
	// the best sample per benchmark.
	old := ledgerOf("BenchmarkA", 100.0, "BenchmarkB", 100.0, "BenchmarkC", 100.0, "BenchmarkD", 100.0)
	fresh := freshOf(
		"BenchmarkA-2", 100.0, "BenchmarkB-2", 150.0, "BenchmarkC-2", 140.0, "BenchmarkD-2", 300.0,
		"BenchmarkA-2", 105.0, "BenchmarkB-2", 120.0, "BenchmarkC-2", 160.0, "BenchmarkD-2", 310.0,
	)
	var out strings.Builder
	ok := runRebaseline(&out, "L.json", old, fresh, 30)
	if !strings.Contains(out.String(), "drift x1.300 (median of 4 benchmarks") {
		t.Fatalf("drift line wrong:\n%s", out.String())
	}
	// D runs 300 against 130 rebased: +131%, the only regression.
	if ok || !strings.Contains(out.String(), "REGRESSION BenchmarkD-2") ||
		strings.Count(out.String(), "REGRESSION ") != 1 {
		t.Fatalf("want exactly D to regress:\n%s", out.String())
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median of an odd count = %v, want 3", got)
	}
}

// TestZeroMatchFails is the rename hole: fresh results of which none is
// named in the ledger used to print NEW and pass (exit 0) in both gate
// modes.
func TestZeroMatchFails(t *testing.T) {
	old := ledgerOf("BenchmarkAllForemost256", 2.4e6)
	renamed := freshOf("BenchmarkRenamedAllForemost256-2", 99999999.0)
	var out strings.Builder
	if runCompare(&out, "BENCH_multisource.json", old, renamed, 25) {
		t.Fatalf("-compare passed with no matching benchmark:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "NEW ") || !strings.Contains(out.String(), "no fresh benchmark matches") {
		t.Fatalf("-compare output lacks the NEW line or the zero-match verdict:\n%s", out.String())
	}
	out.Reset()
	if runRebaseline(&out, "BENCH_multisource.json", old, renamed, 25) {
		t.Fatalf("-rebaseline passed with no matching benchmark:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "no fresh benchmark matches") {
		t.Fatalf("-rebaseline output lacks the zero-match verdict:\n%s", out.String())
	}
	// One match among NEW names still gates normally.
	mixed := append(freshOf("BenchmarkAllForemost256-2", 2.5e6), renamed...)
	if !runCompare(io.Discard, "L.json", old, mixed, 25) {
		t.Fatal("-compare failed although one benchmark matched within tolerance")
	}
	// No results at all is a failure too.
	if runCompare(io.Discard, "L.json", old, nil, 25) || runRebaseline(io.Discard, "L.json", old, nil, 25) {
		t.Fatal("an empty fresh run passed a gate")
	}
}
