package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"tvgwait/internal/dtn"
	"tvgwait/internal/tvg"
)

func markovSpec() ScenarioSpec {
	return ScenarioSpec{
		Graph: GraphSpec{
			Model: "markov", Nodes: 16, Birth: 0.03, Death: 0.5, Horizon: 60,
		},
		Modes:      []string{"nowait", "wait:2", "wait:8", "wait"},
		Messages:   20,
		Replicates: 3,
		Seed:       2012,
	}
}

func mustRun(t *testing.T, e *Engine, spec ScenarioSpec) *Report {
	t.Helper()
	rep, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run(%+v): %v", spec, err)
	}
	return rep
}

// TestParallelMatchesSequential is the engine's core guarantee: a run at
// any worker count yields a byte-identical report to the sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	for _, model := range []string{"markov", "bernoulli", "mobility"} {
		t.Run(model, func(t *testing.T) {
			spec := markovSpec()
			spec.Graph.Model = model
			spec.Graph.P = 0.1
			spec.Graph.Width, spec.Graph.Height = 4, 4

			seq := spec
			seq.Workers = 1
			par := spec
			par.Workers = 8

			// Distinct engines so the parallel run cannot borrow the
			// sequential run's cache.
			seqJSON, err := json.Marshal(mustRun(t, New(Options{}), seq))
			if err != nil {
				t.Fatal(err)
			}
			parJSON, err := json.Marshal(mustRun(t, New(Options{}), par))
			if err != nil {
				t.Fatal(err)
			}
			if string(seqJSON) != string(parJSON) {
				t.Errorf("workers=8 report differs from workers=1:\nseq: %s\npar: %s", seqJSON, parJSON)
			}
		})
	}
}

// TestBroadcastParallelMatchesSequential repeats the guarantee for the
// broadcast path.
func TestBroadcastParallelMatchesSequential(t *testing.T) {
	src := tvg.Node(0)
	spec := markovSpec()
	spec.Broadcast = &src

	seq := spec
	seq.Workers = 1
	par := spec
	par.Workers = 8
	seqJSON, _ := json.Marshal(mustRun(t, New(Options{}), seq))
	parJSON, _ := json.Marshal(mustRun(t, New(Options{}), par))
	if string(seqJSON) != string(parJSON) {
		t.Errorf("broadcast workers=8 differs from workers=1:\nseq: %s\npar: %s", seqJSON, parJSON)
	}
	rep := mustRun(t, New(Options{}), spec)
	if len(rep.Broadcast) != 4 || len(rep.Unicast) != 0 {
		t.Errorf("broadcast report shape wrong: %+v", rep)
	}
	for _, br := range rep.Broadcast {
		if br.MinRatio > br.MeanRatio || br.MeanRatio > br.MaxRatio {
			t.Errorf("ratio ordering violated: %+v", br)
		}
	}
}

// TestCrossCheck runs a batch with the built-in dtn.Simulate ↔ journey
// search validation enabled: every simulated delivery must match the
// existence and foremost arrival of a feasible journey.
func TestCrossCheck(t *testing.T) {
	spec := markovSpec()
	spec.CrossCheck = true
	mustRun(t, New(Options{}), spec)

	spec.Graph.Model = "mobility"
	spec.Graph.Width, spec.Graph.Height = 4, 4
	mustRun(t, New(Options{}), spec)
}

// TestReplicateZeroMatchesDtnSweep pins the compatibility contract:
// replicate 0 reproduces dtn.Sweep's workload and rows for the same seed.
func TestReplicateZeroMatchesDtnSweep(t *testing.T) {
	spec := markovSpec()
	spec.Replicates = 1
	e := New(Options{})
	rep := mustRun(t, e, spec)

	g, err := spec.Graph.Build(spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tvg.Compile(g, spec.Graph.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	modes, err := ParseModes(spec.Modes)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dtn.Sweep(c, modes, spec.Messages, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(rep.SweepRows())
	want := fmt.Sprint(rows)
	if got != want {
		t.Errorf("engine rows != dtn.Sweep rows:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestModeParsing(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"nowait", "nowait", true},
		{"wait", "wait", true},
		{"wait:3", "wait[3]", true},
		{"wait[3]", "wait[3]", true},
		{"wait:-1", "", false},
		{"wait[x]", "", false},
		{"bogus", "", false},
	}
	for _, c := range cases {
		m, err := ParseMode(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseMode(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && m.String() != c.want {
			t.Errorf("ParseMode(%q) = %s, want %s", c.in, m, c.want)
		}
	}
	if _, err := ParseModeList(""); err == nil {
		t.Error("empty mode list should fail")
	}
	modes, err := ParseModeList("nowait, wait:3 ,wait")
	if err != nil || len(modes) != 3 || modes[1].String() != "wait[3]" {
		t.Errorf("ParseModeList = %v, %v", modes, err)
	}
	round, err := ParseModes(ModeStrings(modes))
	if err != nil || fmt.Sprint(round) != fmt.Sprint(modes) {
		t.Errorf("ModeStrings round-trip = %v, %v", round, err)
	}
}

func TestSpecValidation(t *testing.T) {
	e := New(Options{})
	bad := []ScenarioSpec{
		{Graph: GraphSpec{Model: "bogus", Nodes: 8, Horizon: 10}},
		{Graph: GraphSpec{Model: "markov", Nodes: 1, Horizon: 10}},
		{Graph: GraphSpec{Model: "markov", Nodes: 8, Horizon: -1}},
		{Graph: GraphSpec{Model: "markov", Nodes: 8, Horizon: 10}, Modes: []string{"bogus"}},
		{Graph: GraphSpec{Model: "markov", Nodes: 8, Horizon: 10}, Messages: -1},
		{Graph: GraphSpec{Model: "markov", Nodes: 8, Horizon: 10}, Replicates: maxReplicates + 1},
		{Graph: GraphSpec{Model: "markov", Nodes: 8, Horizon: 10}, Broadcast: func() *tvg.Node { n := tvg.Node(99); return &n }()},
		{Graph: GraphSpec{Model: "markov", Nodes: 8, Birth: 1.5, Death: 0.5, Horizon: 10}},
		{Graph: GraphSpec{Model: "bernoulli", Nodes: 8, P: -0.1, Horizon: 10}},
		{Graph: GraphSpec{Model: "markov", Nodes: 4096, Birth: 0.1, Death: 0.5, Horizon: 1000}},
		{Graph: GraphSpec{Model: "markov", Nodes: 8, Horizon: 10}, Messages: maxMessages, Replicates: 100, Modes: []string{"nowait", "wait"}},
	}
	for i, spec := range bad {
		if _, err := e.Run(context.Background(), spec); err == nil {
			t.Errorf("case %d: spec %+v should fail", i, spec)
		}
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := markovSpec()
	if _, err := New(Options{}).Run(ctx, spec); err == nil {
		t.Error("cancelled run should fail")
	}
}

func TestScheduleCache(t *testing.T) {
	e := New(Options{CacheSize: 2})
	spec := markovSpec()
	spec.Replicates = 1
	mustRun(t, e, spec)
	if got := e.cache.len(); got != 1 {
		t.Errorf("cache holds %d entries, want 1", got)
	}
	c1, err := e.ContactSet(spec.Graph, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.ContactSet(spec.Graph, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("cache miss on identical spec")
	}
	// Distinct seeds evict the oldest entry beyond capacity.
	for seed := int64(10); seed < 13; seed++ {
		if _, err := e.ContactSet(spec.Graph, seed); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.cache.len(); got != 2 {
		t.Errorf("cache holds %d entries, want capacity 2", got)
	}
}

func TestJourneyRequest(t *testing.T) {
	e := New(Options{})
	graph := GraphSpec{Model: "markov", Nodes: 12, Birth: 0.05, Death: 0.4, Horizon: 80}
	for _, kind := range []string{"foremost", "minhop", "fastest"} {
		rep, err := e.Journey(context.Background(), JourneyRequest{
			Graph: graph, Seed: 7, Mode: "wait", Kind: kind, Src: 0, Dst: 5,
		})
		if err != nil {
			t.Fatalf("journey %s: %v", kind, err)
		}
		if rep.Kind != kind || !rep.Found {
			t.Errorf("journey %s: %+v", kind, rep)
		}
		if rep.Found && (rep.Arrival < rep.Departure || rep.Hops < 1) {
			t.Errorf("journey %s inconsistent: %+v", kind, rep)
		}
	}
	// src == dst: trivially found with zero hops.
	rep, err := e.Journey(context.Background(), JourneyRequest{
		Graph: graph, Seed: 7, Mode: "nowait", Src: 3, Dst: 3, T0: 5,
	})
	if err != nil || !rep.Found || rep.Hops != 0 || rep.Arrival != 5 {
		t.Errorf("self journey = %+v, %v", rep, err)
	}
	// Validation failures.
	for _, req := range []JourneyRequest{
		{Graph: graph, Mode: "bogus", Src: 0, Dst: 1},
		{Graph: graph, Mode: "wait", Kind: "bogus", Src: 0, Dst: 1},
		{Graph: graph, Mode: "wait", Src: 0, Dst: 99},
		{Graph: graph, Mode: "wait", Src: 0, Dst: 1, T0: -1},
	} {
		if _, err := e.Journey(context.Background(), req); err == nil {
			t.Errorf("request %+v should fail", req)
		}
	}
}

// TestModePermissivenessOrdering checks the paper's inclusion chain on
// engine output: more waiting never hurts delivery.
func TestModePermissivenessOrdering(t *testing.T) {
	spec := markovSpec()
	spec.Modes = []string{"nowait", "wait:1", "wait:4", "wait"}
	rep := mustRun(t, New(Options{}), spec)
	for i := 1; i < len(rep.Unicast); i++ {
		if rep.Unicast[i].DeliveryRatio < rep.Unicast[i-1].DeliveryRatio {
			t.Errorf("delivery ratio decreased from %s (%.3f) to %s (%.3f)",
				rep.Unicast[i-1].Mode, rep.Unicast[i-1].DeliveryRatio,
				rep.Unicast[i].Mode, rep.Unicast[i].DeliveryRatio)
		}
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}}
	for _, c := range cases {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(%.2f) = %g, want %g", c.q, got, c.want)
		}
	}
	if quantile[float64](nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestStreamSeparation(t *testing.T) {
	if graphSeed(1, 0) != 1 || workloadSeed(1, 0) != 1 {
		t.Error("replicate 0 must use the base seed unchanged")
	}
	seen := map[int64]bool{}
	for rep := 1; rep < 100; rep++ {
		for _, s := range []int64{graphSeed(1, rep), workloadSeed(1, rep)} {
			if seen[s] {
				t.Fatalf("seed collision at replicate %d", rep)
			}
			seen[s] = true
		}
	}
}

// TestSkipSamplingSpec covers the SkipSampling plumbing: the flag is
// part of the schedule-cache key (the two settings draw different RNG
// streams), runs are deterministic under it, and Build/BuildContacts
// stay consistent with each other for both settings.
func TestSkipSamplingSpec(t *testing.T) {
	g := GraphSpec{Model: "markov", Nodes: 16, Birth: 0.02, Death: 0.5, Horizon: 80}
	skip := g
	skip.SkipSampling = true
	if g.key(1) == skip.key(1) {
		t.Fatal("SkipSampling must be part of the schedule-cache key")
	}

	for _, spec := range []GraphSpec{g, skip} {
		graph, err := spec.Build(3)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := tvg.Compile(graph, spec.Horizon)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := spec.BuildContacts(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if direct.NumContacts() != compiled.NumContacts() ||
			!reflect.DeepEqual(direct.Contacts(), compiled.Contacts()) {
			t.Fatalf("skip=%v: BuildContacts disagrees with Build+Compile", spec.SkipSampling)
		}
	}

	// Same spec, same seed → byte-identical reports, as for every spec.
	run := func() *Report {
		rep, err := New(Options{}).Run(context.Background(), ScenarioSpec{
			Graph: skip, Messages: 20, Replicates: 3, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("SkipSampling runs must stay deterministic in the spec seed")
	}
}
