package gen

import (
	"math"
	"testing"

	"tvgwait/internal/tvg"
)

func TestEdgeMarkovianValidation(t *testing.T) {
	bad := []EdgeMarkovianParams{
		{Nodes: 1, PBirth: 0.5, PDeath: 0.5, Horizon: 10},
		{Nodes: 3, PBirth: -0.1, PDeath: 0.5, Horizon: 10},
		{Nodes: 3, PBirth: 0.5, PDeath: 1.5, Horizon: 10},
		{Nodes: 3, PBirth: 0.5, PDeath: 0.5, Horizon: -1},
		{Nodes: 3, PBirth: 0.5, PDeath: 0.5, Horizon: 5, Latency: -2},
		{Nodes: 3, PBirth: math.NaN(), PDeath: 0.5, Horizon: 10},
		{Nodes: 3, PBirth: 0.5, PDeath: math.NaN(), Horizon: 10, SkipSampling: true},
		{Nodes: 3, PBirth: math.Inf(1), PDeath: 0.5, Horizon: 10},
		{Nodes: 3, PBirth: 0.5, PDeath: math.Inf(-1), Horizon: 10},
	}
	for i, p := range bad {
		if _, err := EdgeMarkovianGraph(p); err == nil {
			t.Errorf("case %d should fail: %+v", i, p)
		}
		if _, err := EdgeMarkovian(p, nil); err == nil {
			t.Errorf("case %d should fail on the streaming path: %+v", i, p)
		}
	}
}

func TestEdgeMarkovianDeterminism(t *testing.T) {
	p := EdgeMarkovianParams{Nodes: 5, PBirth: 0.3, PDeath: 0.4, Horizon: 20, Seed: 42}
	g1, err := EdgeMarkovianGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := EdgeMarkovianGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
	for t1 := tvg.Time(0); t1 <= 20; t1++ {
		s1 := g1.SnapshotAt(t1)
		s2 := g2.SnapshotAt(t1)
		if len(s1) != len(s2) {
			t.Fatalf("same seed diverges at t=%d", t1)
		}
	}
	// Different seed should (very likely) differ somewhere.
	p.Seed = 43
	g3, err := EdgeMarkovianGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for t1 := tvg.Time(0); t1 <= 20 && !diff; t1++ {
		diff = len(g1.SnapshotAt(t1)) != len(g3.SnapshotAt(t1))
	}
	if !diff && g1.NumEdges() == g3.NumEdges() {
		t.Log("warning: different seeds produced identical snapshots (possible but unlikely)")
	}
}

func TestEdgeMarkovianExtremes(t *testing.T) {
	// birth=1, death=0: every pair present at every tick from t=0.
	g, err := EdgeMarkovianGraph(EdgeMarkovianParams{Nodes: 3, PBirth: 1, PDeath: 0, Horizon: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 { // 3·2 ordered pairs
		t.Fatalf("expected 6 edges, got %d", g.NumEdges())
	}
	for tt := tvg.Time(0); tt <= 5; tt++ {
		if got := len(g.SnapshotAt(tt)); got != 6 {
			t.Errorf("t=%d: %d present edges, want 6", tt, got)
		}
	}
	// birth=0, death=1: nothing ever appears.
	g0, err := EdgeMarkovianGraph(EdgeMarkovianParams{Nodes: 3, PBirth: 0, PDeath: 1, Horizon: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g0.NumEdges() != 0 {
		t.Errorf("expected no edges, got %d", g0.NumEdges())
	}
}

func TestEdgeMarkovianDefaults(t *testing.T) {
	g, err := EdgeMarkovianGraph(EdgeMarkovianParams{Nodes: 2, PBirth: 1, PDeath: 0, Horizon: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge(0)
	if !ok {
		t.Fatal("no edge")
	}
	if e.Label != 'c' {
		t.Errorf("default label = %q", e.Label)
	}
	if e.Latency.Crossing(0) != 1 {
		t.Errorf("default latency = %d", e.Latency.Crossing(0))
	}
	// Custom label and latency.
	g2, err := EdgeMarkovianGraph(EdgeMarkovianParams{Nodes: 2, PBirth: 1, PDeath: 0, Horizon: 3, Seed: 7, Label: 'x', Latency: 3})
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := g2.Edge(0)
	if e2.Label != 'x' || e2.Latency.Crossing(0) != 3 {
		t.Error("custom label/latency ignored")
	}
}

func TestBernoulliGraph(t *testing.T) {
	g, err := BernoulliGraph(4, 1.0, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	for tt := tvg.Time(0); tt <= 6; tt++ {
		if got := len(g.SnapshotAt(tt)); got != 12 {
			t.Errorf("p=1 Bernoulli: %d edges at t=%d, want 12", got, tt)
		}
	}
	if _, err := BernoulliGraph(1, 0.5, 6, 9); err == nil {
		t.Error("single node should fail")
	}
}

func TestRandomPeriodicGraph(t *testing.T) {
	p := PeriodicParams{Nodes: 4, Edges: 6, MaxPeriod: 5, AlphabetSize: 2, MaxLatency: 2, Seed: 11}
	g, err := RandomPeriodicGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 6 {
		t.Fatalf("size wrong: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	// Every schedule periodic, so the whole graph declares a period.
	if _, ok := g.Period(); !ok {
		t.Error("RandomPeriodic graph should declare a period")
	}
	// Every edge present at least once per period.
	if err := g.Validate(20); err != nil {
		t.Errorf("Validate: %v", err)
	}
	for id := 0; id < g.NumEdges(); id++ {
		found := false
		for tt := tvg.Time(0); tt < 5 && !found; tt++ {
			found = g.Present(tvg.EdgeID(id), tt)
		}
		if !found {
			t.Errorf("edge %d never present within max period", id)
		}
	}
	// Determinism.
	g2, err := RandomPeriodicGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	for tt := tvg.Time(0); tt <= 10; tt++ {
		if len(g.SnapshotAt(tt)) != len(g2.SnapshotAt(tt)) {
			t.Fatalf("same seed diverges at %d", tt)
		}
	}
	// Validation.
	for _, bad := range []PeriodicParams{
		{Nodes: 0, Edges: 1, MaxPeriod: 2, AlphabetSize: 1, MaxLatency: 1},
		{Nodes: 2, Edges: -1, MaxPeriod: 2, AlphabetSize: 1, MaxLatency: 1},
		{Nodes: 2, Edges: 1, MaxPeriod: 0, AlphabetSize: 1, MaxLatency: 1},
		{Nodes: 2, Edges: 1, MaxPeriod: 2, AlphabetSize: 0, MaxLatency: 1},
		{Nodes: 2, Edges: 1, MaxPeriod: 2, AlphabetSize: 1, MaxLatency: 0},
	} {
		if _, err := RandomPeriodicGraph(bad); err == nil {
			t.Errorf("params %+v should fail", bad)
		}
	}
}

func TestGridMobilityGraph(t *testing.T) {
	p := MobilityParams{Width: 3, Height: 3, Nodes: 5, Horizon: 30, Seed: 21}
	g, err := GridMobilityGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Contacts are symmetric: for every edge (u,v) present at t there is
	// an edge (v,u) present at t.
	for tt := tvg.Time(0); tt <= 30; tt++ {
		snap := g.SnapshotAt(tt)
		type pair struct{ a, b tvg.Node }
		seen := make(map[pair]bool)
		for _, id := range snap {
			e, _ := g.Edge(id)
			seen[pair{e.From, e.To}] = true
		}
		for pr := range seen {
			if !seen[pair{pr.b, pr.a}] {
				t.Fatalf("asymmetric contact %v at t=%d", pr, tt)
			}
		}
	}
	// Determinism.
	g2, err := GridMobilityGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != g2.NumEdges() {
		t.Error("same seed should reproduce the same contact trace")
	}
	// On a 1x1 grid everyone is always in contact.
	tiny, err := GridMobilityGraph(MobilityParams{Width: 1, Height: 1, Nodes: 3, Horizon: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for tt := tvg.Time(0); tt <= 4; tt++ {
		if got := len(tiny.SnapshotAt(tt)); got != 6 {
			t.Errorf("1x1 grid should have all 6 contacts at t=%d, got %d", tt, got)
		}
	}
	// Validation.
	for _, bad := range []MobilityParams{
		{Width: 0, Height: 2, Nodes: 3, Horizon: 5},
		{Width: 2, Height: 2, Nodes: 1, Horizon: 5},
		{Width: 2, Height: 2, Nodes: 3, Horizon: -1},
	} {
		if _, err := GridMobilityGraph(bad); err == nil {
			t.Errorf("params %+v should fail", bad)
		}
	}
}
