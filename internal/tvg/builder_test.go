package tvg

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// assertSameContactSet asserts two contact sets are byte-identical:
// same horizon, same contact array, same CSR indexes, and same graph
// shape (node names, edge endpoints/labels/names).
func assertSameContactSet(t *testing.T, got, want *ContactSet) {
	t.Helper()
	if got.horizon != want.horizon {
		t.Fatalf("horizon %d, want %d", got.horizon, want.horizon)
	}
	if !slices.Equal(got.contacts, want.contacts) {
		t.Fatalf("contacts differ:\n got %v\nwant %v", got.contacts, want.contacts)
	}
	if !slices.Equal(got.edgeOff, want.edgeOff) {
		t.Fatalf("edgeOff %v, want %v", got.edgeOff, want.edgeOff)
	}
	if !slices.Equal(got.outEdges, want.outEdges) {
		t.Fatalf("outEdges %v, want %v", got.outEdges, want.outEdges)
	}
	if !slices.Equal(got.outOff, want.outOff) {
		t.Fatalf("outOff %v, want %v", got.outOff, want.outOff)
	}
	if !slices.Equal(got.byTime, want.byTime) {
		t.Fatalf("byTime %v, want %v", got.byTime, want.byTime)
	}
	if !slices.Equal(got.timeOff, want.timeOff) {
		t.Fatalf("timeOff %v, want %v", got.timeOff, want.timeOff)
	}
	gg, wg := got.Graph(), want.Graph()
	if gg.NumNodes() != wg.NumNodes() || gg.NumEdges() != wg.NumEdges() {
		t.Fatalf("graph shape %d/%d nodes/edges, want %d/%d",
			gg.NumNodes(), gg.NumEdges(), wg.NumNodes(), wg.NumEdges())
	}
	for n := Node(0); int(n) < wg.NumNodes(); n++ {
		if gg.NodeName(n) != wg.NodeName(n) {
			t.Fatalf("node %d named %q, want %q", n, gg.NodeName(n), wg.NodeName(n))
		}
	}
	for id := EdgeID(0); int(id) < wg.NumEdges(); id++ {
		ge, _ := gg.Edge(id)
		we, _ := wg.Edge(id)
		if ge.From != we.From || ge.To != we.To || ge.Label != we.Label || ge.Name != we.Name {
			t.Fatalf("edge %d = (%d→%d %q %q), want (%d→%d %q %q)",
				id, ge.From, ge.To, ge.Label, ge.Name, we.From, we.To, we.Label, we.Name)
		}
	}
}

// buildReference constructs the Graph→Compile equivalent of a streamed
// edge list: TimeSet presences plus a latency function replaying the
// streamed arrivals.
func buildReference(t *testing.T, nodes int, horizon Time, edges []refEdge) *ContactSet {
	t.Helper()
	g := New()
	g.AddNodes(nodes)
	for _, e := range edges {
		lat := make(map[Time]Time, len(e.deps))
		for i, dep := range e.deps {
			lat[dep] = e.arrs[i] - dep
		}
		g.MustAddEdge(Edge{
			From: e.from, To: e.to, Label: e.label,
			Presence: NewTimeSet(e.deps...),
			Latency: LatencyFunc(func(t Time) Time {
				if l, ok := lat[t]; ok {
					return l
				}
				return 1
			}),
		})
	}
	cs, err := NewContactSet(g, horizon)
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	return cs
}

type refEdge struct {
	from, to Node
	label    Symbol
	deps     []Time
	arrs     []Time
}

func streamEdges(b *Builder, nodes int, horizon Time, edges []refEdge) {
	b.Reset(nodes, horizon)
	for _, e := range edges {
		b.StartEdge(e.from, e.to, e.label)
		for i, dep := range e.deps {
			b.Append(dep, e.arrs[i])
		}
	}
}

func TestBuilderMatchesCompile(t *testing.T) {
	edges := []refEdge{
		{from: 0, to: 1, label: 'a', deps: []Time{0, 2, 5}, arrs: []Time{1, 4, 6}},
		{from: 1, to: 2, label: 'b', deps: []Time{1, 3}, arrs: []Time{2, 9}},
		{from: 2, to: 2, label: 'c', deps: []Time{4}, arrs: []Time{5}}, // self-loop
		{from: 0, to: 1, label: 'a'},                                   // empty edge: kept, with an empty range
		{from: 3, to: 0, label: 'd', deps: []Time{0, 1, 2, 3}, arrs: []Time{7, 2, 8, 4}},
	}
	const nodes, horizon = 4, 6
	b := NewBuilder()
	streamEdges(b, nodes, horizon, edges)
	got, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertSameContactSet(t, got, buildReference(t, nodes, horizon, edges))

	// The views round-trip the streamed schedule within the horizon.
	for id, e := range edges {
		ge, _ := got.Graph().Edge(EdgeID(id))
		for tick := Time(0); tick <= horizon; tick++ {
			i := slices.Index(e.deps, tick)
			if present := ge.Presence.Present(tick); present != (i >= 0) {
				t.Fatalf("edge %d Present(%d) = %v, want %v", id, tick, present, i >= 0)
			}
			if i >= 0 {
				if l := ge.Latency.Crossing(tick); l != e.arrs[i]-tick {
					t.Fatalf("edge %d Crossing(%d) = %d, want %d", id, tick, l, e.arrs[i]-tick)
				}
			}
		}
		if ge.Presence.Present(horizon + 1) {
			t.Fatalf("edge %d present beyond the horizon", id)
		}
	}
	if err := got.Graph().Validate(horizon); err != nil {
		t.Fatalf("built graph fails validation: %v", err)
	}
}

// TestBuilderAppendRun pins AppendRun to the Append loop it replaces:
// runs, single-tick runs and empty runs build the same set as one
// Append per departure, and runs continue after earlier contacts.
func TestBuilderAppendRun(t *testing.T) {
	type run struct{ from, to, latency Time }
	edges := [][]run{
		{{0, 2, 1}, {4, 4, 3}, {6, 5, 1}, {7, 9, 2}},
		{},
		{{3, 2, 1}},
		{{0, 9, 5}},
	}
	perContact, perRun := NewBuilder(), NewBuilder()
	perContact.Reset(3, 9)
	perRun.Reset(3, 9)
	for i, runs := range edges {
		from, to := Node(i%3), Node((i+1)%3)
		perContact.StartEdge(from, to, 'a')
		perRun.StartEdge(from, to, 'a')
		for _, r := range runs {
			for dep := r.from; dep <= r.to; dep++ {
				perContact.Append(dep, dep+r.latency)
			}
			perRun.AppendRun(r.from, r.to, r.latency)
		}
	}
	want, err := perContact.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := perRun.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertSameContactSet(t, got, want)
}

func TestBuilderEmpty(t *testing.T) {
	b := NewBuilder()
	b.Reset(3, 0)
	got, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertSameContactSet(t, got, buildReference(t, 3, 0, nil))
	if got.NumContacts() != 0 || got.Graph().NumNodes() != 3 {
		t.Fatalf("empty build: %d contacts, %d nodes", got.NumContacts(), got.Graph().NumNodes())
	}
}

func TestBuilderReuse(t *testing.T) {
	b := NewBuilder()
	first := []refEdge{{from: 0, to: 1, label: 'a', deps: []Time{0, 3}, arrs: []Time{2, 4}}}
	streamEdges(b, 2, 5, first)
	cs1, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := slices.Clone(cs1.Contacts())

	// A bigger second build must not disturb the first result.
	second := []refEdge{
		{from: 4, to: 0, label: 'z', deps: []Time{1, 2, 3, 4, 5, 6, 7}, arrs: []Time{2, 3, 4, 5, 6, 7, 8}},
		{from: 2, to: 3, label: 'y', deps: []Time{0}, arrs: []Time{10}},
	}
	streamEdges(b, 5, 8, second)
	cs2, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertSameContactSet(t, cs2, buildReference(t, 5, 8, second))
	assertSameContactSet(t, cs1, buildReference(t, 2, 5, first))
	if !slices.Equal(snapshot, cs1.Contacts()) {
		t.Fatal("reusing the builder mutated an earlier ContactSet")
	}

	// Finalize consumed the build: a second Finalize without Reset fails.
	if _, err := b.Finalize(); err == nil {
		t.Fatal("Finalize without a fresh Reset should fail")
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func(b *Builder)
	}{
		{"finalize before reset", "before Reset", func(b *Builder) {}},
		{"start before reset", "before Reset", func(b *Builder) { b.StartEdge(0, 1, 'a') }},
		{"negative nodes", "negative node count", func(b *Builder) { b.Reset(-1, 5) }},
		{"negative horizon", "negative horizon", func(b *Builder) { b.Reset(2, -1) }},
		{"append before edge", "before StartEdge", func(b *Builder) { b.Reset(2, 5); b.Append(0, 1) }},
		{"unknown node", "unknown node", func(b *Builder) { b.Reset(2, 5); b.StartEdge(0, 2, 'a') }},
		{"negative departure", "outside [0, 5]", func(b *Builder) {
			b.Reset(2, 5)
			b.StartEdge(0, 1, 'a')
			b.Append(-1, 1)
		}},
		{"departure past horizon", "outside [0, 5]", func(b *Builder) {
			b.Reset(2, 5)
			b.StartEdge(0, 1, 'a')
			b.Append(6, 7)
		}},
		{"zero latency", "latency 0 < 1", func(b *Builder) {
			b.Reset(2, 5)
			b.StartEdge(0, 1, 'a')
			b.Append(3, 3)
		}},
		{"unsorted departures", "not strictly increasing", func(b *Builder) {
			b.Reset(2, 5)
			b.StartEdge(0, 1, 'a')
			b.Append(3, 4)
			b.Append(3, 4)
		}},
		{"run before edge", "before StartEdge", func(b *Builder) { b.Reset(2, 5); b.AppendRun(0, 1, 1) }},
		{"run from a negative departure", "departure -1 outside [0, 5]", func(b *Builder) {
			b.Reset(2, 5)
			b.StartEdge(0, 1, 'a')
			b.AppendRun(-1, 2, 1)
		}},
		{"run past horizon", "departure 6 outside [0, 5]", func(b *Builder) {
			b.Reset(2, 5)
			b.StartEdge(0, 1, 'a')
			b.AppendRun(4, 6, 1)
		}},
		{"run with zero latency", "latency 0 < 1 at time 2", func(b *Builder) {
			b.Reset(2, 5)
			b.StartEdge(0, 1, 'a')
			b.AppendRun(2, 3, 0)
		}},
		{"run arriving past the largest time", "arrival past the largest time", func(b *Builder) {
			b.Reset(2, 5)
			b.StartEdge(0, 1, 'a')
			b.AppendRun(0, 1, math.MaxInt64)
		}},
		{"run overlapping the last departure", "not strictly increasing (3 after 3)", func(b *Builder) {
			b.Reset(2, 5)
			b.StartEdge(0, 1, 'a')
			b.AppendRun(1, 3, 1)
			b.AppendRun(3, 4, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.run(b)
			_, err := b.Finalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Finalize error = %v, want one containing %q", err, tc.want)
			}
		})
	}

	// A recorded error is cleared by Reset, and the first error wins.
	b := NewBuilder()
	b.Reset(2, 5)
	b.Append(0, 1) // error: no edge started
	b.StartEdge(0, 5, 'a')
	if _, err := b.Finalize(); err == nil || !strings.Contains(err.Error(), "before StartEdge") {
		t.Fatalf("first error should win, got %v", err)
	}
	b.Reset(2, 5)
	b.StartEdge(0, 1, 'a')
	b.Append(0, 1)
	if _, err := b.Finalize(); err != nil {
		t.Fatalf("Reset should clear the error state: %v", err)
	}

	// A fresh new-edge departure may restart below the previous edge's.
	b.Reset(2, 5)
	b.StartEdge(0, 1, 'a')
	b.Append(4, 5)
	b.StartEdge(1, 0, 'b')
	b.Append(0, 1)
	if _, err := b.Finalize(); err != nil {
		t.Fatalf("per-edge departure ordering should reset at StartEdge: %v", err)
	}
}
