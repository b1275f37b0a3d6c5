package tvg

import (
	"math/rand"
	"reflect"
	"testing"
)

// rawEqualCSR asserts that got's CSR arrays are byte-identical to
// want's — the round-trip guarantee the durability layer rests on.
func rawEqualCSR(t *testing.T, want, got *ContactSet) {
	t.Helper()
	if !reflect.DeepEqual(want.contacts, got.contacts) {
		t.Fatalf("contacts differ after round trip")
	}
	if !reflect.DeepEqual(want.edgeOff, got.edgeOff) {
		t.Fatalf("edgeOff differs after round trip")
	}
	if !reflect.DeepEqual(want.byTime, got.byTime) {
		t.Fatalf("byTime differs after round trip")
	}
	if !reflect.DeepEqual(want.timeOff, got.timeOff) {
		t.Fatalf("timeOff differs after round trip")
	}
	if !reflect.DeepEqual(want.outEdges, got.outEdges) || !reflect.DeepEqual(want.outOff, got.outOff) {
		t.Fatalf("node CSR differs after round trip")
	}
	if want.rev != got.rev || want.lastDep != got.lastDep || want.horizon != got.horizon {
		t.Fatalf("stamps differ: rev %d/%d lastDep %d/%d horizon %d/%d",
			want.rev, got.rev, want.lastDep, got.lastDep, want.horizon, got.horizon)
	}
}

// buildRevisions returns a chain of revisions: a cold builder set plus
// several appended batches, exercising both empty and populated ticks.
func buildRevisions(t *testing.T) []*ContactSet {
	t.Helper()
	b := NewBuilder()
	b.Reset(6, 50)
	b.StartEdge(0, 1, 'a')
	b.Append(0, 2)
	b.Append(3, 5)
	b.StartEdge(1, 2, 'b')
	b.Append(3, 4)
	b.StartEdge(5, 5, 'c') // self-loop, zero contacts on edge 3 below
	b.Append(4, 6)
	b.StartEdge(2, 0, 'd')
	base, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	revs := []*ContactSet{base}
	cur := base
	batches := [][]ContactRecord{
		{{From: 1, To: 3, Dep: 6, Arr: 7}, {From: 1, To: 3, Dep: 8, Arr: 12}},
		{{From: 3, To: 4, Dep: 9, Arr: 10}, {From: 4, To: 5, Dep: 11, Arr: 13}, {From: 0, To: 2, Dep: 11, Arr: 14}},
		{{From: 5, To: 0, Dep: 40, Arr: 55}}, // arrival past the horizon is legal
	}
	for _, recs := range batches {
		next, err := cur.AppendContacts(recs)
		if err != nil {
			t.Fatal(err)
		}
		revs = append(revs, next)
		cur = next
	}
	return revs
}

// TestRawRoundTripEveryRevision pins the acceptance bar: Raw → FromRaw
// reproduces a byte-identical CSR at every revision of an append chain,
// and the restored set keeps appending from the recovered watermark
// exactly like the original.
func TestRawRoundTripEveryRevision(t *testing.T) {
	for i, rev := range buildRevisions(t) {
		got, err := FromRaw(rev.Raw())
		if err != nil {
			t.Fatalf("revision %d: FromRaw: %v", i, err)
		}
		rawEqualCSR(t, rev, got)
		if got.Graph().NumNodes() != rev.Graph().NumNodes() || got.Graph().NumEdges() != rev.Graph().NumEdges() {
			t.Fatalf("revision %d: graph shape changed", i)
		}
		// Restored edges answer the same schedule queries within the horizon.
		for e := 0; e < rev.Graph().NumEdges(); e++ {
			for _, ct := range rev.EdgeContacts(EdgeID(e)) {
				if !got.Graph().Present(EdgeID(e), ct.Dep) || got.Graph().Arrival(EdgeID(e), ct.Dep) != ct.Arr {
					t.Fatalf("revision %d: edge %d schedule changed at %d", i, e, ct.Dep)
				}
			}
		}
		// The restored watermark accepts exactly what the original would.
		recs := []ContactRecord{{From: 0, To: 1, Dep: rev.LastDep() + 3, Arr: rev.LastDep() + 4}}
		if rev.LastDep()+3 > rev.Horizon() {
			continue
		}
		a, errA := rev.AppendContacts(recs)
		c, errC := got.AppendContacts(recs)
		if (errA == nil) != (errC == nil) {
			t.Fatalf("revision %d: append divergence: %v vs %v", i, errA, errC)
		}
		if errA == nil {
			rawEqualCSR(t, a, c)
		}
	}
}

// TestRawPreservesNodeNames pins the name section: caller-named graphs
// keep their names through a round trip, builder-made graphs restore
// their default names with a nil NodeNames.
func TestRawPreservesNodeNames(t *testing.T) {
	g := New()
	relay := g.AddNode("relay")
	base := g.AddNode("base")
	g.MustAddEdge(Edge{From: relay, To: base, Presence: Always{}, Latency: ConstLatency(1)})
	cs, err := NewContactSet(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	raw := cs.Raw()
	if raw.NodeNames == nil {
		t.Fatal("caller-named graph lost its node names")
	}
	got, err := FromRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph().NodeName(relay) != "relay" || got.Graph().NodeName(base) != "base" {
		t.Fatalf("names lost: %q, %q", got.Graph().NodeName(relay), got.Graph().NodeName(base))
	}
	if n, ok := got.Graph().NodeByName("base"); !ok || n != base {
		t.Fatalf("NodeByName lost after restore")
	}

	b := NewBuilder()
	b.Reset(3, 5)
	b.StartEdge(0, 1, 0)
	b.Append(1, 2)
	bs, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if braw := bs.Raw(); braw.NodeNames != nil {
		t.Fatalf("default-named graph serialized %d names", len(braw.NodeNames))
	}
	got2, err := FromRaw(bs.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if got2.Graph().NodeName(0) != "v0" || got2.Graph().NodeName(2) != "v2" {
		t.Fatalf("default names not restored: %q", got2.Graph().NodeName(0))
	}
}

// TestFromRawRejectsCorruption drives FromRaw with single-field
// mutations of a valid snapshot: every one must be rejected, never
// produce a set.
func TestFromRawRejectsCorruption(t *testing.T) {
	revs := buildRevisions(t)
	base := revs[len(revs)-1]
	mutations := []struct {
		name string
		mut  func(*RawSnapshot)
	}{
		{"negative nodes", func(r *RawSnapshot) { r.Nodes = -1 }},
		{"negative horizon", func(r *RawSnapshot) { r.Horizon = -2 }},
		{"short edgeOff", func(r *RawSnapshot) { r.EdgeOff = r.EdgeOff[:len(r.EdgeOff)-1] }},
		{"short byTime", func(r *RawSnapshot) { r.ByTime = r.ByTime[:len(r.ByTime)-1] }},
		{"short timeOff", func(r *RawSnapshot) { r.TimeOff = r.TimeOff[:len(r.TimeOff)-1] }},
		{"edge endpoint out of range", func(r *RawSnapshot) { r.Edges[0].To = Node(r.Nodes) }},
		{"contact edge mismatch", func(r *RawSnapshot) { r.Contacts[0].Edge++ }},
		{"contact endpoint mismatch", func(r *RawSnapshot) { r.Contacts[0].From++ }},
		{"departure past horizon", func(r *RawSnapshot) { r.Contacts[0].Dep = r.Horizon + 1; r.Contacts[0].Arr = r.Horizon + 2 }},
		{"zero latency", func(r *RawSnapshot) { r.Contacts[1].Arr = r.Contacts[1].Dep }},
		{"byTime out of range", func(r *RawSnapshot) { r.ByTime[0] = int32(len(r.Contacts)) }},
		{"byTime wrong tick", func(r *RawSnapshot) { r.ByTime[0], r.ByTime[len(r.ByTime)-1] = r.ByTime[len(r.ByTime)-1], r.ByTime[0] }},
		{"stale lastDep", func(r *RawSnapshot) { r.LastDep++ }},
		{"lastDep below -1", func(r *RawSnapshot) { r.LastDep = -2 }},
		{"lastDep past horizon", func(r *RawSnapshot) {
			for len(r.TimeOff) < int(r.Horizon)+3 {
				r.TimeOff = append(r.TimeOff, int32(len(r.Contacts)))
			}
			r.LastDep = r.Horizon + 1
		}},
		{"horizon-long timeOff", func(r *RawSnapshot) {
			for len(r.TimeOff) < int(r.Horizon)+2 {
				r.TimeOff = append(r.TimeOff, int32(len(r.Contacts)))
			}
		}},
		{"unbracketed edgeOff", func(r *RawSnapshot) { r.EdgeOff[len(r.EdgeOff)-1]++ }},
		{"unbracketed timeOff", func(r *RawSnapshot) { r.TimeOff[0] = 1 }},
		{"duplicate node name", func(r *RawSnapshot) {
			r.NodeNames = make([]string, r.Nodes)
			for i := range r.NodeNames {
				r.NodeNames[i] = "dup"
			}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			raw := base.Raw()
			// Deep-copy the slices so mutations never touch the live set.
			raw.Contacts = append([]Contact(nil), raw.Contacts...)
			raw.EdgeOff = append([]int32(nil), raw.EdgeOff...)
			raw.ByTime = append([]int32(nil), raw.ByTime...)
			raw.TimeOff = append([]int32(nil), raw.TimeOff...)
			raw.Edges = append([]RawEdge(nil), raw.Edges...)
			m.mut(&raw)
			if _, err := FromRaw(raw); err == nil {
				t.Fatalf("mutation %q accepted", m.name)
			}
		})
	}
}

// TestFromRawRandomized cross-checks restored sets against their
// originals on randomized builder schedules: accessor answers must
// agree everywhere.
func TestFromRawRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nodes := 2 + rng.Intn(10)
		horizon := Time(5 + rng.Intn(40))
		b := NewBuilder()
		b.Reset(nodes, horizon)
		for e := 0; e < 1+rng.Intn(12); e++ {
			b.StartEdge(Node(rng.Intn(nodes)), Node(rng.Intn(nodes)), 'x')
			dep := Time(rng.Intn(5))
			for dep <= horizon {
				if rng.Intn(3) > 0 {
					b.Append(dep, dep+1+Time(rng.Intn(4)))
				}
				dep += 1 + Time(rng.Intn(6))
			}
		}
		cs, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromRaw(cs.Raw())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rawEqualCSR(t, cs, got)
		for tt := Time(0); tt <= horizon; tt++ {
			if !reflect.DeepEqual(cs.ContactsAt(tt), got.ContactsAt(tt)) {
				t.Fatalf("trial %d: ContactsAt(%d) differs", trial, tt)
			}
		}
	}
}
