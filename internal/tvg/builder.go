package tvg

import (
	"fmt"
	"math"
	"unsafe"
)

// Builder accumulates contacts in (edge, departure) order and finalises
// them into a ContactSet in one pass, with no intermediate Graph
// schedules and no sorting. It is the streaming construction path used
// by the generators in internal/gen and by the batch engine's replicate
// loop; NewContactSet (the Graph→Compile path) stays the construction
// path for graphs whose schedules exist independently of a horizon.
//
// Usage:
//
//	b := tvg.NewBuilder()
//	b.Reset(nodes, horizon)
//	for each edge, in the id order the ContactSet should carry:
//	    b.StartEdge(from, to, label)
//	    for each departure, strictly increasing:
//	        b.Append(dep, arr)
//	cs, err := b.Finalize()
//
// Arena contract (see DESIGN.md §6): the builder's internal buffers —
// the contact arena and the edge table — are retained across Reset and
// grow to the high-water mark of the schedules built, so a pooled
// builder reaches a steady state in which producing one more replicate
// allocates only the finalised ContactSet itself (its exact-size
// contact array, offset indexes and graph), never per-contact or
// per-tick garbage. Finalize copies out of the arena, so the returned
// ContactSet is immutable and independent of the builder: it may be
// cached and shared concurrently while the builder is Reset and reused.
// A Builder is not safe for concurrent use; rent one per goroutine
// (internal/engine keeps a sync.Pool of them).
//
// Ordering is validated as contacts stream in: StartEdge/Append record
// the first violation (departure out of [0, horizon], arrival not after
// departure, non-increasing departures within an edge, endpoints outside
// the node range) and Finalize reports it, so a buggy producer cannot
// silently yield a malformed ContactSet. An edge may have zero appended
// contacts; it is kept, with an empty contact range, matching what
// Graph→Compile produces for an edge never present within the horizon.
type Builder struct {
	nodes   int
	horizon Time
	started bool

	contacts []Contact     // arena, reused across Reset
	edges    []builderEdge // arena, reused across Reset
	err      error

	// base, when non-nil, marks an Extend build: the streamed contacts
	// are an append batch onto base (departures strictly after baseDep)
	// and Finalize assembles a new revision instead of a cold set.
	base    *ContactSet
	baseDep Time
}

// builderEdge is the pending metadata of one started edge.
type builderEdge struct {
	from, to Node
	label    Symbol
	off      int32 // index into contacts where this edge's range starts
}

// NewBuilder returns an empty builder. Reset must be called before the
// first StartEdge.
func NewBuilder() *Builder { return &Builder{} }

// Reset prepares the builder for a new schedule over nodes nodes and
// the inclusive horizon [0, horizon], retaining the internal arenas of
// earlier builds. It clears any recorded error.
func (b *Builder) Reset(nodes int, horizon Time) {
	b.nodes = nodes
	b.horizon = horizon
	b.started = true
	b.contacts = b.contacts[:0]
	b.edges = b.edges[:0]
	b.err = nil
	b.base = nil
	if nodes < 0 {
		b.fail(fmt.Errorf("tvg: builder reset with negative node count %d", nodes))
	}
	if horizon < 0 {
		b.fail(fmt.Errorf("tvg: builder reset with negative horizon %d", horizon))
	}
}

// fail records the first error; later calls keep streaming into the
// void so producers need no per-call error checks.
func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Extend prepares the builder to stream an append batch onto base: the
// same StartEdge/Append protocol as a cold build (fresh edges, strictly
// increasing departures per edge), with the extra constraint that every
// departure lies strictly after base.LastDep(). Finalize then assembles
// a new revision of base sharing its frozen contact prefix (see
// append.go) instead of a cold ContactSet; base itself is unchanged and
// remains valid. AppendContacts is the convenience wrapper for callers
// holding an unordered record batch.
func (b *Builder) Extend(base *ContactSet) {
	b.Reset(base.Graph().NumNodes(), base.Horizon())
	b.base = base
	b.baseDep = base.LastDep()
}

// RetainedBytes reports the capacity of the builder's internal arenas —
// the memory a pooled builder pins between builds. The arenas grow to
// the high-water mark of the schedules built (see the arena contract
// above), so a pool owner can drop builders above a retention cap
// instead of re-pooling them (internal/engine does).
func (b *Builder) RetainedBytes() int64 {
	return int64(cap(b.contacts))*int64(unsafe.Sizeof(Contact{})) +
		int64(cap(b.edges))*int64(unsafe.Sizeof(builderEdge{}))
}

// NumEdges returns the number of edges started so far. The next
// StartEdge creates the edge with this id.
func (b *Builder) NumEdges() int { return len(b.edges) }

// NumContacts returns the number of contacts appended so far.
func (b *Builder) NumContacts() int { return len(b.contacts) }

// StartEdge begins edge number NumEdges() from from to to carrying
// label. Contacts appended until the next StartEdge belong to it. Edges
// are named "e0", "e1", … in start order, matching Graph.AddEdge.
func (b *Builder) StartEdge(from, to Node, label Symbol) {
	if !b.started {
		b.fail(fmt.Errorf("tvg: builder used before Reset"))
		return
	}
	if from < 0 || int(from) >= b.nodes || to < 0 || int(to) >= b.nodes {
		b.fail(fmt.Errorf("tvg: builder edge %d references unknown node (from=%d, to=%d, have %d nodes)",
			len(b.edges), from, to, b.nodes))
	}
	b.edges = append(b.edges, builderEdge{from: from, to: to, label: label, off: int32(len(b.contacts))})
}

// Append records one contact of the current edge: present at dep, a
// traversal departing then arrives at arr. Departures within an edge
// must be strictly increasing, lie in [0, horizon], and arrive strictly
// later than they depart (the latency ≥ 1 model invariant).
func (b *Builder) Append(dep, arr Time) {
	if len(b.edges) == 0 {
		b.fail(fmt.Errorf("tvg: builder Append before StartEdge"))
		return
	}
	e := &b.edges[len(b.edges)-1]
	switch {
	case dep < 0 || dep > b.horizon:
		b.fail(fmt.Errorf("tvg: builder edge %d departure %d outside [0, %d]", len(b.edges)-1, dep, b.horizon))
	case b.base != nil && dep <= b.baseDep:
		b.fail(fmt.Errorf("tvg: builder edge %d departure %d not after the extended set's last departure %d",
			len(b.edges)-1, dep, b.baseDep))
	case arr <= dep:
		b.fail(fmt.Errorf("tvg: builder edge %d has latency %d < 1 at time %d", len(b.edges)-1, arr-dep, dep))
	case int32(len(b.contacts)) > e.off && b.contacts[len(b.contacts)-1].Dep >= dep:
		b.fail(fmt.Errorf("tvg: builder edge %d departures not strictly increasing (%d after %d)",
			len(b.edges)-1, dep, b.contacts[len(b.contacts)-1].Dep))
	case len(b.contacts) >= math.MaxInt32:
		b.fail(fmt.Errorf("tvg: schedule has more than %d contacts", math.MaxInt32))
	default:
		b.contacts = append(b.contacts, Contact{
			Edge: EdgeID(len(b.edges) - 1), From: e.from, To: e.to, Dep: dep, Arr: arr,
		})
	}
}

// AppendRun records a run of contacts of the current edge, one departing
// at every tick of [from, to] and each arriving latency ticks later: the
// contacts Append(t, t+latency) for t = from … to would record, checked
// once for the whole run. An empty run (from > to) records nothing.
func (b *Builder) AppendRun(from, to, latency Time) {
	if from > to {
		return
	}
	if len(b.edges) == 0 {
		b.fail(fmt.Errorf("tvg: builder Append before StartEdge"))
		return
	}
	id := len(b.edges) - 1
	e := &b.edges[id]
	switch {
	case from < 0:
		b.fail(fmt.Errorf("tvg: builder edge %d departure %d outside [0, %d]", id, from, b.horizon))
	case to > b.horizon:
		b.fail(fmt.Errorf("tvg: builder edge %d departure %d outside [0, %d]", id, to, b.horizon))
	case b.base != nil && from <= b.baseDep:
		b.fail(fmt.Errorf("tvg: builder edge %d departure %d not after the extended set's last departure %d",
			id, from, b.baseDep))
	case latency < 1:
		b.fail(fmt.Errorf("tvg: builder edge %d has latency %d < 1 at time %d", id, latency, from))
	case latency > math.MaxInt64-to:
		b.fail(fmt.Errorf("tvg: builder edge %d arrival past the largest time (latency %d)", id, latency))
	case int32(len(b.contacts)) > e.off && b.contacts[len(b.contacts)-1].Dep >= from:
		b.fail(fmt.Errorf("tvg: builder edge %d departures not strictly increasing (%d after %d)",
			id, from, b.contacts[len(b.contacts)-1].Dep))
	case to-from >= math.MaxInt32-int64(len(b.contacts)):
		b.fail(fmt.Errorf("tvg: schedule has more than %d contacts", math.MaxInt32))
	default:
		for t := from; t <= to; t++ {
			b.contacts = append(b.contacts, Contact{Edge: EdgeID(id), From: e.from, To: e.to, Dep: t, Arr: t + latency})
		}
	}
}

// Finalize materialises the streamed contacts into an immutable
// ContactSet — contact array, per-edge/per-node/per-tick CSR indexes
// and a Graph whose nodes are named "v0"… and whose edge schedules are
// views backed by the set itself (present exactly at the streamed
// departures, with the streamed latencies; absent outside the horizon).
// It returns the first streaming error, if any. The builder can be
// Reset and reused afterwards; the returned set does not share memory
// with it.
func (b *Builder) Finalize() (*ContactSet, error) {
	if !b.started {
		return nil, fmt.Errorf("tvg: builder finalized before Reset")
	}
	if b.err != nil {
		return nil, b.err
	}
	if b.base != nil {
		base := b.base
		b.base = nil
		b.started = false
		if len(b.contacts) == 0 {
			return base, nil // empty batch: no new revision
		}
		return extendSet(base, b.edges, b.contacts)
	}
	g := New()
	g.AddNodes(b.nodes)
	// Pre-size the graph's edge table and adjacency to their final
	// shapes: append regrowth across tens of thousands of AddEdge calls
	// otherwise dominates the allocation profile of a replicate.
	g.edges = make([]Edge, 0, len(b.edges))
	outDeg := make([]int32, b.nodes)
	for i := range b.edges {
		outDeg[b.edges[i].from]++
	}
	for n, deg := range outDeg {
		if deg > 0 {
			g.out[n] = make([]EdgeID, 0, deg)
		}
	}
	cs := &ContactSet{
		g:        g,
		horizon:  b.horizon,
		contacts: make([]Contact, len(b.contacts)),
		edgeOff:  make([]int32, len(b.edges)+1),
	}
	copy(cs.contacts, b.contacts)
	views := make([]contactSchedule, len(b.edges))
	for i, e := range b.edges {
		views[i] = contactSchedule{cs: cs, id: EdgeID(i)}
		if _, err := g.AddEdge(Edge{
			From: e.from, To: e.to, Label: e.label,
			Presence: &views[i], Latency: &views[i],
		}); err != nil {
			return nil, err // unreachable: StartEdge validated the endpoints
		}
		cs.edgeOff[i] = e.off
	}
	cs.edgeOff[len(b.edges)] = int32(len(b.contacts))
	cs.buildIndexes()
	b.started = false // require a Reset before the next build
	return cs, nil
}

// contactSchedule adapts one edge's finalised contact range back to the
// Presence and Latency interfaces, so a builder-made ContactSet still
// carries a well-formed Graph. The views are exact within the compiled
// horizon and report absent (latency 1) beyond it — a builder-made
// graph only knows the window it was streamed for.
type contactSchedule struct {
	cs *ContactSet
	id EdgeID
}

// Present implements Presence.
func (s *contactSchedule) Present(t Time) bool {
	_, ok := s.cs.ArrivalAt(s.id, t)
	return ok
}

// Crossing implements Latency.
func (s *contactSchedule) Crossing(t Time) Time {
	if arr, ok := s.cs.ArrivalAt(s.id, t); ok {
		return arr - t
	}
	return 1
}
