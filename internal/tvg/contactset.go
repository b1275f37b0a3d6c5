package tvg

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"unsafe"
)

// Contact is one usable (edge, departure) pair of a schedule: edge Edge is
// present at time Dep and a traversal departing then arrives at Arr.
// Contacts are the atoms every decision procedure in this repository walks
// over; From and To are denormalized endpoints so the hot loops never
// touch the Graph's edge list.
type Contact struct {
	Edge     EdgeID
	From, To Node
	Dep, Arr Time
}

// ContactSet is the flat, CSR-style compiled form of a Graph over a finite
// horizon: one contiguous contact array plus three offset indexes.
//
// Layout invariants (see DESIGN.md §1):
//
//   - contacts is sorted by (Edge, Dep); within an edge, departures are
//     strictly increasing, so an edge has at most one contact per tick;
//   - edgeOff[e] .. edgeOff[e+1] brackets edge e's contacts;
//   - outEdges, bracketed per node by outOff, lists each node's outgoing
//     edge ids in ascending id order;
//   - byTime lists contact indexes sorted by (Dep, Edge), bracketed per
//     tick by timeOff, so all contacts departing at tick t are
//     byTime[timeOff[t]:timeOff[t+1]], in ascending edge order. timeOff
//     covers [0, lastDep] only — no contact departs later, so the index
//     is as long as the stream, not the horizon.
//
// A ContactSet is immutable after construction and safe for unbounded
// concurrent use; accessors returning slices share the backing arrays and
// callers must not modify them. AppendContacts and Builder.Extend do not
// mutate a set: they produce a NEW revision sharing the frozen prefix of
// the contact arrays (see append.go).
type ContactSet struct {
	g        *Graph
	horizon  Time
	contacts []Contact
	edgeOff  []int32 // len NumEdges+1
	outEdges []EdgeID
	outOff   []int32 // len NumNodes+1
	byTime   []int32 // contact indexes ordered by (Dep, Edge)
	timeOff  []int32 // len lastDep+2

	// Revision metadata for the append path (append.go). rev counts the
	// append batches behind this set (0 for a cold build); lastDep is the
	// latest departure, -1 when the set is empty; maxLat is the largest
	// latency of a contact arriving within the horizon, 0 when there is
	// none. extClaim is consumed by
	// the FIRST revision extending this set: the winner inherits lin (the
	// lineage token shared by one linear chain of revisions — the basis of
	// Extends) and may append into the backing arrays' spare capacity
	// (beyond this set's lengths, which no reader of this revision ever
	// indexes); a later sibling branch copies and starts a fresh lineage.
	rev      uint64
	lastDep  Time
	maxLat   Time
	lin      *lineage
	extClaim atomic.Bool
}

// lineage is the identity token of one linear chain of revisions. It
// must not be zero-sized: Extends compares token addresses.
type lineage struct{ _ byte }

// NewContactSet scans every edge over t in [0, horizon] and builds the
// flat contact representation. It returns an error if the horizon is
// negative, if any present instant has a latency < 1 (a model violation),
// or if the schedule has more contacts than the index width supports.
func NewContactSet(g *Graph, horizon Time) (*ContactSet, error) {
	if horizon < 0 {
		return nil, fmt.Errorf("tvg: negative horizon %d", horizon)
	}
	cs := &ContactSet{
		g:       g,
		horizon: horizon,
		edgeOff: make([]int32, g.NumEdges()+1),
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.edges[i]
		for t := Time(0); t <= horizon; t++ {
			if !e.Presence.Present(t) {
				continue
			}
			l := e.Latency.Crossing(t)
			if l < 1 {
				return nil, fmt.Errorf("tvg: edge %d (%q) has latency %d < 1 at time %d", i, g.edgeName(i), l, t)
			}
			cs.contacts = append(cs.contacts, Contact{
				Edge: EdgeID(i), From: e.From, To: e.To, Dep: t, Arr: t + l,
			})
		}
		if len(cs.contacts) > math.MaxInt32 {
			return nil, fmt.Errorf("tvg: schedule has more than %d contacts", math.MaxInt32)
		}
		cs.edgeOff[i+1] = int32(len(cs.contacts))
	}
	cs.buildIndexes()
	return cs, nil
}

// buildIndexes derives the per-node and per-tick offset indexes from the
// populated contact array and edge index. It is shared by NewContactSet
// and Builder.Finalize, so the two construction paths produce
// byte-identical sets by construction.
func (c *ContactSet) buildIndexes() {
	c.buildNodeIndexes()
	c.buildTimeIndexes()
	c.lin = &lineage{}
}

// buildNodeIndexes derives the node → outgoing-edges CSR (ascending edge
// ids). Also used alone by the append path, which rebuilds the (small)
// node index per revision but extends the time index incrementally.
func (c *ContactSet) buildNodeIndexes() {
	g := c.g
	c.outOff = make([]int32, g.NumNodes()+1)
	for _, e := range g.edges {
		c.outOff[e.From+1]++
	}
	for n := 1; n < len(c.outOff); n++ {
		c.outOff[n] += c.outOff[n-1]
	}
	c.outEdges = make([]EdgeID, g.NumEdges())
	fill := append([]int32(nil), c.outOff...)
	for i, e := range g.edges {
		c.outEdges[fill[e.From]] = EdgeID(i)
		fill[e.From]++
	}
}

// buildTimeIndexes derives the lastDep watermark, the in-horizon
// latency bound and the departure tick → contacts index over
// [0, lastDep] by counting sort. Filling in contact order keeps each
// tick's bucket in ascending edge order.
func (c *ContactSet) buildTimeIndexes() {
	c.lastDep, c.maxLat = -1, 0
	for i := range c.contacts {
		c.lastDep = max(c.lastDep, c.contacts[i].Dep)
		c.maxLat = max(c.maxLat, inHorizonLatency(&c.contacts[i], c.horizon))
	}
	c.timeOff = make([]int32, c.lastDep+2)
	for _, ct := range c.contacts {
		c.timeOff[ct.Dep+1]++
	}
	for t := 1; t < len(c.timeOff); t++ {
		c.timeOff[t] += c.timeOff[t-1]
	}
	c.byTime = make([]int32, len(c.contacts))
	fillT := append([]int32(nil), c.timeOff...)
	for i, ct := range c.contacts {
		c.byTime[fillT[ct.Dep]] = int32(i)
		fillT[ct.Dep]++
	}
}

// inHorizonLatency returns ct's latency when it arrives within the
// horizon, else 0: a terminal arrival past the horizon is never held
// as in-flight sweep state, so it does not count toward MaxLatency.
func inHorizonLatency(ct *Contact, horizon Time) Time {
	if ct.Arr > horizon {
		return 0
	}
	return ct.Arr - ct.Dep
}

// SizeBytes reports the approximate heap footprint of the compiled
// schedule: the contact array plus the three offset indexes. The Graph
// is not priced. A set compiled from a Graph may share it, but a
// Builder-made set owns its Graph (the edge table, the Presence/Latency
// views, the adjacency lists and the node names), which SizeBytes leaves
// out. Used by the engine's cache byte gauges; exactness to the
// allocator's rounding is not a goal.
func (c *ContactSet) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*c)) +
		int64(len(c.contacts))*int64(unsafe.Sizeof(Contact{})) +
		int64(len(c.edgeOff)+len(c.outOff)+len(c.byTime)+len(c.timeOff))*4 +
		int64(len(c.outEdges))*int64(unsafe.Sizeof(EdgeID(0)))
}

// Graph returns the underlying graph.
func (c *ContactSet) Graph() *Graph { return c.g }

// Horizon returns the inclusive time horizon the schedule was compiled for.
func (c *ContactSet) Horizon() Time { return c.horizon }

// NumContacts returns the total number of contacts — the size of the
// time-expanded edge relation.
func (c *ContactSet) NumContacts() int { return len(c.contacts) }

// Contacts returns the full contact array, sorted by (edge, departure).
// The slice is shared; callers must not modify it.
func (c *ContactSet) Contacts() []Contact { return c.contacts }

// EdgeRange returns the index range [lo, hi) of edge id's contacts within
// Contacts(). An invalid id yields an empty range.
func (c *ContactSet) EdgeRange(id EdgeID) (lo, hi int) {
	if id < 0 || int(id) >= c.g.NumEdges() {
		return 0, 0
	}
	return int(c.edgeOff[id]), int(c.edgeOff[id+1])
}

// EdgeContacts returns edge id's contacts in departure order. The slice is
// shared; callers must not modify it.
func (c *ContactSet) EdgeContacts(id EdgeID) []Contact {
	lo, hi := c.EdgeRange(id)
	return c.contacts[lo:hi]
}

// OutEdges returns the ids of edges leaving node n, ascending. The slice
// is shared; callers must not modify it.
func (c *ContactSet) OutEdges(n Node) []EdgeID {
	if !c.g.ValidNode(n) {
		return nil
	}
	return c.outEdges[c.outOff[n]:c.outOff[n+1]]
}

// AtTick returns the indexes (into Contacts) of every contact departing at
// tick t, in ascending edge order; nil outside [0, LastDep()]. The slice
// is shared; callers must not modify it.
func (c *ContactSet) AtTick(t Time) []int32 {
	if t < 0 || t > c.lastDep {
		return nil
	}
	return c.byTime[c.timeOff[t]:c.timeOff[t+1]]
}

// SearchFrom returns the first index in [lo, hi) whose contact departs at
// or after t, assuming contacts[lo:hi] is departure-sorted (true for any
// EdgeRange). It is the shared lower-bound primitive behind ArrivalAt,
// NextDeparture, EachDeparture and the journey searches' window walks.
func (c *ContactSet) SearchFrom(lo, hi int, t Time) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return c.contacts[lo+i].Dep >= t })
}

// Departures returns a copy of the departure times of edge id within the
// horizon. It allocates; hot loops should use AppendDepartures with a
// reused buffer, or walk EdgeContacts directly.
func (c *ContactSet) Departures(id EdgeID) []Time {
	lo, hi := c.EdgeRange(id)
	if lo == hi {
		return nil
	}
	return c.AppendDepartures(make([]Time, 0, hi-lo), id)
}

// AppendDepartures appends the departure times of edge id (within the
// horizon, in increasing order) to dst and returns the extended slice.
// With a dst of sufficient capacity it does not allocate.
func (c *ContactSet) AppendDepartures(dst []Time, id EdgeID) []Time {
	lo, hi := c.EdgeRange(id)
	for i := lo; i < hi; i++ {
		dst = append(dst, c.contacts[i].Dep)
	}
	return dst
}

// NumDepartures returns how many departures edge id has within the horizon.
func (c *ContactSet) NumDepartures(id EdgeID) int {
	lo, hi := c.EdgeRange(id)
	return hi - lo
}

// PresentAt reports whether edge id is present at time t (within horizon).
func (c *ContactSet) PresentAt(id EdgeID, t Time) bool {
	_, ok := c.ArrivalAt(id, t)
	return ok
}

// ArrivalAt returns the arrival time of a traversal of edge id departing
// exactly at time t, or false if the edge is not present at t.
func (c *ContactSet) ArrivalAt(id EdgeID, t Time) (Time, bool) {
	lo, hi := c.EdgeRange(id)
	i := c.SearchFrom(lo, hi, t)
	if i < hi && c.contacts[i].Dep == t {
		return c.contacts[i].Arr, true
	}
	return 0, false
}

// NextDeparture returns the earliest departure time t' >= t of edge id,
// or false if there is none within the horizon.
func (c *ContactSet) NextDeparture(id EdgeID, t Time) (Time, bool) {
	lo, hi := c.EdgeRange(id)
	i := c.SearchFrom(lo, hi, t)
	if i == hi {
		return 0, false
	}
	return c.contacts[i].Dep, true
}

// EachDeparture calls fn(departure, arrival) for every departure time of
// edge id in [from, to] (inclusive), in increasing order, stopping early if
// fn returns false.
func (c *ContactSet) EachDeparture(id EdgeID, from, to Time, fn func(dep, arr Time) bool) {
	lo, hi := c.EdgeRange(id)
	for i := c.SearchFrom(lo, hi, from); i < hi && c.contacts[i].Dep <= to; i++ {
		if !fn(c.contacts[i].Dep, c.contacts[i].Arr) {
			return
		}
	}
}

// ContactsAt returns the ids of all edges present at time t, ascending.
// It allocates a fresh slice per call; hot loops should use
// AppendContactsAt with a reused buffer, or walk AtTick directly (an
// index-backed view that never allocates).
func (c *ContactSet) ContactsAt(t Time) []EdgeID {
	ks := c.AtTick(t)
	if len(ks) == 0 {
		return nil
	}
	return c.AppendContactsAt(make([]EdgeID, 0, len(ks)), t)
}

// AppendContactsAt appends the ids of all edges present at time t
// (ascending) to dst and returns the extended slice. With a dst of
// sufficient capacity it does not allocate.
func (c *ContactSet) AppendContactsAt(dst []EdgeID, t Time) []EdgeID {
	for _, k := range c.AtTick(t) {
		dst = append(dst, c.contacts[k].Edge)
	}
	return dst
}

// TotalContacts returns the total number of (edge, departure) pairs within
// the horizon. It is a synonym of NumContacts kept for the pre-CSR API.
func (c *ContactSet) TotalContacts() int { return len(c.contacts) }

// Revision reports how many append batches lie behind this set: 0 for a
// cold build (NewContactSet, Builder.Finalize), parent revision + 1 for a
// set produced by AppendContacts or Builder.Extend.
func (c *ContactSet) Revision() uint64 { return c.rev }

// LastDep returns the latest departure time of any contact, or -1 when
// the set has no contacts. Appended batches must depart strictly later —
// this watermark is the suffix-replay cut the incremental sweeps resume
// from (see internal/journey SweepCheckpoint).
func (c *ContactSet) LastDep() Time { return c.lastDep }

// MaxLatency returns the largest latency (Arr − Dep) of any contact that
// arrives within the horizon, or 0 when there is none. It bounds how far
// ahead of the current tick a departure-ordered sweep holds in-flight
// arrivals, which is what sizes the sweeps' tick rings (see
// internal/journey).
func (c *ContactSet) MaxLatency() Time { return c.maxLat }

// Extends reports whether c's contact stream is base plus zero or more
// appended batches over the same node count and horizon — the validity
// check a sweep checkpoint taken on base performs before replaying only
// c's suffix. The check is by lineage token: revisions extending the
// SAME parent race for its extension claim, the winner inherits the
// parent's lineage and later siblings start a fresh one, so each lineage
// is a linear chain and the revision counter totally orders it. A
// sibling branch therefore reports false even though its stream does
// extend base; callers fall back to a cold sweep — never an incorrect
// resume.
func (c *ContactSet) Extends(base *ContactSet) bool {
	if c == base {
		return c != nil
	}
	if c == nil || base == nil {
		return false
	}
	if c.horizon != base.horizon || c.g.NumNodes() != base.g.NumNodes() ||
		len(c.contacts) < len(base.contacts) {
		return false
	}
	// An empty base constrains nothing beyond shape: a checkpoint taken on
	// it holds only seeded state, so replaying all of c from it IS the
	// cold sweep.
	if len(base.contacts) == 0 {
		return true
	}
	return c.lin != nil && c.lin == base.lin && c.rev > base.rev
}
