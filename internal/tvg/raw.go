package tvg

import (
	"fmt"
	"strconv"
)

// defaultNodeName is the anonymous name AddNodes gives node i.
func defaultNodeName(i int) string { return "v" + strconv.Itoa(i) }

// RawSnapshot is the persistable view of a ContactSet: exactly the CSR
// arrays of DESIGN.md §1 plus the shape and the revision stamp of the
// append path. It is what internal/store serializes into the versioned
// snapshot format and what FromRaw rebuilds a live set from after a
// restart — the frozen contact prefix survives a process boundary
// bit-identically, so sweeps over a restored set answer exactly what
// they answered before the crash.
//
// The slices returned by (*ContactSet).Raw are SHARED with the set
// (revisions are immutable, so sharing is safe for reading); FromRaw
// conversely takes ownership of the slices it is given and the caller
// must not modify them afterwards.
type RawSnapshot struct {
	Nodes    int
	Horizon  Time
	Revision uint64
	LastDep  Time

	Contacts []Contact
	EdgeOff  []int32
	ByTime   []int32
	TimeOff  []int32 // LastDep+2 entries: ticks [0, LastDep]

	// Edges is the edge table: endpoints and label per edge id. Edge
	// schedules are not serialized — within the compiled horizon they
	// are fully determined by the contact runs, which is all a restored
	// set can know.
	Edges []RawEdge

	// NodeNames carries the graph's node names, or nil when every node
	// has its default "v<i>" name (the common case for builder-made and
	// ingested sets; omitting them keeps snapshots of large graphs
	// compact).
	NodeNames []string
}

// RawEdge is one edge-table entry of a RawSnapshot.
type RawEdge struct {
	From, To Node
	Label    Symbol
}

// Raw returns the persistable view of the set. The slices are shared
// with c; callers must treat them as read-only.
func (c *ContactSet) Raw() RawSnapshot {
	r := RawSnapshot{
		Nodes:    c.g.NumNodes(),
		Horizon:  c.horizon,
		Revision: c.rev,
		LastDep:  c.lastDep,
		Contacts: c.contacts,
		EdgeOff:  c.edgeOff,
		ByTime:   c.byTime,
		TimeOff:  c.timeOff,
		Edges:    make([]RawEdge, c.g.NumEdges()),
	}
	for i := range r.Edges {
		e := &c.g.edges[i]
		r.Edges[i] = RawEdge{From: e.From, To: e.To, Label: e.Label}
	}
	for i, name := range c.g.nodeNames {
		if name != defaultNodeName(i) {
			r.NodeNames = append([]string(nil), c.g.nodeNames...)
			break
		}
	}
	return r
}

// corrupt builds the error FromRaw reports for a structurally invalid
// snapshot. Every path through FromRaw that rejects input goes through
// it, so internal/store can classify the failure uniformly.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("tvg: corrupt snapshot: "+format, args...)
}

// FromRaw validates r against every layout invariant of DESIGN.md §1
// and assembles a live ContactSet from it: the graph is rebuilt with
// per-edge schedule views over the frozen contact runs (exact within
// the horizon, absent beyond it, like the append path's edges), the
// node index is re-derived, and the revision stamp is restored on a
// FRESH lineage — checkpoints taken before the snapshot was written do
// not resume across a process boundary, but every checkpoint taken on
// the restored set advances incrementally as usual.
//
// Validation is complete: arbitrary input can make FromRaw fail, never
// produce a set that violates the invariants the sweeps rely on. It
// runs in O(contacts + LastDep) — linear passes only. TimeOff must be
// the watermark-length index of DESIGN.md §1 (LastDep+2 entries).
func FromRaw(r RawSnapshot) (*ContactSet, error) {
	nc := len(r.Contacts)
	switch {
	case r.Nodes < 0:
		return nil, corrupt("negative node count %d", r.Nodes)
	case r.Horizon < 0:
		return nil, corrupt("negative horizon %d", r.Horizon)
	case r.LastDep < -1 || r.LastDep > r.Horizon:
		return nil, corrupt("lastDep stamp %d outside [-1, %d]", r.LastDep, r.Horizon)
	case r.NodeNames != nil && len(r.NodeNames) != r.Nodes:
		return nil, corrupt("%d node names for %d nodes", len(r.NodeNames), r.Nodes)
	case len(r.EdgeOff) != len(r.Edges)+1:
		return nil, corrupt("edgeOff length %d for %d edges", len(r.EdgeOff), len(r.Edges))
	case len(r.ByTime) != nc:
		return nil, corrupt("byTime length %d for %d contacts", len(r.ByTime), nc)
	case int64(len(r.TimeOff)) != int64(r.LastDep)+2:
		return nil, corrupt("timeOff length %d for lastDep %d", len(r.TimeOff), r.LastDep)
	case r.EdgeOff[0] != 0 || int(r.EdgeOff[len(r.EdgeOff)-1]) != nc:
		return nil, corrupt("edgeOff does not bracket the contact array")
	case r.TimeOff[0] != 0 || int(r.TimeOff[len(r.TimeOff)-1]) != nc:
		return nil, corrupt("timeOff does not bracket the contact array")
	}

	// Edge table: endpoints in range. Labels are free-form.
	for i := range r.Edges {
		e := &r.Edges[i]
		if e.From < 0 || int(e.From) >= r.Nodes || e.To < 0 || int(e.To) >= r.Nodes {
			return nil, corrupt("edge %d endpoints (%d, %d) outside %d nodes", i, e.From, e.To, r.Nodes)
		}
	}

	// Per-edge brackets: offsets nondecreasing, each contact carrying its
	// bracket's edge id and endpoints, departures strictly increasing
	// within an edge, every (dep, arr) pair inside the model. The
	// in-horizon latency bound is derived on the way.
	var maxLat Time
	for e := 0; e < len(r.Edges); e++ {
		lo, hi := int(r.EdgeOff[e]), int(r.EdgeOff[e+1])
		if lo > hi || lo < 0 || hi > nc {
			return nil, corrupt("edgeOff[%d..%d] = [%d, %d) out of order", e, e+1, lo, hi)
		}
		for i := lo; i < hi; i++ {
			ct := &r.Contacts[i]
			if int(ct.Edge) != e {
				return nil, corrupt("contact %d carries edge %d inside edge %d's bracket", i, ct.Edge, e)
			}
			if ct.From != r.Edges[e].From || ct.To != r.Edges[e].To {
				return nil, corrupt("contact %d endpoints (%d, %d) disagree with edge %d (%d, %d)",
					i, ct.From, ct.To, e, r.Edges[e].From, r.Edges[e].To)
			}
			if ct.Dep < 0 || ct.Dep > r.Horizon {
				return nil, corrupt("contact %d departs at %d outside [0, %d]", i, ct.Dep, r.Horizon)
			}
			if ct.Arr <= ct.Dep {
				return nil, corrupt("contact %d has latency %d < 1", i, ct.Arr-ct.Dep)
			}
			if i > lo && r.Contacts[i-1].Dep >= ct.Dep {
				return nil, corrupt("edge %d departures not strictly increasing at contact %d", e, i)
			}
			maxLat = max(maxLat, inHorizonLatency(ct, r.Horizon))
		}
	}

	// Per-tick brackets: every byTime entry in tick t's bucket must name
	// a contact departing at t, in strictly ascending edge order. Strict
	// ascent makes the entries of a bucket distinct; with the totals
	// matching (timeOff's last bracket is nc) and each contact eligible
	// for exactly one bucket, byTime is a permutation by pigeonhole —
	// which also proves that no contact departs after LastDep.
	for t := Time(0); t <= r.LastDep; t++ {
		lo, hi := int(r.TimeOff[t]), int(r.TimeOff[t+1])
		if lo > hi || lo < 0 || hi > nc {
			return nil, corrupt("timeOff[%d..%d] = [%d, %d) out of order", t, t+1, lo, hi)
		}
		for i := lo; i < hi; i++ {
			k := r.ByTime[i]
			if k < 0 || int(k) >= nc {
				return nil, corrupt("byTime[%d] = %d outside the contact array", i, k)
			}
			if r.Contacts[k].Dep != t {
				return nil, corrupt("byTime[%d] departs at %d inside tick %d's bucket", i, r.Contacts[k].Dep, t)
			}
			if i > lo && r.Contacts[r.ByTime[i-1]].Edge >= r.Contacts[k].Edge {
				return nil, corrupt("tick %d's bucket not in ascending edge order at %d", t, i)
			}
		}
	}

	// The lastDep watermark must match the contact stream — the append
	// path resumes from it, so a stale stamp would mis-order appends.
	wantLast := Time(-1)
	if nc > 0 {
		wantLast = r.Contacts[r.ByTime[nc-1]].Dep
	}
	if r.LastDep != wantLast {
		return nil, corrupt("lastDep stamp %d disagrees with the contact stream's %d", r.LastDep, wantLast)
	}

	// Clip every array's capacity to its length: the slices may share a
	// longer append chain's backing (Raw shares, it does not copy), and
	// the restored set's own append path must never win an in-place
	// extension into capacity it does not exclusively own.
	cs := &ContactSet{
		horizon:  r.Horizon,
		contacts: r.Contacts[:len(r.Contacts):len(r.Contacts)],
		edgeOff:  r.EdgeOff[:len(r.EdgeOff):len(r.EdgeOff)],
		byTime:   r.ByTime[:len(r.ByTime):len(r.ByTime)],
		timeOff:  r.TimeOff[:len(r.TimeOff):len(r.TimeOff)],
		rev:      r.Revision,
		lastDep:  r.LastDep,
		maxLat:   maxLat,
		lin:      &lineage{},
	}

	g := New()
	if r.NodeNames != nil {
		for i, name := range r.NodeNames {
			if _, dup := g.nodeIndex[name]; dup {
				return nil, corrupt("duplicate node name %q", name)
			}
			g.nodeNames = append(g.nodeNames, name)
			g.nodeIndex[name] = Node(i)
			g.out = append(g.out, nil)
		}
	} else {
		g.AddNodes(r.Nodes)
	}
	g.edges = make([]Edge, 0, len(r.Edges))
	views := make([]sliceSchedule, len(r.Edges))
	for i := range r.Edges {
		views[i] = sliceSchedule{contacts: r.Contacts[r.EdgeOff[i]:r.EdgeOff[i+1]]}
		g.edges = append(g.edges, Edge{
			From: r.Edges[i].From, To: r.Edges[i].To, Label: r.Edges[i].Label,
			Presence: &views[i], Latency: &views[i],
		})
		g.out[r.Edges[i].From] = append(g.out[r.Edges[i].From], EdgeID(i))
	}
	cs.g = g
	cs.buildNodeIndexes()
	return cs, nil
}
