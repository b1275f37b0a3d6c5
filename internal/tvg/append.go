package tvg

import (
	"fmt"
	"math"
	"sort"
)

// The append path: a ContactSet compiled over a fixed window [0, horizon]
// can be FILLED incrementally — a live deployment learns contacts in
// departure order, and each learned batch departs strictly after
// everything already known. AppendContacts (and the streaming
// Builder.Extend) validate exactly that and produce a new revision-
// stamped ContactSet:
//
//   - every appended batch becomes FRESH edge ids (one per maximal
//     same-endpoint run of strictly increasing departures), so the
//     (edge, departure) sort of the contact array is preserved by pure
//     append — parallel edges are legal and the sweeps read denormalized
//     From/To, never the edge id;
//   - contacts, edgeOff, byTime and timeOff share the frozen prefix
//     with the parent (the parent's extClaim arbitrates in-place
//     extension of spare capacity; losers and capacity misses copy with
//     ~25% headroom so a linear append chain settles into O(batch)
//     amortized work). timeOff ends at the watermark, so a batch adds
//     one entry per tick it advances the watermark by, never a horizon's
//     worth;
//   - the Graph's edge list and touched adjacency extend under the same
//     claim; only the flat node→edges CSR is re-derived per revision
//     (O(nodes) of cheap int work), so the per-batch cost is far below
//     any sweep over the set and independent of the horizon.
//
// The horizon itself never moves: extending it would re-classify old
// past-horizon terminal arrivals, invalidating every checkpoint taken on
// an earlier revision. Streams that need a longer window start a new set.

// ContactRecord is one contact of an append batch: endpoints and times,
// no edge id — AppendContacts assigns fresh ids per batch.
type ContactRecord struct {
	From Node `json:"from"`
	To   Node `json:"to"`
	Dep  Time `json:"dep"`
	Arr  Time `json:"arr"`
}

// AppendContacts returns a new revision of c extended by recs, which may
// arrive in any order but must all depart strictly after c.LastDep() and
// within the horizon, with arrival after departure and endpoints in
// range. c itself is unchanged (an empty batch returns c). The new
// revision shares c's frozen contact prefix; c and every earlier
// revision remain valid and safe for concurrent use.
func (c *ContactSet) AppendContacts(recs []ContactRecord) (*ContactSet, error) {
	if len(recs) == 0 {
		return c, nil
	}
	n := c.g.NumNodes()
	sorted := make([]ContactRecord, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Dep != b.Dep {
			return a.Dep < b.Dep
		}
		return a.Arr < b.Arr
	})
	watermark := c.LastDep()
	edges := make([]builderEdge, 0, 8)
	batch := make([]Contact, 0, len(sorted))
	for _, r := range sorted {
		switch {
		case r.From < 0 || int(r.From) >= n || r.To < 0 || int(r.To) >= n:
			return nil, fmt.Errorf("tvg: append contact references unknown node (from=%d, to=%d, have %d nodes)", r.From, r.To, n)
		case r.Dep > c.horizon:
			return nil, fmt.Errorf("tvg: append departure %d outside horizon %d", r.Dep, c.horizon)
		case r.Dep <= watermark:
			return nil, fmt.Errorf("tvg: append departure %d not after the set's last departure %d", r.Dep, watermark)
		case r.Arr <= r.Dep:
			return nil, fmt.Errorf("tvg: append contact has latency %d < 1 at time %d", r.Arr-r.Dep, r.Dep)
		}
		// Group same-endpoint runs of strictly increasing departures into
		// one fresh edge; a repeated departure starts a parallel edge, so
		// duplicates never reject a batch.
		last := len(edges) - 1
		if last < 0 || edges[last].from != r.From || edges[last].to != r.To ||
			batch[len(batch)-1].Dep >= r.Dep {
			edges = append(edges, builderEdge{from: r.From, to: r.To, off: int32(len(batch))})
			last++
		}
		batch = append(batch, Contact{Edge: EdgeID(last), From: r.From, To: r.To, Dep: r.Dep, Arr: r.Arr})
	}
	return extendSet(c, edges, batch)
}

// extendSlice returns a slice that prefix's owner can append extra
// elements to: prefix itself when the in-place claim was won and the
// spare capacity suffices, otherwise a copy with ~25% headroom so the
// next linear extension goes in place.
func extendSlice[T any](prefix []T, inPlace bool, extra int) []T {
	if inPlace && cap(prefix)-len(prefix) >= extra {
		return prefix
	}
	need := len(prefix) + extra
	out := make([]T, len(prefix), need+need/4+16)
	copy(out, prefix)
	return out
}

// extendSet assembles one revision: base plus a validated batch whose
// contacts carry batch-local edge ids (0-based, (edge, dep)-sorted with
// strictly increasing departures per edge, all departures after
// base.LastDep() and within the horizon). Shared by AppendContacts and
// Builder.Extend's Finalize.
func extendSet(base *ContactSet, newEdges []builderEdge, batch []Contact) (*ContactSet, error) {
	oldC, oldE := len(base.contacts), base.g.NumEdges()
	if int64(oldC)+int64(len(batch)) > math.MaxInt32 {
		return nil, fmt.Errorf("tvg: schedule has more than %d contacts", math.MaxInt32)
	}
	cs := &ContactSet{horizon: base.horizon, rev: base.rev + 1, lastDep: -1, maxLat: base.maxLat}
	for i := range batch {
		cs.lastDep = max(cs.lastDep, batch[i].Dep)
		cs.maxLat = max(cs.maxLat, inHorizonLatency(&batch[i], base.horizon))
	}

	// One claim covers all four extendable arrays: the winner may write
	// base's spare capacity (beyond base's lengths — invisible to every
	// reader of base) and inherits the lineage token; a per-array capacity
	// miss just copies that array. A claim LOSER is a sibling branch: it
	// copies everything and starts a fresh lineage, so Extends never
	// conflates diverged streams.
	inPlace := base.extClaim.CompareAndSwap(false, true)
	cs.lin = base.lin
	if !inPlace || cs.lin == nil {
		cs.lin = &lineage{}
	}
	cs.contacts = extendSlice(base.contacts, inPlace, len(batch))
	for _, ct := range batch {
		ct.Edge += EdgeID(oldE)
		cs.contacts = append(cs.contacts, ct)
	}

	cs.edgeOff = extendSlice(base.edgeOff, inPlace, len(newEdges))
	for i := range newEdges {
		end := int32(len(batch))
		if i+1 < len(newEdges) {
			end = newEdges[i+1].off
		}
		cs.edgeOff = append(cs.edgeOff, int32(oldC)+end)
	}

	// byTime gains one suffix per batch: every new departure is later than
	// every old one, so the (Dep, Edge) order is append-only too, and so
	// is timeOff, which gains one entry per tick in (base.lastDep,
	// cs.lastDep].
	// Counting sort over those ticks; filling in batch (edge-major) order
	// keeps each tick's bucket in ascending edge order.
	lo := base.lastDep + 1 // first tick the batch may occupy (lastDep may be -1)
	if lo < 0 {
		lo = 0
	}
	span := int(cs.lastDep + 1 - lo)
	counts := make([]int32, span+1)
	for i := range batch {
		counts[batch[i].Dep-lo+1]++
	}
	for t := 1; t <= span; t++ {
		counts[t] += counts[t-1]
	}
	cs.timeOff = extendSlice(base.timeOff, inPlace, span)
	for t := 1; t <= span; t++ {
		cs.timeOff = append(cs.timeOff, int32(oldC)+counts[t])
	}
	cs.byTime = extendSlice(base.byTime, inPlace, len(batch))[:oldC+len(batch)]
	for i := range batch {
		cs.byTime[oldC+int(counts[batch[i].Dep-lo])] = int32(oldC + i)
		counts[batch[i].Dep-lo]++
	}

	// The Graph is extended, not rebuilt. Old edges keep their Edge
	// entries verbatim — their schedules stay exact within the horizon
	// because the frozen contact prefix pins their runs in every revision
	// — and only the new edges get fresh views over their own contact
	// runs, so a linear append chain pays O(batch + nodes), not
	// O(total edges), per revision. The edge list and the touched nodes'
	// adjacency lists extend under the same claim as the contact arrays;
	// node storage never changes on the append path and is shared down
	// the chain once the first revision has copied it out of the base
	// (whose graph may belong to the caller — rev 0 sets built by
	// NewContactSet share the caller's graph, which the claim does not
	// cover).
	owned := base.rev > 0 // base.g was built by extendSet, not a caller
	g := &Graph{out: make([][]EdgeID, base.g.NumNodes())}
	if owned {
		g.nodeNames, g.nodeIndex = base.g.nodeNames, base.g.nodeIndex
	} else {
		g.nodeNames = append([]string(nil), base.g.nodeNames...)
		g.nodeIndex = make(map[string]Node, len(g.nodeNames))
		for i, name := range g.nodeNames {
			g.nodeIndex[name] = Node(i)
		}
	}
	inPlaceG := inPlace && owned
	g.edges = extendSlice(base.g.edges, inPlaceG, len(newEdges))
	copy(g.out, base.g.out)
	newDeg := make([]int32, base.g.NumNodes())
	for i := range newEdges {
		newDeg[newEdges[i].from]++
	}
	for nn, deg := range newDeg {
		if deg > 0 {
			g.out[nn] = extendSlice(g.out[nn], inPlaceG, int(deg))
		}
	}
	views := make([]sliceSchedule, len(newEdges))
	for i := range newEdges {
		ne := &newEdges[i]
		end := int32(len(batch))
		if i+1 < len(newEdges) {
			end = newEdges[i+1].off
		}
		views[i] = sliceSchedule{contacts: cs.contacts[oldC+int(ne.off) : oldC+int(end)]}
		g.edges = append(g.edges, Edge{
			From: ne.from, To: ne.to, Label: ne.label,
			Presence: &views[i], Latency: &views[i],
		})
		g.out[ne.from] = append(g.out[ne.from], EdgeID(oldE+i))
	}
	cs.g = g
	cs.buildNodeIndexes()
	return cs, nil
}

// sliceSchedule adapts one appended edge's frozen contact run to the
// Presence and Latency interfaces, the append-path analogue of the
// builder's contactSchedule: exact within the compiled horizon, absent
// (latency 1) beyond it. Holding the run directly — rather than the
// revision that created the edge — keeps a long append chain from
// retaining every intermediate revision's indexes through its graph.
type sliceSchedule struct {
	contacts []Contact
}

// Present implements Presence.
func (s *sliceSchedule) Present(t Time) bool {
	i := sort.Search(len(s.contacts), func(i int) bool { return s.contacts[i].Dep >= t })
	return i < len(s.contacts) && s.contacts[i].Dep == t
}

// Crossing implements Latency.
func (s *sliceSchedule) Crossing(t Time) Time {
	i := sort.Search(len(s.contacts), func(i int) bool { return s.contacts[i].Dep >= t })
	if i < len(s.contacts) && s.contacts[i].Dep == t {
		return s.contacts[i].Arr - t
	}
	return 1
}
