package journey

import "tvgwait/internal/tvg"

// TemporalEccentricity returns the worst foremost delay from src: the
// maximum over all nodes of (foremost arrival − t0) for journeys
// departing no earlier than t0. ok is false if some node is unreachable
// within the horizon (the eccentricity is then undefined). It runs as a
// single-source bit-parallel sweep — one pass over the contact stream
// instead of one Foremost search per destination. One source fills one
// bit, so the sweep is always single-lane.
func TemporalEccentricity(c *tvg.ContactSet, mode Mode, src tvg.Node, t0 tvg.Time) (tvg.Time, bool) {
	if !c.Graph().ValidNode(src) || !mode.IsValid() {
		return 0, false
	}
	s := getMsScratch()
	defer putMsScratch(s)
	s.sweep(c, mode, int(src), 1, t0, true, 1, nil, nil)
	if s.unreached > 0 {
		return 0, false
	}
	n := c.Graph().NumNodes()
	var worst tvg.Time
	for v := 0; v < n; v++ {
		if d := s.first[v*blockBits] - t0; d > worst {
			worst = d
		}
	}
	return worst, true
}

// TemporalDiameter returns the maximum temporal eccentricity over all
// sources: the worst-case foremost delay between any ordered pair of
// nodes. ok is false if the graph is not temporally connected from t0
// within the horizon.
//
// Together with TemporallyConnected this quantifies how "usable" a
// dynamic network is under each waiting semantics — on sparse TVGs the
// diameter is typically finite under Wait and undefined under NoWait,
// which is the journey-level face of the paper's expressivity gap.
// Implementation: one bit-parallel sweep per source block at the
// automatic width W (O(⌈N/(64·W)⌉·contacts) instead of O(N²) Foremost
// searches), aborting at the first block that leaves a pair unreached.
func TemporalDiameter(c *tvg.ContactSet, mode Mode, t0 tvg.Time) (tvg.Time, bool) {
	n := c.Graph().NumNodes()
	if n == 0 {
		return 0, true
	}
	if !mode.IsValid() {
		return 0, false
	}
	w := autoWidth(n, pendingRing(c, t0).n, 1, 1)
	s := getMsScratch()
	defer putMsScratch(s)
	var worst tvg.Time
	step := w * blockBits
	for base := 0; base < n; base += step {
		cnt := min(step, n-base)
		s.sweep(c, mode, base, cnt, t0, true, w, nil, nil)
		if s.unreached > 0 {
			return 0, false
		}
		// Lanes are node-contiguous in first, so (node, source j) of this
		// block sits at [v*s.w*64 + j]: one flat scan per node covers
		// every lane.
		for v := 0; v < n; v++ {
			fb := v * s.w * blockBits
			for j := 0; j < cnt; j++ {
				if d := s.first[fb+j] - t0; d > worst {
					worst = d
				}
			}
		}
	}
	return worst, true
}
