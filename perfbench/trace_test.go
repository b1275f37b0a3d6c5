package main

import "testing"

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{name: "request", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},   // 1
		{name: "b", start: 30, end: 60, parent: 0},   // 2: overlaps a
		{name: "a.1", start: 15, end: 20, parent: 1}, // 3: nested in a
		{name: "c", start: 90, end: 120, parent: 0},  // 4: runs past its parent
		{name: "d", start: 50, end: 55, parent: 0},   // 5: inside b
	}
	got := selfTimes(spans)
	// request: children cover [10,60] and [90,100].
	want := []int64{40, 25, 30, 5, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestSummarizeClassesAndRoots(t *testing.T) {
	b := &spanBuf{spans: []span{
		{name: "request", start: 0, end: 10, parent: -1},
		{name: "engine.Metrics", start: 1, end: 9, parent: 0, class: classMiss},
		{name: "request", start: 20, end: 24, parent: -1},
		{name: "engine.Metrics", start: 20, end: 23, parent: 2, class: classHit},
	}}
	ts := summarize([]*spanBuf{b})
	if len(ts.reqDur) != 2 || ts.reqDur.mean() != 7 || ts.reqSelf.mean() != 1.5 {
		t.Errorf("request spans: dur %v self %v", ts.reqDur, ts.reqSelf)
	}
	if len(ts.self["engine.Metrics"]) != 2 || len(ts.self["engine.Metrics/miss"]) != 1 || ts.self["engine.Metrics/hit"][0] != 3 {
		t.Errorf("classified spans filed wrongly: %v", ts.self)
	}
}

func TestNilSpanBufRecordsNothing(t *testing.T) {
	var b *spanBuf
	i := b.begin("x", -1, 0)
	b.end(i, classHit, 1)
	if i != -1 {
		t.Errorf("nil buffer begin = %d, want -1", i)
	}
}
