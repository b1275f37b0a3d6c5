package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span classes: how the engine served the call a span brackets. They are
// read from engine.WithCacheTrace (and, for stream reads, from whether the
// stream grew since the same question was last asked).
const (
	classNone    uint8 = iota
	classHit           // every cache lookup hit
	classMiss          // a generated-spec cache built the entry
	classAdvance       // a stream checkpoint was advanced by suffix replay
	classCold          // a stream checkpoint was built from scratch
)

var classNames = [...]string{"", "hit", "miss", "advance", "cold"}

// span is one timed call at a layer boundary. Start and end are
// nanoseconds since the trace epoch; parent indexes the same buffer (-1
// for a request's root span). n carries a size the layer reported: bytes
// encoded, contacts built or contacts appended.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int32
	class      uint8
	n          int64
}

// spanBuf records the spans of one load goroutine. A nil *spanBuf records
// nothing, so untraced replays run the same code without branching.
type spanBuf struct {
	epoch time.Time
	spans []span
}

func newSpanBuf(epoch time.Time, capacity int) *spanBuf {
	return &spanBuf{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (-1 on a nil buffer).
func (b *spanBuf) begin(name string, parent, req int32) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: int64(time.Since(b.epoch)), parent: parent, req: req})
	return int32(len(b.spans) - 1)
}

// end closes span i, tagging it with a class and a size.
func (b *spanBuf) end(i int32, class uint8, n int64) {
	if b == nil || i < 0 {
		return
	}
	s := &b.spans[i]
	s.end = int64(time.Since(b.epoch))
	s.class = class
	s.n = n
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, indexed like spans. Children may nest or overlap each
// other; the union of their intervals, clipped to the parent, is what is
// subtracted.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curStart, curEnd int64
		open := false
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.start), min(iv[1], s.end)
			switch {
			case hi <= lo:
			case open && lo <= curEnd:
				curEnd = max(curEnd, hi)
			default:
				if open {
					covered += curEnd - curStart
				}
				curStart, curEnd, open = lo, hi, true
			}
		}
		if open {
			covered += curEnd - curStart
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// traceSummary collects what the per-layer metrics need from the spans.
type traceSummary struct {
	dur  map[string]sample // span durations by name (or name/class), ns
	self map[string]sample // self times, ns
	n    map[string]sample // reported sizes
	// reqDur and reqSelf are the request spans' total and self times.
	reqDur, reqSelf sample
}

// summarize folds every buffer's spans into a traceSummary. Spans are
// filed under their name and, when classified, also under name/class.
func summarize(bufs []*spanBuf) *traceSummary {
	ts := &traceSummary{dur: map[string]sample{}, self: map[string]sample{}, n: map[string]sample{}}
	for _, b := range bufs {
		selfs := selfTimes(b.spans)
		for i, s := range b.spans {
			keys := []string{s.name}
			if s.class != classNone {
				keys = append(keys, s.name+"/"+classNames[s.class])
			}
			for _, k := range keys {
				ts.dur[k] = append(ts.dur[k], float64(s.end-s.start))
				ts.self[k] = append(ts.self[k], float64(selfs[i]))
				ts.n[k] = append(ts.n[k], float64(s.n))
			}
			if s.parent < 0 {
				ts.reqDur = append(ts.reqDur, float64(s.end-s.start))
				ts.reqSelf = append(ts.reqSelf, float64(selfs[i]))
			}
		}
	}
	return ts
}

// writeSpans writes every span as one JSON line to path.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for g, b := range bufs {
		for i, s := range b.spans {
			line := struct {
				Goroutine int    `json:"g"`
				ID        int    `json:"id"`
				Name      string `json:"name"`
				Req       int32  `json:"req"`
				Parent    int32  `json:"parent"`
				StartNS   int64  `json:"start_ns"`
				EndNS     int64  `json:"end_ns"`
				Class     string `json:"class,omitempty"`
				N         int64  `json:"n,omitempty"`
			}{g, i, s.name, s.req, s.parent, s.start, s.end, classNames[s.class], s.n}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
