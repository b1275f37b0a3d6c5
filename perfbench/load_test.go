package main

import (
	"context"
	"testing"
	"time"
)

// TestDueTimeLatencyBehindStalledConnection: in the open loop, a request
// queued behind a stalled one on the same connection is timed from when
// it was due, so the stall shows in its latency, while the generator
// itself is not reported late.
func TestDueTimeLatencyBehindStalledConnection(t *testing.T) {
	const stall = 150 * time.Millisecond
	p := &plan{openLoop: true, seq: [][]int32{{0, 1, 2}}}
	for i := 0; i < 3; i++ {
		p.add(-1, request{path: "/contacts", body: []byte(`{}`), due: time.Duration(i) * 20 * time.Millisecond}, "")
	}
	send := func(_ context.Context, r *request) (int, []byte, error) {
		if r.due == 0 {
			time.Sleep(stall)
		}
		return 200, []byte(`{"ok":true}`), nil
	}
	run := runClient(context.Background(), p, 0, send, time.Now(), time.Second)
	if len(run.outs) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(run.outs))
	}
	for i, o := range run.outs {
		if !o.ok() {
			t.Fatalf("request %d failed: %s", i, o.err)
		}
		// Every request completes no earlier than the stall's end, so its
		// due-time latency includes the part of the stall after its due
		// time; a send-time latency would read near zero for 1 and 2.
		if want := stall - o.due; o.latency(true) < want {
			t.Errorf("request %d: due-time latency %v, want >= %v", i, o.latency(true), want)
		}
		if i > 0 && o.latency(false) > stall/3 {
			t.Errorf("request %d: send-time latency %v should exclude the queueing", i, o.latency(false))
		}
	}
	for i, l := range generatorLag([]clientRun{run}) {
		if l > float64(stall/3)/1e6 {
			t.Errorf("request %d: generator lag %.1f ms counts the stalled connection", i, l)
		}
	}
}

// TestClosedLoopStopsAtWindow checks that the closed loop sends nothing
// once the window is over and flags an answer that changes between two
// sends of the same request.
func TestClosedLoopStopsAtWindow(t *testing.T) {
	p := &plan{seq: [][]int32{{0, 0, 0, 0, 0, 0}}}
	p.add(-1, request{path: "/metrics", body: []byte(`{}`)}, "")
	calls := 0
	send := func(context.Context, *request) (int, []byte, error) {
		calls++
		time.Sleep(20 * time.Millisecond)
		if calls == 2 {
			return 200, []byte(`{"reachablePairs":2}`), nil
		}
		return 200, []byte(`{"reachablePairs":1}`), nil
	}
	run := runClient(context.Background(), p, 0, send, time.Now(), 50*time.Millisecond)
	if calls < 2 || calls > 4 {
		t.Fatalf("sent %d requests in a 50ms window of 20ms requests", calls)
	}
	if run.outs[0].err != "" || run.outs[1].err == "" {
		t.Errorf("a changed answer to a repeated request must fail: %+v", run.outs[:2])
	}
}
