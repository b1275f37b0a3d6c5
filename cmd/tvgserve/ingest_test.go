package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tvgwait/internal/engine"
	"tvgwait/internal/journey"
)

// postJSON posts body to path and decodes the JSON response into v
// (skipped when v is nil), returning the status code.
func postJSON(t *testing.T, url, body string, v any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v == nil || resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return resp.StatusCode
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode
}

// TestLiveIngest drives the live pipeline end to end over HTTP: create
// a stream, interleave /contacts batches with /metrics and /spectrum
// reads, and watch connectivity grow monotonically as a directed ring
// closes — each read answered at the stream's latest revision.
func TestLiveIngest(t *testing.T) {
	_, ts := testServer(t, time.Minute, 4)

	var ing engine.IngestReport
	if st := postJSON(t, ts.URL+"/contacts",
		`{"stream": "ring", "nodes": 5, "horizon": 40}`, &ing); st != http.StatusOK {
		t.Fatalf("create status = %d, want 200", st)
	}
	if ing.Revision != 0 || ing.Contacts != 0 || ing.Nodes != 5 {
		t.Fatalf("create report = %+v", ing)
	}

	metricsBody := `{"graph": {"model": "stream", "stream": "ring"}, "modes": ["wait"]}`
	batches := []string{
		`{"stream": "ring", "contacts": [
			{"from": 0, "to": 1, "dep": 1, "arr": 2}, {"from": 1, "to": 2, "dep": 3, "arr": 4}]}`,
		`{"stream": "ring", "contacts": [
			{"from": 2, "to": 3, "dep": 5, "arr": 6}, {"from": 3, "to": 4, "dep": 7, "arr": 8}]}`,
		`{"stream": "ring", "contacts": [
			{"from": 4, "to": 0, "dep": 9, "arr": 10},
			{"from": 0, "to": 1, "dep": 11, "arr": 12}, {"from": 1, "to": 2, "dep": 13, "arr": 14},
			{"from": 2, "to": 3, "dep": 15, "arr": 16}, {"from": 3, "to": 4, "dep": 17, "arr": 18}]}`,
	}
	prevReach := -1
	for i, batch := range batches {
		if st := postJSON(t, ts.URL+"/contacts", batch, &ing); st != http.StatusOK {
			t.Fatalf("batch %d status = %d, want 200", i, st)
		}
		if ing.Revision != uint64(i+1) {
			t.Fatalf("batch %d revision = %d, want %d", i, ing.Revision, i+1)
		}
		var rep engine.MetricsReport
		if st := postJSON(t, ts.URL+"/metrics", metricsBody, &rep); st != http.StatusOK {
			t.Fatalf("batch %d metrics status = %d, want 200", i, st)
		}
		if len(rep.Modes) != 1 || rep.Contacts != ing.Contacts {
			t.Fatalf("batch %d metrics report = %+v", i, rep)
		}
		if rep.Modes[0].ReachablePairs < prevReach {
			t.Fatalf("batch %d reachable pairs shrank: %d -> %d (appends only add journeys)",
				i, prevReach, rep.Modes[0].ReachablePairs)
		}
		prevReach = rep.Modes[0].ReachablePairs
	}
	// The closed, twice-traversed ring is temporally connected under wait.
	var final engine.MetricsReport
	if st := postJSON(t, ts.URL+"/metrics", metricsBody, &final); st != http.StatusOK {
		t.Fatalf("final metrics status = %d", st)
	}
	if !final.Modes[0].Connected {
		t.Errorf("closed ring not connected under wait: %+v", final.Modes[0])
	}
	var spec engine.SpectrumReport
	if st := postJSON(t, ts.URL+"/spectrum",
		`{"graph": {"model": "stream", "stream": "ring"}, "modes": ["nowait", "wait:2", "wait"]}`,
		&spec); st != http.StatusOK {
		t.Fatalf("spectrum status = %d, want 200", st)
	}
	if len(spec.Rungs) != 3 || spec.FirstConnected == "" {
		t.Errorf("spectrum report = %+v", spec)
	}
}

// TestIngestErrors pins the /contacts error surface: unknown streams,
// missing shapes, watermark violations and unknown nodes are all the
// client's fault (400), and a failed batch leaves the stream readable.
func TestIngestErrors(t *testing.T) {
	_, ts := testServer(t, time.Minute, 2)
	cases := []struct {
		name, body string
	}{
		{"unknown stream", `{"stream": "ghost", "contacts": [{"from": 0, "to": 1, "dep": 1, "arr": 2}]}`},
		{"empty name", `{"stream": ""}`},
		{"bad shape", `{"stream": "s2", "nodes": 1, "horizon": 10}`},
	}
	for _, c := range cases {
		if st := postJSON(t, ts.URL+"/contacts", c.body, nil); st != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, st)
		}
	}
	if st := postJSON(t, ts.URL+"/contacts", `{"stream": "s", "nodes": 4, "horizon": 20, "contacts": [{"from": 0, "to": 1, "dep": 5, "arr": 6}]}`, nil); st != http.StatusOK {
		t.Fatalf("create+append status = %d", st)
	}
	// Departure at the watermark: rejected, stream unchanged.
	if st := postJSON(t, ts.URL+"/contacts", `{"stream": "s", "contacts": [{"from": 1, "to": 2, "dep": 5, "arr": 7}]}`, nil); st != http.StatusBadRequest {
		t.Errorf("watermark violation status = %d, want 400", st)
	}
	var rep engine.MetricsReport
	if st := postJSON(t, ts.URL+"/metrics",
		`{"graph": {"model": "stream", "stream": "s"}, "modes": ["wait"]}`, &rep); st != http.StatusOK {
		t.Fatalf("stream unreadable after failed batch: status = %d", st)
	}
	if rep.Contacts != 1 {
		t.Errorf("failed batch changed the stream: contacts = %d, want 1", rep.Contacts)
	}
	// Batch-simulating a stream spec is a 400, not a crash.
	if st := postJSON(t, ts.URL+"/simulate",
		`{"graph": {"model": "stream", "stream": "s"}}`, nil); st != http.StatusBadRequest {
		t.Errorf("simulate on stream: status = %d, want 400", st)
	}
}

// TestStreamReadT0 pins stream reads at a later t0: the request carries
// no horizon (the stream does), so t0 is checked against the live
// stream's own window. A read from t0 = 7 answers 200 with the rows of a
// library Sweep from 7; a t0 past the stream's horizon answers 400.
func TestStreamReadT0(t *testing.T) {
	srv, ts := testServer(t, time.Minute, 4)
	batch := `{"stream": "late", "nodes": 5, "horizon": 40, "contacts": [
		{"from": 0, "to": 1, "dep": 1, "arr": 2}, {"from": 1, "to": 2, "dep": 3, "arr": 4},
		{"from": 2, "to": 3, "dep": 5, "arr": 6}, {"from": 3, "to": 4, "dep": 7, "arr": 8},
		{"from": 4, "to": 0, "dep": 9, "arr": 10}, {"from": 0, "to": 1, "dep": 11, "arr": 12},
		{"from": 1, "to": 2, "dep": 13, "arr": 15}, {"from": 2, "to": 3, "dep": 16, "arr": 17}]}`
	if st := postJSON(t, ts.URL+"/contacts", batch, nil); st != http.StatusOK {
		t.Fatalf("ingest status = %d", st)
	}
	set, ok := srv.eng.Load().StreamSet("late")
	if !ok {
		t.Fatal("stream not registered")
	}
	modes := []journey.Mode{journey.NoWait(), journey.BoundedWait(2), journey.Wait()}
	ladder, err := journey.NewLadder(modes...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := journey.Sweep(context.Background(), set, ladder, 7, journey.SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(endpoint string, rows []engine.ModeMetrics) {
		t.Helper()
		if len(rows) != ladder.Len() {
			t.Fatalf("%s: %d rows, want %d", endpoint, len(rows), ladder.Len())
		}
		for r, row := range rows {
			m := want.Arrivals(r)
			diam, conn := m.Diameter()
			if !conn {
				diam = -1
			}
			if row.Mode != ladder.Mode(r).String() || row.ReachablePairs != m.ReachablePairs() ||
				row.Connected != conn || row.Diameter != diam {
				t.Fatalf("%s rung %d: row %+v, Sweep from 7 has %d pairs, connected %v, diameter %d",
					endpoint, r, row, m.ReachablePairs(), conn, diam)
			}
		}
	}
	var met engine.MetricsReport
	body := `{"graph": {"model": "stream", "stream": "late"}, "modes": ["nowait", "wait:2", "wait"], "t0": %d}`
	if st := postJSON(t, ts.URL+"/metrics", fmt.Sprintf(body, 7), &met); st != http.StatusOK {
		t.Fatalf("metrics at t0 7: status = %d, want 200", st)
	}
	check("/metrics", met.Modes)
	var spec engine.SpectrumReport
	if st := postJSON(t, ts.URL+"/spectrum", fmt.Sprintf(body, 7), &spec); st != http.StatusOK {
		t.Fatalf("spectrum at t0 7: status = %d, want 200", st)
	}
	check("/spectrum", spec.Rungs)
	for _, path := range []string{"/metrics", "/spectrum"} {
		if st := postJSON(t, ts.URL+path, fmt.Sprintf(body, 41), nil); st != http.StatusBadRequest {
			t.Errorf("%s at t0 past the stream horizon: status = %d, want 400", path, st)
		}
		if st := postJSON(t, ts.URL+path, fmt.Sprintf(body, -1), nil); st != http.StatusBadRequest {
			t.Errorf("%s at negative t0: status = %d, want 400", path, st)
		}
	}
}
