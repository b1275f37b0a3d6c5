package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// outcome is one request as the load generator saw it. Times are
// relative to the window's start; for the open loop, due is when the
// request should have been sent and latency runs from it.
type outcome struct {
	req             int32
	due, sent, done time.Duration
	status          int
	err             string // transport error or wrong answer; "" when ok
}

func (o *outcome) ok() bool { return o.err == "" && o.status >= 200 && o.status < 300 }

// latency is the round trip, timed from the due time in the open loop.
func (o *outcome) latency(openLoop bool) time.Duration {
	if openLoop {
		return o.done - o.due
	}
	return o.done - o.sent
}

// clientRun is what one load goroutine recorded.
type clientRun struct {
	outs []outcome
	// answers holds the first 2xx body of every request (elapsedMs
	// stripped); a repeated request must get the same bytes back.
	answers map[int32][]byte
}

// sender performs one request: over HTTP in the benchmark, a stub in
// tests.
type sender func(ctx context.Context, r *request) (status int, body []byte, err error)

// httpSender sends over one connection of its own: MaxConnsPerHost 1
// pins every request of the client, and so every batch of its streams, to
// that connection, in order.
func httpSender(base string) (sender, func()) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	cl := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	send := func(ctx context.Context, r *request) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cl.Do(req)
		if err != nil {
			return 0, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body, err
	}
	return send, tr.CloseIdleConnections
}

// openLoopLimit bounds how long after the window an open-loop client may
// keep sending requests that fell behind schedule; the rest count as
// failed.
const openLoopLimit = 30 * time.Second

// runClient sends client c's share of the plan. The closed loop sends the
// next request when the previous one is answered, until the window ends.
// The open loop sends each request at its due time (or at once, if the
// connection is still busy with an earlier one).
func runClient(ctx context.Context, p *plan, c int, send sender, start time.Time, window time.Duration) clientRun {
	run := clientRun{answers: make(map[int32][]byte)}
	for _, ri := range p.seq[c] {
		r := &p.reqs[ri]
		o := outcome{req: ri, due: r.due}
		if p.openLoop {
			if wait := time.Until(start.Add(r.due)); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
				}
			}
			if time.Since(start) > window+openLoopLimit {
				o.sent, o.done, o.err = o.due, o.due, "not sent: generator fell too far behind"
				run.outs = append(run.outs, o)
				continue
			}
		} else if time.Since(start) >= window {
			break
		}
		if ctx.Err() != nil {
			break
		}
		o.sent = time.Since(start)
		status, body, err := send(ctx, r)
		o.done = time.Since(start)
		o.status = status
		switch {
		case err != nil:
			o.err = err.Error()
		case status < 200 || status >= 300:
			o.err = fmt.Sprintf("status %d: %.120s", status, body)
		default:
			body = stripElapsed(body)
			if first, seen := run.answers[ri]; !seen {
				run.answers[ri] = body
			} else if !bytes.Equal(first, body) {
				o.err = "answer differs from an earlier answer to the same request"
			}
		}
		run.outs = append(run.outs, o)
	}
	return run
}

// runClients runs every client concurrently and returns when all are
// done. A panicking client is reported as an error, not a crash, so the
// run still reaps its server.
func runClients(ctx context.Context, p *plan, senders []sender, start time.Time, window time.Duration) ([]clientRun, error) {
	runs := make([]clientRun, len(p.seq))
	errs := make([]error, len(p.seq))
	var wg sync.WaitGroup
	for c := range p.seq {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					errs[c] = fmt.Errorf("load client %d panicked: %v", c, v)
				}
			}()
			runs[c] = runClient(ctx, p, c, senders[c], start, window)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, ctx.Err()
}
