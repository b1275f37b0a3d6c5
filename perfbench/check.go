package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"tvgwait/internal/engine"
)

// The answer checks need no second implementation: the inclusion chain
// L_nowait ⊆ L_wait[d] ⊆ L_wait[d'] ⊆ L_wait (d < d') says that allowing
// more waiting can only add journeys and make foremost arrivals earlier.
// So up a ladder of waiting budgets reachable pairs never decrease, a
// connected rung stays connected, the diameter and eccentricity quantiles
// of connected rungs never increase, and a flood delivers no fewer
// messages.

// budget orders a mode name by its waiting budget: nowait is 0, wait[d]
// (or wait:d) is d, and unbounded wait is above every bound.
func budget(mode string) (int64, error) {
	switch {
	case mode == "nowait":
		return 0, nil
	case mode == "wait":
		return math.MaxInt64, nil
	case strings.HasPrefix(mode, "wait:"):
		return strconv.ParseInt(mode[len("wait:"):], 10, 64)
	case strings.HasPrefix(mode, "wait[") && strings.HasSuffix(mode, "]"):
		return strconv.ParseInt(mode[len("wait["):len(mode)-1], 10, 64)
	}
	return 0, fmt.Errorf("unknown mode %q", mode)
}

// checkLadder checks one multi-rung answer against the inclusion chain.
// Rows may come in any order; they are compared in budget order.
func checkLadder(rows []engine.ModeMetrics) error {
	type ranked struct {
		b   int64
		row engine.ModeMetrics
	}
	rs := make([]ranked, len(rows))
	for i, r := range rows {
		b, err := budget(r.Mode)
		if err != nil {
			return err
		}
		rs[i] = ranked{b, r}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].b < rs[j].b })
	for i := 1; i < len(rs); i++ {
		lo, hi := rs[i-1].row, rs[i].row
		switch {
		case hi.ReachablePairs < lo.ReachablePairs:
			return fmt.Errorf("reachablePairs fell from %d under %s to %d under %s", lo.ReachablePairs, lo.Mode, hi.ReachablePairs, hi.Mode)
		case lo.Connected && !hi.Connected:
			return fmt.Errorf("connected under %s but not under %s", lo.Mode, hi.Mode)
		case lo.Connected && (hi.Diameter > lo.Diameter || hi.EccMin > lo.EccMin ||
			hi.EccP50 > lo.EccP50 || hi.EccP90 > lo.EccP90 || hi.EccMax > lo.EccMax):
			return fmt.Errorf("diameter or eccentricity grew from %s to %s", lo.Mode, hi.Mode)
		}
	}
	return nil
}

// checkAnswer applies the invariant checks to one served 2xx body.
func checkAnswer(path string, body []byte) error {
	switch path {
	case "/metrics":
		var rep engine.MetricsReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return err
		}
		return checkLadder(rep.Modes)
	case "/spectrum":
		var rep engine.SpectrumReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return err
		}
		for i := 1; i < len(rep.Rungs); i++ {
			lo, _ := budget(rep.Rungs[i-1].Mode)
			hi, err := budget(rep.Rungs[i].Mode)
			if err != nil || hi <= lo {
				return fmt.Errorf("spectrum rungs not in increasing budget order at %d", i)
			}
		}
		return checkLadder(rep.Rungs)
	case "/simulate":
		var rep engine.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			return err
		}
		return checkDelivery(rep.Unicast)
	default:
		// /journey and /contacts have no ladder; the sampled comparison
		// with the in-process replay checks them.
		if !json.Valid(body) {
			return fmt.Errorf("invalid JSON body")
		}
		return nil
	}
}

// checkDelivery checks that flooding delivers no fewer messages as the
// waiting budget grows (in particular nowait <= wait).
func checkDelivery(rows []engine.ModeReport) error {
	for i := range rows {
		for j := range rows {
			bi, err := budget(rows[i].Mode)
			if err != nil {
				return err
			}
			bj, _ := budget(rows[j].Mode)
			if bi < bj && rows[i].Delivered > rows[j].Delivered {
				return fmt.Errorf("%s delivered %d messages but %s only %d", rows[i].Mode, rows[i].Delivered, rows[j].Mode, rows[j].Delivered)
			}
		}
	}
	return nil
}

var elapsedField = []byte(`,"elapsedMs":`)

// stripElapsed drops /simulate's wall-clock field, the last one tvgserve
// writes and the one part of a served answer that is not a function of
// the request.
func stripElapsed(body []byte) []byte {
	if i := bytes.LastIndex(body, elapsedField); i >= 0 {
		return append(body[:i:i], '}', '\n')
	}
	return body
}

// sameAnswer compares a served body with the in-process replay's body
// field for field, ignoring elapsedMs.
func sameAnswer(served, replayed []byte) error {
	var a, b any
	if err := json.Unmarshal(served, &a); err != nil {
		return fmt.Errorf("served body: %v", err)
	}
	if err := json.Unmarshal(replayed, &b); err != nil {
		return fmt.Errorf("replayed body: %v", err)
	}
	if m, ok := a.(map[string]any); ok {
		delete(m, "elapsedMs")
	}
	if m, ok := b.(map[string]any); ok {
		delete(m, "elapsedMs")
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("served %.200s\nreplayed %.200s", served, replayed)
	}
	return nil
}
