package main

import (
	"encoding/json"
	"strings"
	"testing"

	"tvgwait/internal/engine"
)

func row(mode string, connected bool, reach int, diam int64) engine.ModeMetrics {
	r := engine.ModeMetrics{Mode: mode, Connected: connected, ReachablePairs: reach, TotalPairs: 16,
		Diameter: -1, EccMin: -1, EccP50: -1, EccP90: -1, EccMax: -1}
	if connected {
		r.Diameter, r.EccMin, r.EccP50, r.EccP90, r.EccMax = diam, diam/2, diam/2, diam, diam
	}
	return r
}

func TestCheckLadder(t *testing.T) {
	good := []engine.ModeMetrics{row("nowait", false, 9, 0), row("wait[2]", true, 16, 9), row("wait", true, 16, 7)}
	if err := checkLadder(good); err != nil {
		t.Errorf("valid ladder rejected: %v", err)
	}
	// Request order need not be budget order.
	shuffled := []engine.ModeMetrics{good[2], good[0], good[1]}
	if err := checkLadder(shuffled); err != nil {
		t.Errorf("valid ladder in request order rejected: %v", err)
	}
	eccGrew := row("wait", true, 16, 7)
	eccGrew.EccP50 = 8
	for name, rows := range map[string][]engine.ModeMetrics{
		"reach falls":            {row("nowait", false, 12, 0), row("wait:4", false, 11, 0)},
		"connection lost":        {row("wait[1]", true, 16, 5), row("wait", false, 15, 0)},
		"diameter grows":         {row("nowait", true, 16, 5), row("wait", true, 16, 6)},
		"ecc quantile grows":     {row("wait[2]", true, 16, 9), eccGrew},
		"violation out of order": {row("wait", false, 10, 0), row("nowait", false, 11, 0)},
	} {
		if err := checkLadder(rows); err == nil {
			t.Errorf("%s: violation accepted", name)
		}
	}
	if err := checkLadder([]engine.ModeMetrics{row("sometimes", true, 16, 1)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestCheckAnswer(t *testing.T) {
	spectrum := func(rows ...engine.ModeMetrics) []byte {
		b, _ := json.Marshal(engine.SpectrumReport{Rungs: rows})
		return b
	}
	if err := checkAnswer("/spectrum", spectrum(row("nowait", false, 9, 0), row("wait", true, 16, 3))); err != nil {
		t.Errorf("valid spectrum rejected: %v", err)
	}
	if err := checkAnswer("/spectrum", spectrum(row("wait", true, 16, 3), row("nowait", false, 9, 0))); err == nil {
		t.Error("spectrum rungs out of budget order accepted")
	}
	sim := func(nowait, wait int) []byte {
		b, _ := json.Marshal(engine.Report{Unicast: []engine.ModeReport{
			{Mode: "nowait", Delivered: nowait}, {Mode: "wait[4]", Delivered: (nowait + wait) / 2}, {Mode: "wait", Delivered: wait}}})
		return b
	}
	if err := checkAnswer("/simulate", sim(3, 7)); err != nil {
		t.Errorf("valid simulation rejected: %v", err)
	}
	if err := checkAnswer("/simulate", sim(8, 7)); err == nil {
		t.Error("nowait delivering more than wait accepted")
	}
	if err := checkAnswer("/journey", []byte(`{"found":`)); err == nil {
		t.Error("truncated journey body accepted")
	}
}

func TestSameAnswerIgnoresElapsed(t *testing.T) {
	served := []byte(`{"contacts":5,"unicast":[{"mode":"nowait","delivered":1}],"elapsedMs":17}` + "\n")
	replayed := []byte(`{"contacts":5,"unicast":[{"mode":"nowait","delivered":1}]}` + "\n")
	if err := sameAnswer(served, replayed); err != nil {
		t.Errorf("elapsedMs not ignored: %v", err)
	}
	if got := string(stripElapsed(served)); got != strings.TrimSpace(string(replayed))+"\n" {
		t.Errorf("stripElapsed = %q", got)
	}
	if err := sameAnswer(served, []byte(`{"contacts":6,"unicast":[{"mode":"nowait","delivered":1}]}`)); err == nil {
		t.Error("differing field accepted")
	}
}
