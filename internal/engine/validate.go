package engine

// Exported request validation. Each method runs the same checks its
// engine entry point performs — field-naming ErrInvalidSpec errors via
// specErr — so a front end (cmd/tvgserve) can reject a malformed
// request BEFORE it claims an admission slot or reaches the engine.
// Validation is pure spec arithmetic: no generation, no allocation
// proportional to the declared sizes. The engine re-checks on entry;
// these are a fast pre-filter, not a contract shift.

import "tvgwait/internal/tvg"

// Validate checks the scenario spec (defaults applied first, matching
// Engine.Run).
func (s ScenarioSpec) Validate() error {
	return s.withDefaults().validate()
}

// Validate checks the graph spec's bounds.
func (g GraphSpec) Validate() error {
	return g.validate()
}

// Validate checks the metrics request: graph bounds, mode syntax and
// count, and the t0 window (see validateT0).
func (r MetricsRequest) Validate() error {
	if err := r.Graph.validate(); err != nil {
		return err
	}
	modes := r.Modes
	if len(modes) == 0 {
		modes = []string{"nowait", "wait"}
	}
	parsed, err := ParseModes(modes)
	if err != nil {
		return err
	}
	if len(parsed) > maxModes {
		return specErr("at most %d modes, got %d", maxModes, len(parsed))
	}
	return r.Graph.validateT0(r.T0)
}

// Validate checks the spectrum request: graph bounds, ladder syntax and
// size, and the t0 window (see validateT0).
func (r SpectrumRequest) Validate() error {
	if err := r.Graph.validate(); err != nil {
		return err
	}
	modes := r.Modes
	if len(modes) == 0 {
		modes = defaultLadder
	}
	parsed, err := ParseModes(modes)
	if err != nil {
		return err
	}
	if len(parsed) > maxModes {
		return specErr("at most %d modes, got %d", maxModes, len(parsed))
	}
	return r.Graph.validateT0(r.T0)
}

// Validate checks the journey request: graph bounds, mode and kind
// syntax, endpoint range and the t0 window.
func (r JourneyRequest) Validate() error {
	if err := r.Graph.validate(); err != nil {
		return err
	}
	if _, err := ParseMode(r.Mode); err != nil {
		return err
	}
	switch r.Kind {
	case "", "foremost", "minhop", "fastest":
	default:
		return specErr("unknown journey kind %q (want foremost | minhop | fastest)", r.Kind)
	}
	if r.Src < 0 || int(r.Src) >= r.Graph.Nodes || r.Dst < 0 || int(r.Dst) >= r.Graph.Nodes {
		return specErr("endpoints (%d, %d) outside [0, %d)", r.Src, r.Dst, r.Graph.Nodes)
	}
	return r.Graph.validateT0(r.T0)
}

// validateT0 checks a request's t0 against the spec's window. A stream
// spec declares no horizon (the live stream carries its own), so only
// t0 ≥ 0 is checked here; ladderRows checks the upper end against the
// stream's real horizon once it has resolved the stream.
func (g GraphSpec) validateT0(t0 tvg.Time) error {
	if t0 < 0 || (g.Model != "stream" && t0 > g.Horizon) {
		return specErr("t0 %d outside [0, %d]", t0, g.Horizon)
	}
	return nil
}
