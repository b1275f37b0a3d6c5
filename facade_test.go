package tvgwait_test

import (
	"context"
	"errors"
	"testing"

	"tvgwait"
)

// TestFacadeQuickstart exercises the README quickstart path through the
// public facade.
func TestFacadeQuickstart(t *testing.T) {
	g := tvgwait.NewGraph()
	port := g.AddNode("port")
	island := g.AddNode("island")
	if _, err := g.AddEdge(tvgwait.Edge{
		From: port, To: island, Label: 'a',
		Presence: tvgwait.At(5), Latency: tvgwait.ConstLatency(1),
	}); err != nil {
		t.Fatal(err)
	}
	a := tvgwait.NewAutomaton(g)
	a.AddInitial(port)
	a.AddAccepting(island)

	dec, err := tvgwait.NewDecider(a, tvgwait.Wait(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Accepts("a") {
		t.Error("wait should accept \"a\"")
	}
	j, ok := dec.Witness("a")
	if !ok || j.Len() != 1 || j.Hops[0].Depart != 5 {
		t.Errorf("witness = %v, %v", j, ok)
	}
	noDec, err := tvgwait.NewDecider(a, tvgwait.NoWait(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if noDec.Accepts("a") {
		t.Error("nowait should reject \"a\" from t=0")
	}
	bdec, err := tvgwait.NewDecider(a, tvgwait.BoundedWait(5), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bdec.Accepts("a") {
		t.Error("wait[5] should accept \"a\"")
	}
}

func TestFacadeSchedules(t *testing.T) {
	if !tvgwait.Always().Present(123) {
		t.Error("Always")
	}
	if tvgwait.Never().Present(0) {
		t.Error("Never")
	}
	if !tvgwait.At(3, 7).Present(7) || tvgwait.At(3, 7).Present(5) {
		t.Error("At")
	}
	d := tvgwait.During(2, 5)
	if !d.Present(2) || !d.Present(4) || d.Present(5) {
		t.Error("During")
	}
	p, err := tvgwait.Periodic([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Present(0) || p.Present(1) || !p.Present(2) {
		t.Error("Periodic")
	}
	if _, err := tvgwait.Periodic(nil); err == nil {
		t.Error("empty Periodic should fail")
	}
	if tvgwait.ConstLatency(4).Crossing(9) != 4 {
		t.Error("ConstLatency")
	}
}

func TestFacadeJourneyMetrics(t *testing.T) {
	g := tvgwait.NewGraph()
	u := g.AddNode("u")
	v := g.AddNode("v")
	w := g.AddNode("w")
	for _, e := range []tvgwait.Edge{
		{From: u, To: v, Label: 'a', Presence: tvgwait.Always(), Latency: tvgwait.ConstLatency(1)},
		{From: v, To: w, Label: 'a', Presence: tvgwait.Always(), Latency: tvgwait.ConstLatency(1)},
		{From: w, To: u, Label: 'a', Presence: tvgwait.Always(), Latency: tvgwait.ConstLatency(1)},
	} {
		if _, err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	c, err := tvgwait.Compile(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, arr, ok := tvgwait.Foremost(c, tvgwait.NoWait(), u, w, 0); !ok || arr != 2 {
		t.Errorf("Foremost = %d, %v", arr, ok)
	}
	if _, hops, ok := tvgwait.MinHop(c, tvgwait.Wait(), u, w, 0); !ok || hops != 2 {
		t.Errorf("MinHop = %d, %v", hops, ok)
	}
	if _, span, ok := tvgwait.Fastest(c, tvgwait.Wait(), u, w, 0); !ok || span != 2 {
		t.Errorf("Fastest = %d, %v", span, ok)
	}
	if !tvgwait.TemporallyConnected(c, tvgwait.NoWait(), 0) {
		t.Error("ring should be temporally connected")
	}
}

func TestFacadeConstructions(t *testing.T) {
	// Figure 1.
	a, err := tvgwait.Figure1(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tvgwait.Figure1Horizon(2, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := tvgwait.NewDecider(a, tvgwait.NoWait(), h)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Accepts("aabb") || dec.Accepts("ab"+"b") {
		t.Error("Figure1 language wrong")
	}
	if _, err := tvgwait.Figure1(4, 6); err == nil {
		t.Error("non-prime parameters should fail")
	}
	if _, err := tvgwait.Figure1Horizon(4, 6, 4); err == nil {
		t.Error("non-prime horizon parameters should fail")
	}

	// Regex embedding.
	ra, err := tvgwait.FromRegex("(ab)*", []rune{'a', 'b'})
	if err != nil {
		t.Fatal(err)
	}
	rdec, err := tvgwait.NewDecider(ra, tvgwait.Wait(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !rdec.Accepts("abab") || rdec.Accepts("aba") {
		t.Error("FromRegex language wrong")
	}

	// Regularity witness.
	dfa, err := tvgwait.LanguageDFA(ra, tvgwait.Wait(), 10, []rune{'a', 'b'})
	if err != nil {
		t.Fatal(err)
	}
	if !dfa.Accepts("ab") || dfa.Accepts("b") {
		t.Error("LanguageDFA wrong")
	}

	// Dilation.
	da, err := tvgwait.Dilate(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	ddec, err := tvgwait.NewDecider(da, tvgwait.BoundedWait(1), 2*h)
	if err != nil {
		t.Fatal(err)
	}
	if !ddec.Accepts("aabb") || ddec.Accepts("b") {
		t.Error("dilated language wrong")
	}
	if _, err := tvgwait.Dilate(a, 0); err == nil {
		t.Error("dilation factor 0 should fail")
	}
}

func TestFacadeDeciderConstruction(t *testing.T) {
	// FromDecider via the facade needs a Language; use the decider of a
	// regex automaton as the oracle for a round trip.
	ra, err := tvgwait.FromRegex("ab*", []rune{'a', 'b'})
	if err != nil {
		t.Fatal(err)
	}
	rdec, err := tvgwait.NewDecider(ra, tvgwait.NoWait(), 12)
	if err != nil {
		t.Fatal(err)
	}
	oracle := rdec.Language("ab*")
	ta, err := tvgwait.FromDecider(oracle)
	if err != nil {
		t.Fatal(err)
	}
	tdec, err := tvgwait.NewDecider(ta, tvgwait.NoWait(), 3*3*3*3*3*3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"a", "ab", "abb", "", "b", "ba"} {
		if tdec.Accepts(w) != oracle.Contains(w) {
			t.Errorf("round trip differs at %q", w)
		}
	}
}

func TestFacadeDelivery(t *testing.T) {
	g := tvgwait.NewGraph()
	u := g.AddNode("u")
	v := g.AddNode("v")
	if _, err := g.AddEdge(tvgwait.Edge{
		From: u, To: v, Label: 'c', Presence: tvgwait.At(4), Latency: tvgwait.ConstLatency(1),
	}); err != nil {
		t.Fatal(err)
	}
	c, err := tvgwait.Compile(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tvgwait.Deliver(c, tvgwait.Wait(), tvgwait.Message{Src: u, Dst: v, Created: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Delivered || r.DeliveredAt != 5 {
		t.Errorf("Deliver = %+v", r)
	}
	r, err = tvgwait.Deliver(c, tvgwait.NoWait(), tvgwait.Message{Src: u, Dst: v, Created: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered {
		t.Error("nowait delivery should fail")
	}
}

func TestFacadeEngine(t *testing.T) {
	eng := tvgwait.NewEngine(tvgwait.EngineOptions{})
	modes, err := tvgwait.ParseModeList("nowait,wait:2,wait")
	if err != nil {
		t.Fatal(err)
	}
	report, err := eng.Run(context.Background(), tvgwait.ScenarioSpec{
		Graph: tvgwait.GraphSpec{
			Model: "markov", Nodes: 10, Birth: 0.05, Death: 0.5, Horizon: 50,
		},
		Modes:      []string{"nowait", "wait:2", "wait"},
		Messages:   10,
		Replicates: 2,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Unicast) != len(modes) {
		t.Fatalf("report has %d rows, want %d", len(report.Unicast), len(modes))
	}
	for i, row := range report.Unicast {
		if row.Mode != modes[i].String() || row.Messages != 20 {
			t.Errorf("row %d = %+v", i, row)
		}
	}
	jr, err := eng.Journey(context.Background(), tvgwait.JourneyRequest{
		Graph: tvgwait.GraphSpec{
			Model: "markov", Nodes: 10, Birth: 0.05, Death: 0.5, Horizon: 50,
		},
		Seed: 42, Mode: "wait", Src: 0, Dst: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Found && jr.Arrival < jr.Departure {
		t.Errorf("journey report inconsistent: %+v", jr)
	}
	mr, err := eng.Metrics(context.Background(), tvgwait.MetricsRequest{
		Graph: tvgwait.GraphSpec{
			Model: "markov", Nodes: 10, Birth: 0.05, Death: 0.5, Horizon: 50,
		},
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Modes) != 2 || mr.Nodes != 10 {
		t.Fatalf("metrics report shape wrong: %+v", mr)
	}
}

// TestFacadeAllPairs smokes the bit-parallel all-pairs surface: the
// matrix APIs must agree with the single-pair searches they batch.
func TestFacadeAllPairs(t *testing.T) {
	g := tvgwait.NewGraph()
	first := g.AddNodes(3)
	a, b, c := first, first+1, first+2
	pres, err := tvgwait.Periodic([]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]tvgwait.Node{{a, b}, {b, c}, {c, a}} {
		if _, err := g.AddEdge(tvgwait.Edge{
			From: e[0], To: e[1], Label: 'x', Presence: pres, Latency: tvgwait.ConstLatency(1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := tvgwait.Compile(g, 20)
	if err != nil {
		t.Fatal(err)
	}
	res := facadeSweep(t, cs, 0, tvgwait.SweepOpts{}, tvgwait.Wait())
	m, r := res.Arrivals(0), res.Reach(0)
	for src := a; src <= c; src++ {
		for dst := a; dst <= c; dst++ {
			arr, ok := m.At(src, dst)
			_, want, wantOK := tvgwait.Foremost(cs, tvgwait.Wait(), src, dst, 0)
			if ok != wantOK || (ok && arr != want) {
				t.Errorf("At(%d,%d) = (%d, %v), Foremost (%d, %v)", src, dst, arr, ok, want, wantOK)
			}
			if r.Reachable(src, dst) != wantOK {
				t.Errorf("Reachable(%d,%d) = %v, want %v", src, dst, r.Reachable(src, dst), wantOK)
			}
		}
	}
	if conn := tvgwait.TemporallyConnected(cs, tvgwait.Wait(), 0); conn != m.Connected() {
		t.Errorf("TemporallyConnected = %v, matrix says %v", conn, m.Connected())
	}
	if d, ok := tvgwait.TemporalDiameter(cs, tvgwait.Wait(), 0); ok {
		if md, mok := m.Diameter(); !mok || md != d {
			t.Errorf("TemporalDiameter = %d, matrix says (%d, %v)", d, md, mok)
		}
	}
}

// TestFacadeBuilder drives the streaming construction path through the
// facade: a Builder-made ContactSet must answer the same queries as the
// Graph→Compile path, sequentially and with parallel block fan-out.
func TestFacadeBuilder(t *testing.T) {
	b := tvgwait.NewBuilder()
	b.Reset(3, 10)
	b.StartEdge(0, 1, 'a')
	b.Append(2, 3)
	b.Append(5, 6)
	b.StartEdge(1, 2, 'b')
	b.Append(4, 5)
	c, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumContacts() != 3 {
		t.Fatalf("NumContacts = %d, want 3", c.NumContacts())
	}
	if _, arrival, ok := tvgwait.Foremost(c, tvgwait.Wait(), 0, 2, 0); !ok || arrival != 5 {
		t.Fatalf("Foremost over builder set = (%d, %v), want (5, true)", arrival, ok)
	}
	m := facadeSweep(t, c, 0, tvgwait.SweepOpts{Workers: 4}, tvgwait.Wait()).Arrivals(0)
	if a, ok := m.At(0, 2); !ok || a != 5 {
		t.Fatalf("parallel Sweep At(0,2) = (%d, %v), want (5, true)", a, ok)
	}
	r := facadeSweep(t, c, 0, tvgwait.SweepOpts{Workers: 4}, tvgwait.BoundedWait(2)).Reach(0)
	if !r.Reachable(0, 2) || r.Reachable(2, 0) {
		t.Fatal("parallel Sweep Reach disagrees with the schedule")
	}
}

// TestFacadeSpectrum drives a ladder sweep through the facade: ladder
// normalization, per-rung agreement with one-rung sweeps, and the
// engine Spectrum request.
func TestFacadeSpectrum(t *testing.T) {
	g := tvgwait.NewGraph()
	first := g.AddNodes(3)
	a, b, c := first, first+1, first+2
	pres, err := tvgwait.Periodic([]bool{true, false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]tvgwait.Node{{a, b}, {b, c}, {c, a}} {
		if _, err := g.AddEdge(tvgwait.Edge{
			From: e[0], To: e[1], Label: 'x', Presence: pres, Latency: tvgwait.ConstLatency(1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := tvgwait.Compile(g, 24)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := tvgwait.NewLadder(tvgwait.Wait(), tvgwait.NoWait(), tvgwait.BoundedWait(3), tvgwait.BoundedWait(0))
	if err != nil {
		t.Fatal(err)
	}
	if ladder.Len() != 3 {
		t.Fatalf("normalized ladder has %d rungs, want 3", ladder.Len())
	}
	res, err := tvgwait.Sweep(context.Background(), cs, ladder, 0, tvgwait.SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := tvgwait.Sweep(context.Background(), cs, ladder, 0, tvgwait.SweepOpts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.NumRungs(); i++ {
		mode := res.Mode(i)
		want := facadeSweep(t, cs, 0, tvgwait.SweepOpts{}, mode).Arrivals(0)
		for src := a; src <= c; src++ {
			for dst := a; dst <= c; dst++ {
				arr, ok := res.Arrivals(i).At(src, dst)
				warr, wok := want.At(src, dst)
				if ok != wok || (ok && arr != warr) {
					t.Errorf("%s: spectrum At(%d,%d) = (%d, %v), one-rung sweep (%d, %v)",
						mode, src, dst, arr, ok, warr, wok)
				}
				parr, pok := resPar.Arrivals(i).At(src, dst)
				if ok != pok || (ok && arr != parr) {
					t.Errorf("%s: parallel spectrum diverges at (%d,%d)", mode, src, dst)
				}
			}
		}
	}

	eng := tvgwait.NewEngine(tvgwait.EngineOptions{})
	rep, err := eng.Spectrum(context.Background(), tvgwait.SpectrumRequest{
		Graph: tvgwait.GraphSpec{Model: "markov", Nodes: 10, Birth: 0.05, Death: 0.5, Horizon: 40},
		Seed:  3, Modes: []string{"nowait", "wait:2", "wait"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rungs) != 3 || rep.Rungs[0].Mode != "nowait" || rep.Rungs[2].Mode != "wait" {
		t.Fatalf("engine spectrum shape wrong: %+v", rep.Rungs)
	}
}

// TestFacadeCancellation exercises the cancellation surface through the
// public facade: Sweep and DeliverCtx under a cancelled ctx, the typed
// ErrCanceled, and bit-identity with an uncancellable ctx.
func TestFacadeCancellation(t *testing.T) {
	g := tvgwait.NewGraph()
	u := g.AddNode("u")
	v := g.AddNode("v")
	if _, err := g.AddEdge(tvgwait.Edge{
		From: u, To: v, Label: 'c', Presence: tvgwait.At(4), Latency: tvgwait.ConstLatency(1),
	}); err != nil {
		t.Fatal(err)
	}
	c, err := tvgwait.Compile(g, 8)
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	wait, err := tvgwait.NewLadder(tvgwait.Wait())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tvgwait.Sweep(cancelled, c, wait, 0, tvgwait.SweepOpts{}); !errors.Is(err, tvgwait.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep on cancelled ctx: %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if _, err := tvgwait.DeliverCtx(cancelled, c, tvgwait.Wait(), tvgwait.Message{Src: u, Dst: v}); !errors.Is(err, tvgwait.ErrCanceled) {
		t.Fatalf("DeliverCtx on cancelled ctx: %v, want ErrCanceled", err)
	}

	live, stop := context.WithCancel(context.Background())
	defer stop()
	want := facadeSweep(t, c, 0, tvgwait.SweepOpts{}, tvgwait.Wait()).Arrivals(0)
	got, err := tvgwait.Sweep(live, c, wait, 0, tvgwait.SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantArr, wantOK := want.At(u, v)
	gotArr, gotOK := got.Arrivals(0).At(u, v)
	if wantArr != gotArr || wantOK != gotOK {
		t.Errorf("live-ctx sweep arrival (%v, %v) differs from background (%v, %v)", gotArr, gotOK, wantArr, wantOK)
	}

	ladder, err := tvgwait.NewLadder(tvgwait.NoWait(), tvgwait.Wait())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tvgwait.Sweep(cancelled, c, ladder, 0, tvgwait.SweepOpts{}); !errors.Is(err, tvgwait.ErrCanceled) {
		t.Fatalf("ladder Sweep on cancelled ctx: %v, want ErrCanceled", err)
	}
	if _, _, err := tvgwait.SweepCheckpointed(cancelled, c, ladder, 0, tvgwait.SweepOpts{}); !errors.Is(err, tvgwait.ErrCanceled) {
		t.Fatalf("SweepCheckpointed on cancelled ctx: %v, want ErrCanceled", err)
	}
}

// TestFacadeIncremental drives the live-fill pipeline through the
// facade: append a suffix batch with AppendContacts and resume a
// checkpointed sweep and flood, pinning bit-identity with cold runs on
// the extended revision.
func TestFacadeIncremental(t *testing.T) {
	b := tvgwait.NewBuilder()
	b.Reset(4, 20)
	b.StartEdge(0, 1, 'a')
	b.Append(1, 2)
	b.StartEdge(1, 2, 'b')
	b.Append(3, 4)
	base, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	wait, err := tvgwait.NewLadder(tvgwait.Wait())
	if err != nil {
		t.Fatal(err)
	}
	r1, ck, err := tvgwait.SweepCheckpointed(ctx, base, wait, 0, tvgwait.SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r1.Arrivals(0).At(0, 3); ok {
		t.Fatal("node 3 reachable before the suffix arrives")
	}
	_, fck, err := tvgwait.BroadcastCheckpointed(base, tvgwait.Wait(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	ext, err := base.AppendContacts([]tvgwait.ContactRecord{
		{From: 2, To: 3, Dep: 7, Arr: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Extends(base) {
		t.Fatal("appended revision does not extend its base")
	}

	r2, err := ck.Advance(ctx, ext, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := r2.Arrivals(0)
	cold := facadeSweep(t, ext, 0, tvgwait.SweepOpts{}, tvgwait.Wait()).Arrivals(0)
	for src := tvgwait.Node(0); src < 4; src++ {
		for dst := tvgwait.Node(0); dst < 4; dst++ {
			ra, rok := m2.At(src, dst)
			ca, cok := cold.At(src, dst)
			if ra != ca || rok != cok {
				t.Fatalf("resumed At(%d,%d) = (%d, %v), cold = (%d, %v)", src, dst, ra, rok, ca, cok)
			}
		}
	}
	if a, ok := m2.At(0, 3); !ok || a != 8 {
		t.Fatalf("resumed At(0,3) = (%d, %v), want (8, true)", a, ok)
	}

	br, err := fck.Broadcast(ext)
	if err != nil {
		t.Fatal(err)
	}
	coldBr, _, err := tvgwait.BroadcastCheckpointed(ext, tvgwait.Wait(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if br.Ratio != coldBr.Ratio {
		t.Fatalf("resumed flood ratio %v, cold %v", br.Ratio, coldBr.Ratio)
	}
	for n := range br.Arrival {
		if br.Arrival[n] != coldBr.Arrival[n] {
			t.Fatalf("resumed arrival at %d = %d, cold %d", n, br.Arrival[n], coldBr.Arrival[n])
		}
	}
	if !br.Reached[3] || br.Arrival[3] != 8 {
		t.Fatalf("flood missed the suffix contact: reached=%v arr=%d", br.Reached[3], br.Arrival[3])
	}
}

// facadeSweep sweeps the ladder of modes through the facade with an
// uncancellable context, failing t on error.
func facadeSweep(t *testing.T, c *tvgwait.ContactSet, t0 tvgwait.Time, o tvgwait.SweepOpts, modes ...tvgwait.Mode) *tvgwait.SpectrumResult {
	t.Helper()
	ladder, err := tvgwait.NewLadder(modes...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tvgwait.Sweep(context.Background(), c, ladder, t0, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
