package tvg

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// checkCSRInvariants pins the layout contract every sweep relies on, for
// revisions exactly as for cold builds: (edge, dep)-sorted contacts with
// strictly increasing departures per edge, bracketing offsets, a
// (dep, edge)-sorted time index, consistent watermark.
func checkCSRInvariants(t *testing.T, c *ContactSet) {
	t.Helper()
	if got, want := len(c.edgeOff), c.g.NumEdges()+1; got != want {
		t.Fatalf("len(edgeOff) = %d, want %d", got, want)
	}
	if c.edgeOff[0] != 0 || int(c.edgeOff[len(c.edgeOff)-1]) != len(c.contacts) {
		t.Fatalf("edgeOff endpoints = [%d, %d], want [0, %d]", c.edgeOff[0], c.edgeOff[len(c.edgeOff)-1], len(c.contacts))
	}
	maxDep := Time(-1)
	for e := 0; e < c.g.NumEdges(); e++ {
		lo, hi := c.EdgeRange(EdgeID(e))
		if lo > hi {
			t.Fatalf("edge %d range [%d, %d) inverted", e, lo, hi)
		}
		for i := lo; i < hi; i++ {
			ct := c.contacts[i]
			if ct.Edge != EdgeID(e) {
				t.Fatalf("contact %d has edge %d, bracketed under %d", i, ct.Edge, e)
			}
			if i > lo && c.contacts[i-1].Dep >= ct.Dep {
				t.Fatalf("edge %d departures not strictly increasing at contact %d", e, i)
			}
			if ct.Dep < 0 || ct.Dep > c.horizon || ct.Arr <= ct.Dep {
				t.Fatalf("contact %d has invalid times dep=%d arr=%d", i, ct.Dep, ct.Arr)
			}
			if ct.Dep > maxDep {
				maxDep = ct.Dep
			}
		}
	}
	if c.lastDep != maxDep {
		t.Fatalf("lastDep = %d, want %d", c.lastDep, maxDep)
	}
	var maxLat Time
	for _, ct := range c.contacts {
		if ct.Arr <= c.horizon && ct.Arr-ct.Dep > maxLat {
			maxLat = ct.Arr - ct.Dep
		}
	}
	if c.MaxLatency() != maxLat {
		t.Fatalf("MaxLatency = %d, want the largest in-horizon latency %d", c.MaxLatency(), maxLat)
	}
	if got, want := len(c.timeOff), int(c.lastDep)+2; got != want {
		t.Fatalf("len(timeOff) = %d, want lastDep+2 = %d", got, want)
	}
	if c.AtTick(c.lastDep+1) != nil {
		t.Fatalf("AtTick past the watermark = %v, want nil", c.AtTick(c.lastDep+1))
	}
	if len(c.byTime) != len(c.contacts) {
		t.Fatalf("len(byTime) = %d, want %d", len(c.byTime), len(c.contacts))
	}
	seen := 0
	for tick := Time(0); tick <= c.horizon; tick++ {
		ks := c.AtTick(tick)
		for j, k := range ks {
			ct := c.contacts[k]
			if ct.Dep != tick {
				t.Fatalf("AtTick(%d) lists contact departing at %d", tick, ct.Dep)
			}
			if j > 0 && c.contacts[ks[j-1]].Edge >= ct.Edge {
				t.Fatalf("AtTick(%d) not in ascending edge order", tick)
			}
		}
		seen += len(ks)
	}
	if seen != len(c.contacts) {
		t.Fatalf("time index covers %d contacts, want %d", seen, len(c.contacts))
	}
}

// contactKeys projects a set's contacts onto the sweep-visible quadruple,
// sorted, so streams with different edge groupings compare equal.
func contactKeys(c *ContactSet) []ContactRecord {
	out := make([]ContactRecord, 0, c.NumContacts())
	for _, ct := range c.Contacts() {
		out = append(out, ContactRecord{From: ct.From, To: ct.To, Dep: ct.Dep, Arr: ct.Arr})
	}
	sortRecords(out)
	return out
}

func sortRecords(rs []ContactRecord) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && recordLess(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func recordLess(a, b ContactRecord) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.To != b.To {
		return a.To < b.To
	}
	if a.Dep != b.Dep {
		return a.Dep < b.Dep
	}
	return a.Arr < b.Arr
}

// buildBase streams a small deterministic schedule whose departures stop
// at cut, leaving room to append.
func buildBase(t *testing.T, nodes int, horizon, cut Time, seed int64) *ContactSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	b.Reset(nodes, horizon)
	for e := 0; e < nodes*2; e++ {
		from := Node(rng.Intn(nodes))
		to := Node(rng.Intn(nodes))
		b.StartEdge(from, to, 'a')
		for dep := Time(rng.Intn(3)); dep <= cut; dep += Time(1 + rng.Intn(4)) {
			b.Append(dep, dep+Time(1+rng.Intn(3)))
		}
	}
	c, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomBatch(rng *rand.Rand, nodes int, lo, hi Time, count int) []ContactRecord {
	recs := make([]ContactRecord, 0, count)
	for i := 0; i < count; i++ {
		dep := lo + Time(rng.Int63n(int64(hi-lo+1)))
		recs = append(recs, ContactRecord{
			From: Node(rng.Intn(nodes)), To: Node(rng.Intn(nodes)),
			Dep: dep, Arr: dep + Time(1+rng.Intn(3)),
		})
	}
	return recs
}

func TestAppendContactsRevision(t *testing.T) {
	base := buildBase(t, 6, 60, 30, 1)
	checkCSRInvariants(t, base)
	if base.Revision() != 0 {
		t.Fatalf("cold build revision = %d, want 0", base.Revision())
	}
	baseContacts := base.NumContacts()
	baseKeys := contactKeys(base)
	baseDep := base.LastDep()

	rng := rand.New(rand.NewSource(2))
	recs := randomBatch(rng, 6, baseDep+1, 60, 25)
	rev, err := base.AppendContacts(recs)
	if err != nil {
		t.Fatal(err)
	}
	checkCSRInvariants(t, rev)
	if rev.Revision() != 1 {
		t.Fatalf("revision = %d, want 1", rev.Revision())
	}
	if rev.NumContacts() != baseContacts+len(recs) {
		t.Fatalf("revision has %d contacts, want %d", rev.NumContacts(), baseContacts+len(recs))
	}
	if !rev.Extends(base) {
		t.Fatal("revision does not Extend its base")
	}
	if base.Extends(rev) {
		t.Fatal("base claims to Extend its revision")
	}
	if !rev.Extends(rev) || !base.Extends(base) {
		t.Fatal("Extends not reflexive")
	}

	// The base is unchanged: same contacts, same watermark, same indexes.
	if base.NumContacts() != baseContacts || base.LastDep() != baseDep {
		t.Fatalf("base mutated by append: %d contacts, lastDep %d", base.NumContacts(), base.LastDep())
	}
	if !reflect.DeepEqual(contactKeys(base), baseKeys) {
		t.Fatal("base contact stream mutated by append")
	}

	// The revision's stream is exactly base + batch.
	want := append(append([]ContactRecord{}, baseKeys...), recs...)
	sortRecords(want)
	if !reflect.DeepEqual(contactKeys(rev), want) {
		t.Fatal("revision contact stream differs from base + batch")
	}

	// A second append chains (in place, after the first copy).
	if rev.LastDep() < 60 {
		recs2 := randomBatch(rng, 6, rev.LastDep()+1, 60, 10)
		rev2, err := rev.AppendContacts(recs2)
		if err != nil {
			t.Fatal(err)
		}
		checkCSRInvariants(t, rev2)
		if !rev2.Extends(rev) || !rev2.Extends(base) {
			t.Fatal("second revision does not Extend its ancestors")
		}
		if rev2.Revision() != 2 {
			t.Fatalf("second revision = %d, want 2", rev2.Revision())
		}
	}
}

func TestAppendContactsValidation(t *testing.T) {
	base := buildBase(t, 4, 40, 20, 3)
	wm := base.LastDep()
	cases := []struct {
		name string
		rec  ContactRecord
		frag string
	}{
		{"at watermark", ContactRecord{From: 0, To: 1, Dep: wm, Arr: wm + 1}, "not after"},
		{"before watermark", ContactRecord{From: 0, To: 1, Dep: wm - 3, Arr: wm - 1}, "not after"},
		{"past horizon", ContactRecord{From: 0, To: 1, Dep: 41, Arr: 42}, "horizon"},
		{"zero latency", ContactRecord{From: 0, To: 1, Dep: wm + 1, Arr: wm + 1}, "latency"},
		{"negative latency", ContactRecord{From: 0, To: 1, Dep: wm + 2, Arr: wm}, "latency"},
		{"bad from", ContactRecord{From: -1, To: 1, Dep: wm + 1, Arr: wm + 2}, "unknown node"},
		{"bad to", ContactRecord{From: 0, To: 99, Dep: wm + 1, Arr: wm + 2}, "unknown node"},
	}
	for _, tc := range cases {
		if _, err := base.AppendContacts([]ContactRecord{tc.rec}); err == nil {
			t.Errorf("%s: append accepted %+v", tc.name, tc.rec)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
	// A rejected batch leaves the base fully usable.
	if _, err := base.AppendContacts([]ContactRecord{{From: 0, To: 1, Dep: wm + 1, Arr: wm + 2}}); err != nil {
		t.Fatalf("valid append after rejections: %v", err)
	}
	// Empty batches are a no-op, not a new revision.
	same, err := base.AppendContacts(nil)
	if err != nil || same != base {
		t.Fatalf("empty append = (%p, %v), want the base itself", same, err)
	}
}

func TestAppendContactsDuplicatesAndParallel(t *testing.T) {
	base := buildBase(t, 4, 30, 10, 4)
	wm := base.LastDep()
	// Two identical records and a same-tick different-arrival pair: all
	// admitted as parallel edges, none rejected.
	recs := []ContactRecord{
		{From: 0, To: 1, Dep: wm + 2, Arr: wm + 3},
		{From: 0, To: 1, Dep: wm + 2, Arr: wm + 3},
		{From: 0, To: 1, Dep: wm + 2, Arr: wm + 5},
		{From: 2, To: 3, Dep: wm + 1, Arr: wm + 2},
	}
	rev, err := base.AppendContacts(recs)
	if err != nil {
		t.Fatal(err)
	}
	checkCSRInvariants(t, rev)
	if rev.NumContacts() != base.NumContacts()+4 {
		t.Fatalf("revision has %d contacts, want %d", rev.NumContacts(), base.NumContacts()+4)
	}
}

func TestAppendContactsEmptyBase(t *testing.T) {
	b := NewBuilder()
	b.Reset(4, 20)
	base, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.LastDep() != -1 {
		t.Fatalf("empty set LastDep = %d, want -1", base.LastDep())
	}
	rev, err := base.AppendContacts([]ContactRecord{
		{From: 0, To: 1, Dep: 0, Arr: 1},
		{From: 1, To: 2, Dep: 5, Arr: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkCSRInvariants(t, rev)
	if !rev.Extends(base) {
		t.Fatal("revision of empty base does not Extend it")
	}
}

func TestAppendContactsBranching(t *testing.T) {
	base := buildBase(t, 5, 50, 20, 5)
	wm := base.LastDep()
	a, err := base.AppendContacts([]ContactRecord{{From: 0, To: 1, Dep: wm + 1, Arr: wm + 2}})
	if err != nil {
		t.Fatal(err)
	}
	bCh, err := base.AppendContacts([]ContactRecord{{From: 1, To: 2, Dep: wm + 3, Arr: wm + 4}})
	if err != nil {
		t.Fatal(err)
	}
	checkCSRInvariants(t, a)
	checkCSRInvariants(t, bCh)
	if a.Extends(bCh) || bCh.Extends(a) {
		t.Fatal("sibling branches claim to extend each other")
	}
	// Both branches still extend the base (directly or via cold fallback).
	if !a.Extends(base) && !bCh.Extends(base) {
		t.Fatal("neither branch Extends the base")
	}
	// The branches' streams stay independent.
	if a.NumContacts() != base.NumContacts()+1 || bCh.NumContacts() != base.NumContacts()+1 {
		t.Fatalf("branch sizes %d/%d, want %d", a.NumContacts(), bCh.NumContacts(), base.NumContacts()+1)
	}
	last := a.Contacts()[a.NumContacts()-1]
	if last.From != 0 || last.To != 1 || last.Dep != wm+1 {
		t.Fatalf("branch a's appended contact = %+v", last)
	}
	lastB := bCh.Contacts()[bCh.NumContacts()-1]
	if lastB.From != 1 || lastB.To != 2 || lastB.Dep != wm+3 {
		t.Fatalf("branch b's appended contact = %+v", lastB)
	}
}

func TestBuilderExtendMatchesAppendContacts(t *testing.T) {
	// Two identical bases: extending ONE base twice makes the second
	// extension a sibling branch with a fresh lineage (Extends false by
	// design), which is not what this test is about.
	base := buildBase(t, 6, 60, 25, 6)
	base2 := buildBase(t, 6, 60, 25, 6)
	wm := base.LastDep()
	recs := []ContactRecord{
		{From: 0, To: 1, Dep: wm + 1, Arr: wm + 2},
		{From: 0, To: 1, Dep: wm + 4, Arr: wm + 6},
		{From: 3, To: 2, Dep: wm + 2, Arr: wm + 3},
	}
	viaAppend, err := base2.AppendContacts(recs)
	if err != nil {
		t.Fatal(err)
	}

	b := NewBuilder()
	b.Extend(base)
	b.StartEdge(0, 1, 0)
	b.Append(wm+1, wm+2)
	b.Append(wm+4, wm+6)
	b.StartEdge(3, 2, 0)
	b.Append(wm+2, wm+3)
	viaExtend, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	checkCSRInvariants(t, viaExtend)
	if !viaExtend.Extends(base) {
		t.Fatal("Extend build does not Extend its base")
	}
	if !reflect.DeepEqual(contactKeys(viaExtend), contactKeys(viaAppend)) {
		t.Fatal("Builder.Extend and AppendContacts disagree on the contact stream")
	}

	// Violating the watermark through the streaming path fails at Finalize.
	b.Extend(viaExtend)
	b.StartEdge(0, 1, 0)
	b.Append(wm+1, wm+2) // at or before the new watermark
	if _, err := b.Finalize(); err == nil {
		t.Fatal("Extend accepted a departure at the base watermark")
	}

	// An Extend with no contacts returns the base unchanged.
	b.Extend(base)
	got, err := b.Finalize()
	if err != nil || got != base {
		t.Fatalf("empty Extend = (%p, %v), want the base itself", got, err)
	}
}

// TestAppendRevisionRecompiles pins that a revision's Graph is
// self-consistent: recompiling it over the same horizon reproduces the
// revision's contact stream exactly (same edge ids, same times).
func TestAppendRevisionRecompiles(t *testing.T) {
	base := buildBase(t, 5, 40, 15, 7)
	rng := rand.New(rand.NewSource(8))
	rev, err := base.AppendContacts(randomBatch(rng, 5, base.LastDep()+1, 40, 12))
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewContactSet(rev.Graph(), rev.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.Contacts(), rev.Contacts()) {
		t.Fatal("recompiling a revision's graph does not reproduce its contacts")
	}
}

// liveShape builds the live-ingest stream shape over the given horizon:
// 96 nodes and 9,000 latency-1 contacts, one every second tick from 0.
func liveShape(tb testing.TB, horizon Time) *ContactSet {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	recs := make([]ContactRecord, 9000)
	for i := range recs {
		from := rng.Intn(96)
		recs[i] = ContactRecord{From: Node(from), To: Node((from + 1 + rng.Intn(95)) % 96), Dep: Time(2 * i), Arr: Time(2*i + 1)}
	}
	b := NewBuilder()
	b.Reset(96, horizon)
	empty, err := b.Finalize()
	if err != nil {
		tb.Fatal(err)
	}
	c, err := empty.AppendContacts(recs)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestAppendHorizonIndependent pins what one append costs: a 20-contact
// batch onto the live-ingest stream shape allocates within 2× the same
// bytes at horizon 40,000 as at 1,000,000 — the tick index grows by the
// batch's own ticks, not by the horizon. Each run of 100 appends is a
// linear chain from the same base, so both horizons pay the same
// sibling copy per run.
func TestAppendHorizonIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two testing.Benchmark loops")
	}
	bytesPerAppend := func(horizon Time) int64 {
		base := liveShape(t, horizon)
		batch := make([]ContactRecord, 20)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			cur := base
			for i := 0; i < b.N; i++ {
				if i%100 == 0 {
					cur = base
				}
				for j := range batch {
					dep := cur.LastDep() + 1 + Time(2*j)
					batch[j] = ContactRecord{From: Node(j % 96), To: Node((j + 5) % 96), Dep: dep, Arr: dep + 1}
				}
				next, err := cur.AppendContacts(batch)
				if err != nil {
					b.Fatal(err)
				}
				cur = next
			}
		})
		return res.AllocedBytesPerOp()
	}
	short, long := bytesPerAppend(40_000), bytesPerAppend(1_000_000)
	if short <= 0 || long > 2*short || short > 2*long {
		t.Fatalf("append allocates %d B/op at horizon 40,000 and %d B/op at 1,000,000, want within 2×", short, long)
	}
}

// TestMaxLatency pins the in-horizon latency bound through every
// construction path: a cold build, appends (which only raise it, and
// not for arrivals past the horizon) and a raw round trip.
func TestMaxLatency(t *testing.T) {
	b := NewBuilder()
	b.Reset(4, 30)
	b.StartEdge(0, 1, 'a')
	b.Append(2, 5)   // latency 3
	b.Append(20, 40) // past the horizon: terminal, not counted
	c, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxLatency() != 3 {
		t.Fatalf("cold MaxLatency = %d, want 3", c.MaxLatency())
	}
	for _, step := range []struct {
		rec  ContactRecord
		want Time
	}{
		{ContactRecord{From: 1, To: 2, Dep: 21, Arr: 22}, 3},
		{ContactRecord{From: 2, To: 3, Dep: 22, Arr: 29}, 7},
		{ContactRecord{From: 3, To: 0, Dep: 25, Arr: 90}, 7},
	} {
		if c, err = c.AppendContacts([]ContactRecord{step.rec}); err != nil {
			t.Fatal(err)
		}
		checkCSRInvariants(t, c)
		if c.MaxLatency() != step.want {
			t.Fatalf("after %+v: MaxLatency = %d, want %d", step.rec, c.MaxLatency(), step.want)
		}
	}
	back, err := FromRaw(c.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if back.MaxLatency() != c.MaxLatency() {
		t.Fatalf("raw round trip MaxLatency = %d, want %d", back.MaxLatency(), c.MaxLatency())
	}
	empty := NewBuilder()
	empty.Reset(2, 10)
	if e, _ := empty.Finalize(); e.MaxLatency() != 0 || len(e.timeOff) != 1 || e.AtTick(0) != nil {
		t.Fatalf("empty set: MaxLatency %d, timeOff %v", e.MaxLatency(), e.timeOff)
	}
}
