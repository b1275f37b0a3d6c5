package store

import (
	"encoding/binary"
	"errors"
	"os"
	"slices"
	"testing"

	"tvgwait/internal/tvg"
)

// v1Fixture is testdata/snapshot-v1.tvgs: a version-1 image, written by
// the encoder that still stored the horizon+2 tick index, of the set
// v1FixtureSet builds (named nodes, an append chain, one in-horizon
// latency of 15 and one terminal arrival past the horizon).
const v1Fixture = "testdata/snapshot-v1.tvgs"

func v1FixtureSet(t *testing.T) *tvg.ContactSet {
	t.Helper()
	g := tvg.New()
	for _, name := range []string{"depot", "north", "south", "east", "west"} {
		g.AddNode(name)
	}
	g.MustAddEdge(tvg.Edge{From: 0, To: 1, Label: 'a', Presence: tvg.NewTimeSet(0, 3, 9, 14), Latency: tvg.ConstLatency(2)})
	g.MustAddEdge(tvg.Edge{From: 1, To: 2, Label: 'b', Presence: tvg.NewTimeSet(2, 5, 11), Latency: tvg.ConstLatency(1)})
	g.MustAddEdge(tvg.Edge{From: 2, To: 3, Label: 'a', Presence: tvg.NewTimeSet(6, 12), Latency: tvg.ConstLatency(3)})
	g.MustAddEdge(tvg.Edge{From: 3, To: 0, Label: 'c', Presence: tvg.NewTimeSet(1, 13), Latency: tvg.ConstLatency(1)})
	c, err := tvg.NewContactSet(g, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]tvg.ContactRecord{
		{{From: 4, To: 0, Dep: 16, Arr: 18}, {From: 0, To: 4, Dep: 17, Arr: 19}, {From: 4, To: 0, Dep: 20, Arr: 21}},
		{{From: 1, To: 3, Dep: 24, Arr: 39}, {From: 2, To: 4, Dep: 24, Arr: 26}, {From: 3, To: 1, Dep: 30, Arr: 45}},
	} {
		if c, err = c.AppendContacts(batch); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestSnapshotV1FixtureRecovers pins backward compatibility: the
// committed version-1 image restores bit-identically to the set it was
// written from, and re-encoding it writes a version-2 image that
// restores to the same set with the watermark-length index.
func TestSnapshotV1FixtureRecovers(t *testing.T) {
	img, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(img[8:]); v != 1 {
		t.Fatalf("fixture is version %d, want 1", v)
	}
	want := v1FixtureSet(t)
	snap, got, err := ReadSnapshotFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stream != "fixture/v1" || snap.Seq != 7 || snap.CoveredLSN != 42 {
		t.Fatalf("fixture metadata: %+v", snap)
	}
	assertSameSet(t, want, got)
	if len(got.Raw().TimeOff) != int(got.LastDep())+2 {
		t.Fatalf("restored timeOff has %d entries, want lastDep+2 = %d", len(got.Raw().TimeOff), got.LastDep()+2)
	}
	if got.MaxLatency() != 15 || got.MaxLatency() != want.MaxLatency() {
		t.Fatalf("restored MaxLatency = %d, want 15", got.MaxLatency())
	}

	v2 := EncodeSnapshot(snap)
	if v := binary.LittleEndian.Uint32(v2[8:]); v != snapVersion || len(v2) >= len(img) {
		t.Fatalf("re-encoded image: version %d, %d bytes (v1 %d)", v, len(v2), len(img))
	}
	_, again, err := Restore(v2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, want, again)
}

// encodeV1 writes s as a version-1 image whose tick index is timeOff,
// with honest checksums — what the version-1 encoder wrote.
func encodeV1(s *Snapshot, timeOff []int32) []byte {
	cp := *s
	cp.Raw.TimeOff = timeOff
	p := EncodeSnapshot(&cp)
	binary.LittleEndian.PutUint32(p[8:], 1)
	headLen := snapHeaderWire + int(binary.LittleEndian.Uint32(p[12:]))*snapSectionWire + 4
	binary.LittleEndian.PutUint32(p[headLen-4:], checksum(p[:headLen-4]))
	return p
}

// TestSnapshotV1IndexValidated pins the version-1 decode: the
// horizon+2 index is checked in full — its length, and every entry past
// the watermark — before the tail is dropped, and a damaged one fails
// typed.
func TestSnapshotV1IndexValidated(t *testing.T) {
	cs := buildTestSet(t)
	snap := &Snapshot{Stream: "s", Seq: 1, Raw: cs.Raw()}
	nc := int32(cs.NumContacts())
	long := slices.Clone(snap.Raw.TimeOff)
	for len(long) < int(cs.Horizon())+2 {
		long = append(long, nc)
	}
	_, got, err := Restore(encodeV1(snap, long))
	if err != nil {
		t.Fatalf("well-formed version-1 image: %v", err)
	}
	assertSameSet(t, cs, got)

	badTail := slices.Clone(long)
	badTail[len(badTail)-2]--
	shortIdx := long[:len(long)-1]
	staleStamp := *snap
	staleStamp.Raw.LastDep = cs.Horizon() + 1
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"tail entry", encodeV1(snap, badTail)},
		{"short index", encodeV1(snap, shortIdx)},
		{"watermark index", encodeV1(snap, snap.Raw.TimeOff)},
		{"lastDep past horizon", encodeV1(&staleStamp, long)},
	} {
		if _, err := DecodeSnapshot(tc.img); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", tc.name, err)
		}
	}
}
