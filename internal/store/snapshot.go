package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"tvgwait/internal/tvg"
)

// Snapshot file layout ("TVGSNAP1", little-endian throughout):
//
//	header   magic[8] version u32 sections u32
//	         snapSeq u64 coveredLSN u64
//	         nodes i64 horizon i64 revision u64 lastDep i64
//	table    sections × { kind u32 crc u32 off u64 size u64 }
//	hcrc     u32 over header+table
//	body     concatenated section payloads
//
// Every section is independently CRC32C-checksummed and the table's
// offsets and sizes are validated against the real file size BEFORE any
// payload-sized allocation, so a corrupt or adversarial header can make
// the load fail but never make it panic or balloon. Payload sections
// are the CSR arrays verbatim — a future mmap load can alias them in
// place; today's loader copies them into fresh slices.
//
// Versions: 2 stores the watermark-length tick index (lastDep+2
// entries, DESIGN.md §1). 1 stored it horizon+2 entries long; the
// decoder still reads it, validates the tail past the watermark and
// drops it (trimV1TimeOff).

const (
	snapMagic   = "TVGSNAP1"
	snapVersion = 2

	secName     = 1 // stream name bytes
	secEdges    = 2 // edge table, edgeWire bytes per edge
	secContacts = 3 // contact array, contactWire bytes per contact
	secEdgeOff  = 4 // int32 CSR offsets per edge
	secByTime   = 5 // int32 contact permutation
	secTimeOff  = 6 // int32 CSR offsets per tick
	secNames    = 7 // optional node-name string table

	snapHeaderWire  = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8
	snapSectionWire = 4 + 4 + 8 + 8

	// SnapshotExt is the filename extension snapshot files carry; the
	// recovery scan picks up every *.tvgs in the data directory.
	SnapshotExt = ".tvgs"
)

// maxSnapshotSections bounds the table a header may declare; the format
// defines 7 section kinds, so anything larger is corrupt by definition
// and is rejected before the table is even sized.
const maxSnapshotSections = 16

// Snapshot is one decoded snapshot file: the stream it belongs to, its
// place in the snapshot/WAL ordering, and the persisted CSR arrays.
type Snapshot struct {
	Stream string
	// Seq orders snapshots of the same stream; recovery loads the
	// highest valid one.
	Seq uint64
	// CoveredLSN is the last WAL record folded into this snapshot:
	// replay skips records at or below it, compaction may delete
	// segments entirely at or below the minimum across live streams.
	CoveredLSN uint64
	Raw        tvg.RawSnapshot
}

// EncodeSnapshot serializes s into the versioned snapshot format.
func EncodeSnapshot(s *Snapshot) []byte {
	type sec struct {
		kind    uint32
		payload []byte
	}
	secs := []sec{
		{secName, []byte(s.Stream)},
		{secEdges, appendEdges(nil, s.Raw.Edges)},
		{secContacts, appendContacts(nil, s.Raw.Contacts)},
		{secEdgeOff, appendInt32s(nil, s.Raw.EdgeOff)},
		{secByTime, appendInt32s(nil, s.Raw.ByTime)},
		{secTimeOff, appendInt32s(nil, s.Raw.TimeOff)},
	}
	if s.Raw.NodeNames != nil {
		secs = append(secs, sec{secNames, appendStrings(nil, s.Raw.NodeNames)})
	}

	headLen := snapHeaderWire + len(secs)*snapSectionWire + 4
	total := headLen
	for _, sc := range secs {
		total += len(sc.payload)
	}
	out := make([]byte, 0, total)
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, snapVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(secs)))
	out = binary.LittleEndian.AppendUint64(out, s.Seq)
	out = binary.LittleEndian.AppendUint64(out, s.CoveredLSN)
	out = binary.LittleEndian.AppendUint64(out, uint64(s.Raw.Nodes))
	out = binary.LittleEndian.AppendUint64(out, uint64(s.Raw.Horizon))
	out = binary.LittleEndian.AppendUint64(out, s.Raw.Revision)
	out = binary.LittleEndian.AppendUint64(out, uint64(s.Raw.LastDep))
	off := uint64(headLen)
	for _, sc := range secs {
		out = binary.LittleEndian.AppendUint32(out, sc.kind)
		out = binary.LittleEndian.AppendUint32(out, checksum(sc.payload))
		out = binary.LittleEndian.AppendUint64(out, off)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(sc.payload)))
		off += uint64(len(sc.payload))
	}
	out = binary.LittleEndian.AppendUint32(out, checksum(out))
	for _, sc := range secs {
		out = append(out, sc.payload...)
	}
	return out
}

// DecodeSnapshot parses and fully validates a snapshot image: header
// and section checksums, declared layout against the real size, and —
// via tvg.FromRaw at load time — every CSR invariant. Arbitrary input
// fails with a typed error; it never panics and never allocates beyond
// the input's own size.
func DecodeSnapshot(p []byte) (*Snapshot, error) {
	if len(p) < len(snapMagic) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(p))
	}
	if string(p[:len(snapMagic)]) != snapMagic {
		return nil, ErrBadMagic
	}
	if len(p) < snapHeaderWire+4 {
		return nil, fmt.Errorf("%w: no room for a snapshot header", ErrTruncated)
	}
	version := binary.LittleEndian.Uint32(p[8:])
	if version != 1 && version != snapVersion {
		return nil, fmt.Errorf("%w: snapshot version %d", ErrBadVersion, version)
	}
	nsec := int(binary.LittleEndian.Uint32(p[12:]))
	if nsec > maxSnapshotSections {
		return nil, fmt.Errorf("%w: header declares %d sections", ErrCorrupt, nsec)
	}
	headLen := snapHeaderWire + nsec*snapSectionWire + 4
	if len(p) < headLen {
		return nil, fmt.Errorf("%w: header declares %d sections in %d bytes", ErrTruncated, nsec, len(p))
	}
	if checksum(p[:headLen-4]) != binary.LittleEndian.Uint32(p[headLen-4:]) {
		return nil, fmt.Errorf("%w: snapshot header", ErrChecksum)
	}

	s := &Snapshot{
		Seq:        binary.LittleEndian.Uint64(p[16:]),
		CoveredLSN: binary.LittleEndian.Uint64(p[24:]),
	}
	s.Raw.Nodes = int(int64(binary.LittleEndian.Uint64(p[32:])))
	s.Raw.Horizon = tvg.Time(binary.LittleEndian.Uint64(p[40:]))
	s.Raw.Revision = binary.LittleEndian.Uint64(p[48:])
	s.Raw.LastDep = tvg.Time(binary.LittleEndian.Uint64(p[56:]))

	seen := make(map[uint32]bool, nsec)
	for i := 0; i < nsec; i++ {
		ent := p[snapHeaderWire+i*snapSectionWire:]
		kind := binary.LittleEndian.Uint32(ent)
		crc := binary.LittleEndian.Uint32(ent[4:])
		off := binary.LittleEndian.Uint64(ent[8:])
		size := binary.LittleEndian.Uint64(ent[16:])
		if off < uint64(headLen) || off > uint64(len(p)) || size > uint64(len(p))-off {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d+%d) beyond %d bytes", ErrTruncated, kind, off, off, size, len(p))
		}
		if seen[kind] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, kind)
		}
		seen[kind] = true
		payload := p[off : off+size]
		if checksum(payload) != crc {
			return nil, fmt.Errorf("%w: section %d", ErrChecksum, kind)
		}
		var err error
		switch kind {
		case secName:
			s.Stream = string(payload)
		case secEdges:
			s.Raw.Edges, err = decodeEdges(payload)
		case secContacts:
			s.Raw.Contacts, err = decodeContacts(payload)
		case secEdgeOff:
			s.Raw.EdgeOff, err = decodeInt32s(payload)
		case secByTime:
			s.Raw.ByTime, err = decodeInt32s(payload)
		case secTimeOff:
			s.Raw.TimeOff, err = decodeInt32s(payload)
		case secNames:
			s.Raw.NodeNames, err = decodeStrings(payload)
		default:
			err = fmt.Errorf("%w: unknown section kind %d", ErrCorrupt, kind)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, kind := range [...]uint32{secName, secEdges, secContacts, secEdgeOff, secByTime, secTimeOff} {
		if !seen[kind] {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, kind)
		}
	}
	// Zero-length sections decode to nil; FromRaw's shape checks need the
	// canonical empty forms.
	if s.Raw.EdgeOff == nil {
		s.Raw.EdgeOff = []int32{}
	}
	if s.Raw.ByTime == nil {
		s.Raw.ByTime = []int32{}
	}
	if s.Raw.TimeOff == nil {
		s.Raw.TimeOff = []int32{}
	}
	if version == 1 {
		if err := trimV1TimeOff(&s.Raw); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// trimV1TimeOff converts a version-1 tick index — horizon+2 entries,
// every one past the watermark equal to the contact count — into the
// watermark-length index FromRaw takes. The dropped tail is validated
// in full first, so a version-1 image passes only if it was
// well-formed as written; FromRaw then validates the kept prefix. The
// prefix is copied so the horizon-long array is not retained.
func trimV1TimeOff(r *tvg.RawSnapshot) error {
	switch {
	case r.Horizon < 0 || int64(len(r.TimeOff)) != int64(r.Horizon)+2:
		return fmt.Errorf("%w: version-1 timeOff length %d for horizon %d", ErrCorrupt, len(r.TimeOff), r.Horizon)
	case r.LastDep < -1 || r.LastDep > r.Horizon:
		return fmt.Errorf("%w: lastDep stamp %d outside [-1, %d]", ErrCorrupt, r.LastDep, r.Horizon)
	}
	keep := int(r.LastDep) + 2
	for i, off := range r.TimeOff[keep:] {
		if int(off) != len(r.Contacts) {
			return fmt.Errorf("%w: version-1 timeOff[%d] = %d past the watermark, want %d",
				ErrCorrupt, keep+i, off, len(r.Contacts))
		}
	}
	r.TimeOff = slices.Clone(r.TimeOff[:keep])
	return nil
}

// Restore decodes a snapshot image and assembles the live ContactSet,
// running the full CSR validation in tvg.FromRaw. This is the one call
// recovery and the fuzzers drive: any corruption either trips a
// checksum here or an invariant there.
func Restore(p []byte) (*Snapshot, *tvg.ContactSet, error) {
	s, err := DecodeSnapshot(p)
	if err != nil {
		return nil, nil, err
	}
	cs, err := tvg.FromRaw(s.Raw)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, cs, nil
}

// SnapshotPath names the snapshot file for (stream, seq) inside dir.
// Stream names are hex-escaped so arbitrary ingest names (the engine
// caps them at 128 bytes) stay inside one filename.
func SnapshotPath(dir, stream string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%016x%s", encodeStreamName(stream), seq, SnapshotExt))
}

// encodeStreamName makes a stream name filesystem-safe: alphanumerics,
// dash and underscore pass through, everything else becomes %XX.
func encodeStreamName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02x", c)
		}
	}
	return b.String()
}

// WriteSnapshotFile writes s atomically: temp file in the same
// directory, fsync, rename over the final name, fsync the directory.
// A crash at any point leaves either the old state or the new file —
// never a half-written snapshot under the final name.
func WriteSnapshotFile(dir string, s *Snapshot) (string, error) {
	img := EncodeSnapshot(s)
	final := SnapshotPath(dir, s.Stream, s.Seq)
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

// ReadSnapshotFile loads and fully restores one snapshot file.
func ReadSnapshotFile(path string) (*Snapshot, *tvg.ContactSet, error) {
	p, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return Restore(p)
}

// syncDir fsyncs a directory so a just-created or just-renamed entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
