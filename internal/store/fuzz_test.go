package store

import (
	"os"
	"path/filepath"
	"testing"

	"tvgwait/internal/tvg"
)

// fuzzSeedSnapshot builds a small valid snapshot image for the corpus.
func fuzzSeedSnapshot(f *testing.F) []byte {
	f.Helper()
	b := tvg.NewBuilder()
	b.Reset(4, 20)
	b.StartEdge(0, 1, 'a')
	b.Append(1, 2)
	b.Append(5, 9)
	b.StartEdge(2, 3, 'b')
	b.Append(3, 4)
	cs, err := b.Finalize()
	if err != nil {
		f.Fatal(err)
	}
	cs, err = cs.AppendContacts([]tvg.ContactRecord{{From: 1, To: 2, Dep: 7, Arr: 8}})
	if err != nil {
		f.Fatal(err)
	}
	return EncodeSnapshot(&Snapshot{Stream: "seed", Seq: 3, CoveredLSN: 9, Raw: cs.Raw()})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the full decode+restore
// path. The invariant under fuzz: never panic, never allocate beyond
// the input's own size (header-declared lengths are validated against
// the file size first), and fail only with the package's typed errors.
func FuzzSnapshotDecode(f *testing.F) {
	img := fuzzSeedSnapshot(f)
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:snapHeaderWire])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	flip := append([]byte(nil), img...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)
	if v1, err := os.ReadFile(v1Fixture); err == nil {
		f.Add(v1) // the version-1 decode path
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, cs, err := Restore(data)
		if err != nil {
			return
		}
		// A successful restore must yield a usable set: probe it.
		if cs.NumContacts() < 0 || cs.Horizon() < 0 {
			t.Fatalf("restored a nonsense set from fuzzed input")
		}
		_ = cs.ContactsAt(0)
		_ = snap.Stream
	})
}

// FuzzWALOpen writes arbitrary bytes as a WAL segment and opens the
// directory: recovery must never panic, and whatever it accepts must
// replay cleanly (records decode, LSNs ascend).
func FuzzWALOpen(f *testing.F) {
	// Seed: a real segment with three records.
	dir := f.TempDir()
	w, err := OpenWAL(dir, WALOptions{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, wait, err := w.Append(&Record{Type: RecAppend, Stream: "s", Recs: []tvg.ContactRecord{
			{From: 0, To: 1, Dep: tvg.Time(i + 1), Arr: tvg.Time(i + 2)},
		}})
		if err != nil {
			f.Fatal(err)
		}
		if err := wait(); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	img, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)-7])
	f.Add(img[:walHeaderWire])
	f.Add([]byte(walMagic))
	f.Add([]byte{})
	flip := append([]byte(nil), img...)
	flip[walHeaderWire+5] ^= 0x01
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		fdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(fdir, "wal-0000000000000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var last uint64
		w, err := OpenWAL(fdir, WALOptions{}, func(r *Record) error {
			if r.LSN <= last {
				t.Fatalf("replayed LSNs not ascending: %d after %d", r.LSN, last)
			}
			last = r.LSN
			return nil
		})
		if err != nil {
			return
		}
		// An accepted log must take appends after recovery.
		_, wait, err := w.Append(&Record{Type: RecCreate, Stream: "x", Nodes: 2, Horizon: 1})
		if err == nil {
			if err := wait(); err != nil {
				t.Fatalf("post-recovery append not durable: %v", err)
			}
		}
		w.Close()
	})
}
