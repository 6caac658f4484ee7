package diskstore

// FuzzLoadIndex opens a finalized store over arbitrary index.db bytes.
// The magic and CRC are rewritten for every input long enough to hold
// them, so the body parser runs on what a CRC would have caught too:
//
//   - Open never panics or fails: a refused index falls back to the
//     vertex scan (IndexLoaded false);
//   - an accepted index names only vertices of the store, and a count and
//     a scan of every label complete and agree;
//   - either way the graph reads back as built, and the statistics
//     surface answers without panicking.

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

func FuzzLoadIndex(f *testing.F) {
	opts := Options{PageSize: 512, CachePages: 16}
	dir := f.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 5, 40, 90); err != nil {
		f.Fatal(err)
	}
	want := storetest.Fingerprint(s)
	ep := s.curEp()
	path := s.indexPath(ep.gen)
	// The bloom-count field sits before the filters, the file's last
	// section: u32 labelID, u32 keyID, u64 m, u32 k, then m/8 bytes each.
	tail := 4
	for _, b := range ep.blooms {
		tail += 20 + 8*len(b.bits)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(orig)
	for _, n := range []int{0, len(indexMagic) + 4, len(indexMagic) + 4 + 24, len(orig) / 2, len(orig) - tail, len(orig) - 1} {
		f.Add(orig[:n])
	}
	huge := append([]byte(nil), orig...)
	binary.LittleEndian.PutUint32(huge[len(orig)-tail:], bloomMaxBits)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, raw []byte) {
		data := append([]byte(nil), raw...)
		if len(data) >= len(indexMagic)+4 {
			copy(data, indexMagic)
			binary.LittleEndian.PutUint32(data[len(indexMagic):], crc32.ChecksumIEEE(data[len(indexMagic)+4:]))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		n := s.NumVertices()
		if s.Format().IndexLoaded {
			for id, vids := range s.curEp().byLabel {
				for _, v := range vids {
					if v < 0 || int(v) >= n {
						t.Fatalf("label %d posting names vertex %d of %d", id, v, n)
					}
				}
			}
			for id := range s.labels {
				label := storage.SymbolID(id)
				seen := 0
				s.ForEachVertexID(label, func(v storage.VID) bool {
					if v < 0 || int(v) >= n {
						t.Fatalf("scan of label %d yielded vertex %d of %d", id, v, n)
					}
					seen++
					return true
				})
				if c := s.CountLabelID(label); c != seen {
					t.Fatalf("CountLabelID(%d) = %d, but its scan visited %d", id, c, seen)
				}
			}
		}
		if got := storetest.Fingerprint(s); got != want {
			t.Fatalf("store reads differently over this index\n got %.200s\nwant %.200s", got, want)
		}
		s.LabelCounts()
		s.EdgeTypeCounts()
		for _, l := range s.labels {
			for _, k := range s.keys {
				s.MayHaveProp(l, k, graph.I(1))
			}
		}
	})
}
