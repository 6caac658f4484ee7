package diskstore

// FuzzLoadIndex opens a finalized store over arbitrary index.db bytes.
// The magic and CRC are rewritten for every input long enough to hold
// them, so the body parser runs on what a CRC would have caught too:
//
//   - Open never panics or fails: a refused index falls back to the
//     vertex scan (IndexLoaded false);
//   - an accepted index names only vertices of the store, a count and a
//     scan of every label complete and agree, and a lookup of every value
//     a label's members hold visits what the filtered label scan does;
//   - either way the graph reads back as built, and the statistics
//     surface answers without panicking.

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"slices"
	"testing"

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
	// The statistics block is the file's last section: the presence
	// byte, then u32 count and u64 per edge type.
	tail := 1 + 4 + 8*len(ep.typeCounts)
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
	binary.LittleEndian.PutUint32(huge[len(orig)-tail+1:], 1<<31)
	f.Add(huge)
	// The value postings section: a run past the postings, a posting past
	// the vertices, a slot past the ranges, and cuts through each table.
	for _, c := range []struct {
		field int
		arg   uint64
	}{{postingsRunLen, 1}, {postingsRunLen, 1 << 31}, {postingsFirstVID, 40}, {postingsFirstVID, 1<<32 - 1}, {postingsFirstSlot, 0}} {
		bad := append([]byte(nil), orig...)
		corruptPostings(bad, c.field, c.arg)
		f.Add(bad)
	}
	ranges, vids, slots := postingsOffsets(orig)
	for _, n := range []int{ranges + 10, vids + 4, slots + 2} {
		f.Add(orig[:n])
	}

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
				checkLookupsOfHeldValues(t, s, label)
			}
		}
		if got := storetest.Fingerprint(s); got != want {
			t.Fatalf("store reads differently over this index\n got %.200s\nwant %.200s", got, want)
		}
		s.LabelCounts()
		s.EdgeTypeCounts()
	})
}

// checkLookupsOfHeldValues looks up every value a member of label holds
// and compares the visit with the filtered label scan.
func checkLookupsOfHeldValues(t *testing.T, g storage.Graph, label storage.SymbolID) {
	t.Helper()
	g.ForEachVertexID(label, func(v storage.VID) bool {
		for _, key := range g.PropKeys(v) {
			k := g.KeyID(key)
			val, _ := g.PropID(v, k)
			var got, want []storage.VID
			g.ForEachVertexByPropID(label, k, val, func(u storage.VID) bool {
				got = append(got, u)
				return true
			})
			storage.ScanByPropID(g, label, k, val, func(u storage.VID) bool {
				want = append(want, u)
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("lookup of label %d %s = %v: %v, label scan %v", label, key, val, got, want)
			}
		}
		return true
	})
}
