package diskstore

// FuzzLoadIndex opens a finalized store over arbitrary index.db bytes.
// The magic and CRC are rewritten for every input long enough to hold
// them, so the body parser runs on what a CRC would have caught too:
//
//   - Open never panics or fails: a refused index falls back to the
//     vertex scan (IndexLoaded false);
//   - every range of an accepted index names a label and a key inside
//     the manifest's tables, and a lookup of every value a label's
//     members hold visits what the filtered label scan does (the label
//     index itself comes from vertices.db, not from this file);
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
	numLabels, numKeys := uint64(len(s.labels)), uint64(len(s.keys))
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
	// the vertices, a slot past the ranges, a label or key past the
	// manifest's tables, and cuts through each table.
	for _, c := range []struct {
		field int
		arg   uint64
	}{
		{postingsRunLen, 1}, {postingsRunLen, 1 << 31}, {postingsFirstVID, 40}, {postingsFirstVID, 1<<32 - 1}, {postingsFirstSlot, 0},
		{postingsFirstLabel, numLabels}, {postingsFirstLabel, 1<<32 - 1}, {postingsFirstKey, numKeys}, {postingsFirstKey, 1<<32 - 1},
	} {
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
		if s.Format().IndexLoaded {
			_, ranges, _ := s.curEp().values.Parts()
			for i, r := range ranges {
				if r.Label < 0 || uint64(r.Label) >= numLabels || r.Key < 0 || uint64(r.Key) >= numKeys {
					t.Fatalf("range %d names label %d and key %d; the manifest has %d labels and %d keys", i, r.Label, r.Key, numLabels, numKeys)
				}
			}
			for id := range s.labels {
				checkLookupsOfHeldValues(t, s, storage.SymbolID(id))
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
