package diskstore

import (
	"maps"
	"os"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// TestStatisticsRoundTrip checks the statistics block end to end:
// label counts survive Flush/Close/Open via vertices.db and edge-type
// counts via index.db, and an Open without index.db rebuilds the same
// edge-type counts by scanning.
func TestStatisticsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 77, 120, 300); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	var st storage.Statistics = s
	etc := st.EdgeTypeCounts()
	if etc == nil {
		t.Fatal("finalized store returned nil EdgeTypeCounts")
	}
	totalE := 0
	for _, c := range etc {
		totalE += c
	}
	if totalE != s.NumEdges() {
		t.Fatalf("edge-type counts sum to %d, store has %d edges", totalE, s.NumEdges())
	}
	lc := st.LabelCounts()
	for name, c := range lc {
		if got := s.CountLabel(name); got != c {
			t.Fatalf("LabelCounts[%s] = %d, CountLabel = %d", name, c, got)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: stats must come back from the persisted index block.
	re, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !re.Format().IndexLoaded {
		t.Fatal("reopened store did not load index.db")
	}
	etc2 := storage.Statistics(re).EdgeTypeCounts()
	if len(etc2) != len(etc) {
		t.Fatalf("reopened EdgeTypeCounts has %d types, want %d", len(etc2), len(etc))
	}
	for k, v := range etc {
		if etc2[k] != v {
			t.Fatalf("reopened EdgeTypeCounts[%s] = %d, want %d", k, etc2[k], v)
		}
	}
	idx := re.indexPath(re.Format().Generation)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Without index.db the store still opens, and its scan rebuilds the
	// index and the edge-type counts from the type directories.
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if cold.Format().IndexLoaded {
		t.Fatal("store without index.db claims IndexLoaded")
	}
	if got := storage.Statistics(cold).EdgeTypeCounts(); !maps.Equal(got, etc) {
		t.Fatalf("store without index.db returned EdgeTypeCounts %v, want %v", got, etc)
	}
}

// TestStatisticsLiveDelta checks the counts under live writes: a vertex
// applied through ApplyMutations counts under its label at once, while
// edge-type counts describe the base and take in the delta's edges when
// Compact folds it.
func TestStatisticsLiveDelta(t *testing.T) {
	s, err := Open(t.TempDir(), Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := storetest.BuildRandom(s, 78, 60, 150); err != nil {
		t.Fatal(err)
	}
	labels0, types0 := s.LabelCounts(), s.EdgeTypeCounts()
	if _, err := s.ApplyMutations([]storage.Mutation{
		{Op: storage.MutAddVertex, Labels: []string{"A"}},
		{Op: storage.MutAddEdge, Src: 0, Dst: -1, Type: "r1"},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := s.LabelCounts()["A"], labels0["A"]+1; got != want {
		t.Errorf("LabelCounts[A] with a live vertex = %d, want %d", got, want)
	}
	if got := s.EdgeTypeCounts()["r1"]; got != types0["r1"] {
		t.Errorf("EdgeTypeCounts[r1] before the fold = %d, want the base's %d", got, types0["r1"])
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.EdgeTypeCounts()["r1"], types0["r1"]+1; got != want {
		t.Errorf("EdgeTypeCounts[r1] after the fold = %d, want %d", got, want)
	}
	if got, want := s.LabelCounts()["A"], labels0["A"]+1; got != want {
		t.Errorf("LabelCounts[A] after the fold = %d, want %d", got, want)
	}
}
