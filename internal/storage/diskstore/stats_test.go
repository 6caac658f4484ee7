package diskstore

import (
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// TestStatisticsRoundTrip checks the statistics block end to end:
// counts and bloom answers survive Flush/Close/Open via index.db, and
// deleting index.db degrades to conservative answers instead of wrong
// ones.
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

	// A value that exists must probe true (definitive-false contract);
	// find one through the public read surface.
	var haveLabel, haveKey string
	var haveVal graph.Value
	s.ForEachVertex("A", func(v storage.VID) bool {
		for _, k := range s.PropKeys(v) {
			if val, ok := s.Prop(v, k); ok {
				haveLabel, haveKey, haveVal = "A", k, val
				return false
			}
		}
		return true
	})
	if haveLabel == "" {
		t.Fatal("test graph has no A-labeled vertex with a property")
	}
	if !st.MayHaveProp(haveLabel, haveKey, haveVal) {
		t.Fatalf("MayHaveProp(%s, %s, %v) = false for a present value", haveLabel, haveKey, haveVal)
	}
	if st.MayHaveProp("NoSuchLabel", haveKey, haveVal) {
		t.Fatal("MayHaveProp with unknown label should be definitively false")
	}
	if st.MayHaveProp(haveLabel, "noSuchKey", haveVal) {
		t.Fatal("MayHaveProp with unknown key should be definitively false")
	}
	// Deterministic absent value: with ~0.8% FP rate this specific probe
	// coming back true would be a (fixed, reproducible) hash collision.
	if st.MayHaveProp(haveLabel, haveKey, graph.S("definitely-absent-sentinel")) {
		t.Fatal("MayHaveProp for an absent value probed true (bloom collision in fixed test data)")
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
	if !storage.Statistics(re).MayHaveProp(haveLabel, haveKey, haveVal) {
		t.Fatal("reopened store lost a present value from its bloom filter")
	}
	idx := re.indexPath(re.Format().Generation)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Without index.db the store still opens (index rebuilt by scan) but
	// has no statistics: nil counts, conservative "maybe" probes.
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if got := storage.Statistics(cold).EdgeTypeCounts(); got != nil {
		t.Fatalf("store without index.db returned EdgeTypeCounts %v, want nil", got)
	}
	if !storage.Statistics(cold).MayHaveProp(haveLabel, haveKey, graph.S("definitely-absent-sentinel")) {
		t.Fatal("store without statistics must answer MayHaveProp conservatively (true)")
	}
}

// TestStatisticsLiveDelta checks that live writes flip bloom answers to
// conservative until the delta folds: a fresh value applied via
// ApplyMutations must probe "maybe" immediately, and definitively after
// Compact rebuilds the filters.
func TestStatisticsLiveDelta(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := storetest.BuildRandom(s, 78, 60, 150); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !s.Live() {
		t.Fatal("finalized store with edges should be live")
	}
	val := graph.S("live-only-value")
	if storage.Statistics(s).MayHaveProp("A", "p0", val) {
		t.Fatal("value not yet written probed true on a clean base")
	}
	res, err := s.ApplyMutations([]storage.Mutation{
		{Op: storage.MutAddVertex, Labels: []string{"A"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyMutations([]storage.Mutation{
		{Op: storage.MutSetProp, V: res.Vertices[0], Key: "p0", Value: val},
	}); err != nil {
		t.Fatal(err)
	}
	if !storage.Statistics(s).MayHaveProp("A", "p0", val) {
		t.Fatal("dirty delta must force conservative MayHaveProp answers")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if !storage.Statistics(s).MayHaveProp("A", "p0", val) {
		t.Fatal("folded value must be in the rebuilt bloom filters")
	}
	if storage.Statistics(s).MayHaveProp("A", "p0", graph.S("still-absent-sentinel")) {
		t.Fatal("absent value probed true after fold (bloom collision in fixed test data)")
	}
}
