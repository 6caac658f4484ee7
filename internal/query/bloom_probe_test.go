package query

import (
	"fmt"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
)

// TestBloomProbeSkipsEmptyScans is the acceptance gate for the
// statistics-guarded root scan: over a batch of property-constrained
// queries whose values provably do not exist, at least 90% of the root
// label scans must be skipped without touching a single vertex, while
// queries for present values keep returning exactly their rows.
func TestBloomProbeSkipsEmptyScans(t *testing.T) {
	s, err := diskstore.Open(t.TempDir(), diskstore.Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buildMedGraph(t, s)
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, ok := any(s).(storage.Statistics); !ok {
		t.Fatal("diskstore does not implement storage.Statistics")
	}

	// Present value: guarded, must not be skipped, must match.
	skips0, fp0 := BloomSkips(), BloomFP()
	res := mustRun(t, s, `MATCH (d:Drug {name: 'Aspirin'}) RETURN d.brand`)
	if got := rowStrings(res); len(got) != 1 || got[0] != `["Ecotrin"]` {
		t.Fatalf("present-value query rows = %v", got)
	}
	if BloomSkips() != skips0 {
		t.Fatal("scan for a present value was wrongly skipped")
	}

	// Empty probes: each query constrains the root on a value that was
	// never written. The guard must skip ≥90% of them (the bloom design
	// FP rate is ~0.8%, so typically all 100 are skipped).
	const probes = 100
	skipped := 0
	for i := 0; i < probes; i++ {
		src := fmt.Sprintf(`MATCH (d:Drug {name: 'absent-%d'}) RETURN d.brand`, i)
		p, err := Prepare(s, cypher.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		before := BloomSkips()
		var st Stats
		r, err := collect(p, 1, &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 0 {
			t.Fatalf("probe %d returned rows: %v", i, rowStrings(r))
		}
		if BloomSkips() > before {
			skipped++
			if st.VerticesScanned != 0 {
				t.Fatalf("probe %d counted as skipped but scanned %d vertices", i, st.VerticesScanned)
			}
		}
	}
	if skipped < probes*90/100 {
		t.Fatalf("bloom guard skipped %d/%d empty probes, want >= 90%%", skipped, probes)
	}
	// Every non-skipped empty probe is an observable false positive.
	if got, want := BloomFP()-fp0, int64(probes-skipped); got != want {
		t.Fatalf("BloomFP advanced by %d, want %d", got, want)
	}
}

// TestBloomProbeHonorsLiveWrites checks the conservative direction: a
// value written after the plan was compiled must be found, because the
// dirty delta flips the store's statistics answers back to "maybe".
func TestBloomProbeHonorsLiveWrites(t *testing.T) {
	s, err := diskstore.Open(t.TempDir(), diskstore.Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buildMedGraph(t, s)
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !s.Live() {
		t.Skip("store not live; cannot test post-finalize writes")
	}

	src := `MATCH (d:Drug {name: 'Nabumetone'}) RETURN d.name`
	p, err := Prepare(s, cypher.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Fatalf("value not yet written matched rows: %v", rowStrings(r))
	}

	res, err := s.ApplyMutations([]storage.Mutation{
		{Op: storage.MutAddVertex, Labels: []string{"Drug"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyMutations([]storage.Mutation{
		{Op: storage.MutSetProp, V: res.Vertices[0], Key: "name", Value: graph.S("Nabumetone")},
	}); err != nil {
		t.Fatal(err)
	}
	r, err = p.Execute() // same compiled plan, re-probed per execution
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(r); len(got) != 1 || got[0] != `["Nabumetone"]` {
		t.Fatalf("live-written value not found through guarded plan: %v", got)
	}
}

// TestBloomProbeMemstoreExact: memstore's statistics are exact, so every
// empty probe is skipped and no false positives are ever recorded.
func TestBloomProbeMemstoreExact(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	fp0 := BloomFP()
	for i := 0; i < 20; i++ {
		before := BloomSkips()
		res := mustRun(t, mem, fmt.Sprintf(`MATCH (d:Drug {name: 'nope-%d'}) RETURN d.name`, i))
		if len(res.Rows) != 0 {
			t.Fatalf("probe %d returned rows: %v", i, rowStrings(res))
		}
		if BloomSkips() != before+1 {
			t.Fatalf("probe %d not skipped on exact-statistics backend", i)
		}
	}
	if BloomFP() != fp0 {
		t.Fatal("exact-statistics backend recorded bloom false positives")
	}
}
