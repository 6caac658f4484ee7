package bench

import (
	"testing"

	"repro/internal/loader"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/storetest"
)

// TestColdOpenIndexGate is the cold-open regression gate (also run by the
// CI format-compat job): opening a store through its persisted index
// must not scan vertex records — zero pager reads — while the scan
// fallback on the same store pays reads proportional to the vertex count.
func TestColdOpenIndexGate(t *testing.T) {
	env := newEnv(t, "MED")
	rows, err := ColdOpen(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	indexed, scan := rows[0], rows[1]
	if indexed.Mode != "indexed" || !indexed.IndexLoaded {
		t.Fatalf("first row is not the indexed open: %+v", indexed)
	}
	if scan.Mode != "scan" || scan.IndexLoaded {
		t.Fatalf("second row is not the scan open: %+v", scan)
	}
	if indexed.PageReads != 0 {
		t.Errorf("indexed cold open read %d pages; want 0 (index.db bypasses the pager)", indexed.PageReads)
	}
	if scan.PageReads == 0 {
		t.Error("scan open read no pages; the comparison is not measuring a vertex scan")
	}
	if scan.Vertices != indexed.Vertices || indexed.Vertices == 0 {
		t.Errorf("vertex counts diverge: %d vs %d", indexed.Vertices, scan.Vertices)
	}
}

// TestBulkLoadShapes runs the bulk-vs-incremental load comparison on both
// backends and checks both paths ingested the whole dataset.
func TestBulkLoadShapes(t *testing.T) {
	env := newEnv(t, "MED")
	for _, b := range []Backend{Memstore, Diskstore} {
		rows, err := BulkLoad(env, b)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows", b, len(rows))
		}
		for _, r := range rows {
			if r.Vertices == 0 || r.Edges == 0 {
				t.Errorf("%s/%s loaded %d vertices, %d edges", b, r.Mode, r.Vertices, r.Edges)
			}
		}
		if rows[0].Vertices != rows[1].Vertices || rows[0].Edges != rows[1].Edges {
			t.Errorf("%s: bulk and incremental loads ingested different counts: %+v", b, rows)
		}
	}
}

// TestBulkLoadMatchesIncremental proves the two loader write paths
// produce observably identical diskstore graphs for a real dataset, and
// that the bulk-loaded store comes out segmented.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	env := newEnv(t, "MED")
	bulk, bulkClean, err := env.openStore(Diskstore, "eqbulk")
	if err != nil {
		t.Fatal(err)
	}
	defer bulkClean()
	inc, incClean, err := env.openStore(Diskstore, "eqinc")
	if err != nil {
		t.Fatal(err)
	}
	defer incClean()
	if _, _, err := loader.Load(bulk, env.Dataset, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loader.Load(incrementalOnly{inc}, env.Dataset, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := storetest.Fingerprint(bulk), storetest.Fingerprint(inc); got != want {
		t.Errorf("bulk-loaded diskstore diverges from incremental load:\n got: %.300s...\nwant: %.300s...", got, want)
	}
	if ds, ok := bulk.(*diskstore.Store); !ok || !ds.Format().Compressed {
		t.Error("bulk-loaded diskstore is not finalized into compressed segments")
	}
}
