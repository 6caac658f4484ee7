package bench

import (
	"testing"
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

// TestBulkLoadShapes runs the bulk-load measurement on both backends and
// checks it ingested the whole dataset.
func TestBulkLoadShapes(t *testing.T) {
	env := newEnv(t, "MED")
	for _, b := range []Backend{Memstore, Diskstore} {
		rows, err := BulkLoad(env, b)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", b, len(rows))
		}
		if r := rows[0]; r.Mode != "bulk" || r.Vertices == 0 || r.Edges == 0 {
			t.Errorf("%s: %+v, want a bulk load of the whole dataset", b, r)
		}
	}
}
