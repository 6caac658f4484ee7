package diskstore

// On-disk format tests: persisted index opens, type-segmented adjacency,
// bulk finalize, the refuse-then-Upgrade contract for the committed
// golden v3/v4 fixtures, and crash-safe (atomic) flushes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// TestOpenUsesPersistedIndex is the acceptance gate for the persisted
// index: a cold open must read O(index) pages — here zero, since index.db
// bypasses the pager — while deleting index.db forces the full-vertex
// scan, whose pager reads grow with the vertex count.
func TestOpenUsesPersistedIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	const nVertices = 2000
	batch := make([]storage.BulkVertex, nVertices)
	for i := range batch {
		batch[i].Labels = []string{"L" + string(rune('A'+i%7))}
	}
	if _, err := s.AddVertexBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	want := s.CountLabel("LA")
	idx := s.indexPath(s.Format().Generation)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !re.Format().IndexLoaded {
		t.Error("open did not use index.db")
	}
	if got := re.Stats().PageReads; got != 0 {
		t.Errorf("indexed open read %d pages; want 0 (no vertex scan)", got)
	}
	if got := re.CountLabel("LA"); got != want {
		t.Errorf("CountLabel(LA) from persisted index = %d, want %d", got, want)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Without the index file the store must still open — via the scan —
	// and that scan must touch O(vertices) pages, demonstrating exactly
	// the cost the index removes.
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	scan, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	if scan.Format().IndexLoaded {
		t.Error("open without index.db claims IndexLoaded")
	}
	vertexPages := int64(nVertices * vertexRecSize / 512)
	if got := scan.Stats().PageReads; got < vertexPages {
		t.Errorf("scan open read %d pages, expected at least the %d vertex pages", got, vertexPages)
	}
	if got := scan.CountLabel("LA"); got != want {
		t.Errorf("CountLabel(LA) from scan = %d, want %d", got, want)
	}
}

// TestCorruptIndexFallsBackToScan flips a byte of index.db: the CRC must
// reject it and the open must silently rebuild by scanning.
func TestCorruptIndexFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 5, 60, 150); err != nil {
		t.Fatal(err)
	}
	want := storetest.Fingerprint(s)
	path := s.indexPath(s.Format().Generation)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatalf("corrupt index.db made Open fail: %v", err)
	}
	defer re.Close()
	if re.Format().IndexLoaded {
		t.Error("corrupt index.db was accepted")
	}
	if got := storetest.Fingerprint(re); got != want {
		t.Error("scan fallback store diverges")
	}
}

// TestFlushIsAtomic: flushes must go through temp-file + rename, so no
// .tmp litter survives a clean Close, and leftover temp files from a
// simulated crash are harmless garbage, not store state.
func TestFlushIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 9, 30, 60); err != nil {
		t.Fatal(err)
	}
	want := storetest.Fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temp file %s survived Close", e.Name())
		}
	}
	// A crash between writing a temp file and renaming it leaves garbage
	// .tmp files; the committed manifest/index must win.
	for _, name := range []string{"manifest.json.tmp", "index.db.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatalf("leftover temp files broke Open: %v", err)
	}
	defer re.Close()
	if got := storetest.Fingerprint(re); got != want {
		t.Error("store state diverged in the presence of leftover temp files")
	}
}

// TestSegmentedTypedTraversalReadsFewerPages is the acceptance gate for
// type-segmented adjacency: a typed ForEachOut on a mixed-type hub seeks
// straight to its type's segment, so cold it touches a small fraction of
// the pages the untyped walk over every type's segment touches.
func TestSegmentedTypedTraversalReadsFewerPages(t *testing.T) {
	const fan = 20000
	types := []string{"a", "b", "c", "d", "e"}
	s := newTestStore(t, Options{PageSize: 512, CachePages: 64})
	hub := loadHub(t, s, fan, types...) // interleaved types: the worst case for a filter
	collect := func(et string) (int, int64) {
		if err := s.DropCache(); err != nil {
			t.Fatal(err)
		}
		s.ResetStats()
		n := 0
		s.ForEachOut(hub, et, func(storage.EID, storage.VID) bool { n++; return true })
		return n, s.Stats().PageReads
	}
	gotN, typedReads := collect("b")
	allN, allReads := collect("")
	if gotN != fan/len(types) || allN != fan {
		t.Fatalf("traversals visited %d (typed) and %d (untyped), want %d and %d", gotN, allN, fan/len(types), fan)
	}
	// Each type's segment takes about a byte per edge: ~8 of the ~40
	// pages at 512 B, plus the vertex and degree records.
	if typedReads >= allReads/3 {
		t.Errorf("typed traversal read %d pages vs %d for the untyped walk; expected well under a third", typedReads, allReads)
	}
	if got := s.Degree(hub, "b", true); got != gotN {
		t.Errorf("Degree = %d, want %d", got, gotN)
	}
}

// runQuerySorted executes a Cypher query and returns its rows in
// comparison order.
func runQuerySorted(t *testing.T, g storage.Graph, src string) [][]string {
	t.Helper()
	q, err := cypher.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Run(g, q)
	if err != nil {
		t.Fatal(err)
	}
	query.SortRowsForComparison(res.Rows)
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		for _, v := range row {
			out[i] = append(out[i], v.String())
		}
	}
	return out
}

// upgradeQueries exercise label scans, typed expands in both directions,
// and typed aggregation over the BuildRandom vocabulary.
var upgradeQueries = []string{
	`MATCH (a:A)-[:r1]->(b) RETURN a.p0, b.p1`,
	`MATCH (a)-[:r2]->(b:B) RETURN COUNT(*)`,
	`MATCH (a:C)<-[:r3]-(b) RETURN a.p2, COUNT(b.p0)`,
}

// copyDir copies the flat fixture directory into a scratch dir so tests
// never mutate the committed golden files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// dirState records every file in dir as "mtime + content", so two states
// compare equal only if nothing was created, removed, rewritten or touched.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]string{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = fmt.Sprintf("%d %x", info.ModTime().UnixNano(), data)
	}
	return state
}

// checkGoldenUpgrade is the legacy-store contract on one committed
// fixture (the CI format-compat gate): Open refuses it with
// ErrLegacyFormat and leaves the directory untouched; Upgrade converts it
// in place; the result opens as a current-format store — finalized,
// indexed, live, with statistics — whose every observable bit matches the
// fingerprint recorded when the fixture was written; and a second Upgrade
// is a no-op.
func checkGoldenUpgrade(t *testing.T, fixture string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(fixture, "FINGERPRINT.txt"))
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	dir := copyDir(t, fixture)
	opts := Options{PageSize: 512, CachePages: 32}

	before := dirState(t, dir)
	if _, err := Open(dir, opts); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("Open of a legacy store: err = %v, want ErrLegacyFormat", err)
	}
	if !maps.Equal(before, dirState(t, dir)) {
		t.Fatal("refused Open modified the legacy store directory")
	}

	// An earlier build's upgrade that crashed mid-rewrite left its marker;
	// neither Open nor Upgrade may take the half-rewritten files at face
	// value.
	marker := filepath.Join(dir, finalizeMarker)
	if err := os.WriteFile(marker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Upgrade(dir, opts); !errors.Is(err, ErrFinalizeInterrupted) {
		t.Fatalf("Upgrade over an interrupted upgrade: err = %v, want ErrFinalizeInterrupted", err)
	}
	if err := os.Remove(marker); err != nil {
		t.Fatal(err)
	}

	// An upgrade that crashed before its commit left the next
	// generation's files behind, and an earlier build's fold its fold.tmp
	// scratch directory: the store is still legacy, and the next Upgrade
	// sweeps them.
	m, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	genNames := append(baseFileNames[:], indexFileName)
	orphans := []string{filepath.Join("fold.tmp", "vertices.db")}
	for _, name := range genNames {
		orphans = append(orphans, genFileName(name, m.Generation+1))
	}
	if err := os.Mkdir(filepath.Join(dir, "fold.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, opts); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("Open of a legacy store with orphans: err = %v, want ErrLegacyFormat", err)
	}

	if err := Upgrade(dir, opts); err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	if m, _, err = readManifest(dir); err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{"manifest.json": true, "FINGERPRINT.txt": true}
	for _, name := range genNames {
		keep[genFileName(name, m.Generation)] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !keep[e.Name()] {
			t.Errorf("Upgrade left %s beside the committed generation %d", e.Name(), m.Generation)
		}
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("upgraded store rejected: %v", err)
	}
	if got := s.Format(); got.Version != formatVersion || !got.Compressed || !got.IndexLoaded {
		t.Errorf("upgraded store opened as %+v, want v%d compressed+indexed", got, formatVersion)
	}
	if !s.Live() {
		t.Error("upgraded store is not live")
	}
	if got := storetest.Fingerprint(s); got != string(want) {
		t.Error("upgraded store diverges from the recorded fingerprint")
	}
	storetest.CheckFastEquivalence(t, s, s)
	for _, q := range upgradeQueries {
		if len(runQuerySorted(t, s, q)) == 0 {
			t.Errorf("query %q returned no rows on the upgraded store", q)
		}
	}
	if storage.Statistics(s).EdgeTypeCounts() == nil {
		t.Error("upgraded store has no persisted edge-type counts")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	upgraded := dirState(t, dir)
	if err := Upgrade(dir, opts); err != nil {
		t.Fatalf("second Upgrade: %v", err)
	}
	if !maps.Equal(upgraded, dirState(t, dir)) {
		t.Error("Upgrade of a current-format store touched its files")
	}
}

// TestGoldenV3Store: testdata/golden-v3 was written by the v3 code before
// the v4 refactor — incremental build, 32-byte degree records, no
// index.db.
func TestGoldenV3Store(t *testing.T) { checkGoldenUpgrade(t, "testdata/golden-v3") }

// TestGoldenV4Store: testdata/golden-v4 was written by the v4 code before
// compression became the only layout — bulk build, type-segmented 64-byte
// edge records, a PGSIDX04 index.
func TestGoldenV4Store(t *testing.T) { checkGoldenUpgrade(t, "testdata/golden-v4") }

// TestUpgradeReplaysLegacyWAL: a legacy v4 store that took live writes
// carries them in wal.db, not in its base files, and Upgrade must fold
// them in rather than drop acknowledged mutations. The golden-v4 fixture
// has no WAL, so one is borrowed from a current-format twin built by the
// fixture's own recipe (WAL records name symbols by string and vertices
// by absolute VID, so they replay onto either base).
func TestUpgradeReplaysLegacyWAL(t *testing.T) {
	opts := Options{PageSize: 512, CachePages: 32}
	twinDir := t.TempDir()
	twin, err := Open(twinDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(twin, 21, 60, 160); err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile("testdata/golden-v4/FINGERPRINT.txt")
	if err != nil {
		t.Fatal(err)
	}
	if storetest.Fingerprint(twin) != string(base) {
		t.Fatal("precondition: the golden-v4 recipe no longer rebuilds the fixture's graph")
	}
	applyLiveStream(t, 5, 40, twin, storetest.RandomBatch(21, 60, 160))
	want := storetest.Fingerprint(twin)
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(twinDir, walFileName))
	if err != nil || len(wal) == 0 {
		t.Fatalf("twin left no WAL to borrow (err=%v)", err)
	}
	dir := copyDir(t, "testdata/golden-v4")
	// The twin's records carry its base generation (1, after its bulk
	// Finalize). Replay refuses records from a generation newer than the
	// manifest's, so the borrowed log is re-stamped with the fixture's.
	m, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	batches, _ := parseWAL(wal, ^uint32(0))
	w, err := openWAL(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		ops, err := encodeWALOps(b.ops)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.append(ops, len(b.ops), uint32(m.Generation)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	if err := Upgrade(dir, opts); err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	if st, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || st.Size() != 0 {
		t.Errorf("WAL not checkpointed by the upgrade's commit (size/err: %v/%v)", st, err)
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := storetest.Fingerprint(s); got != want {
		t.Error("upgraded store lost or altered the legacy WAL's mutations")
	}
	if ls := s.LiveStats(); ls.DeltaVertices != 0 || ls.DeltaEdges != 0 {
		t.Errorf("legacy WAL replayed again after the upgrade folded it: %+v", ls)
	}
}

// TestUnfinalizedV5StoreIsLegacy: an earlier build could close a v5
// store built by single AddEdge calls without finalizing it — manifest
// "compressed" false, 64-byte edge records in edges.db, properties in
// chained records. Open refuses it with ErrLegacyFormat and leaves it as
// found; Upgrade converts it through the record scan, into the graph the
// records describe.
func TestUnfinalizedV5StoreIsLegacy(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...[]byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), bytes.Join(recs, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vertex := func(labels uint64, firstProp int64) []byte {
		b := vertexRec{inUse: true, labels: [2]uint64{labels}, firstProp: firstProp}.encode()
		return b[:]
	}
	prop := func(r propRec) []byte {
		b := r.encode()
		return b[:]
	}
	edge := func(typeID uint32, src, dst int64) []byte {
		var b [edgeRecSize]byte
		b[0] = 1
		binary.LittleEndian.PutUint32(b[1:], typeID)
		binary.LittleEndian.PutUint64(b[5:], uint64(src))
		binary.LittleEndian.PutUint64(b[13:], uint64(dst))
		return b[:]
	}
	write("vertices.db", vertex(1, 1), vertex(2, 0), vertex(3, 0))
	write("props.db",
		prop(propRec{inUse: true, keyID: 0, kind: graph.KindString, a: 0, b: 7, next: 2}),
		prop(propRec{inUse: true, keyID: 1, kind: graph.KindInt, a: 1}))
	write("blobs.db", []byte("aspirin"))
	write("edges.db", edge(0, 0, 1), edge(1, 1, 2), edge(0, 0, 2))
	write("degrees.db")
	write("manifest.json", []byte(`{"version":5,"labels":["A","B"],"types":["r1","r2"],"keys":["name","rank"],`+
		`"num_vertices":3,"num_edges":3,"num_props":2,"blob_size":7}`))

	model := &storetest.Batch{}
	for _, labels := range [][]string{{"A"}, {"B"}, {"A", "B"}} {
		model.Vertex(labels...)
	}
	model.Prop(0, "name", graph.S("aspirin"))
	model.Prop(0, "rank", graph.I(1))
	model.Edge(0, 1, "r1")
	model.Edge(1, 2, "r2")
	model.Edge(0, 2, "r1")

	opts := Options{PageSize: 512, CachePages: 8}
	before := dirState(t, dir)
	if _, err := Open(dir, opts); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("Open of an unfinalized v5 store: err = %v, want ErrLegacyFormat", err)
	}
	if !maps.Equal(before, dirState(t, dir)) {
		t.Fatal("refused Open modified the store directory")
	}
	if err := Upgrade(dir, opts); err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("upgraded store rejected: %v", err)
	}
	defer s.Close()
	if got, want := storetest.Fingerprint(s), modelFingerprint(t, model); got != want {
		t.Errorf("upgraded store diverges from its records\n got %s\nwant %s", got, want)
	}
	if f := s.Format(); f.Generation != 1 || f.EdgeBytes == 0 {
		t.Errorf("upgraded store opened as %+v, want generation 1 with segments", f)
	}
}

// TestBulkFlushAutoFinalizes: closing a store with a pending bulk load
// must finalize it — a reopened store sees fully linked adjacency.
func TestBulkFlushAutoFinalizes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"N"}}, {Labels: []string{"N"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdgeBatch([]storage.BulkEdge{{Src: first, Dst: first + 1, Type: "t"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // no explicit Finalize
		t.Fatal(err)
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Format().Compressed {
		t.Error("auto-finalized store not segmented")
	}
	if got := re.Degree(first, "t", true); got != 1 {
		t.Errorf("Degree = %d, want 1", got)
	}
	n := 0
	re.ForEachOut(first, "t", func(_ storage.EID, dst storage.VID) bool {
		if dst != first+1 {
			t.Errorf("edge points at %d, want %d", dst, first+1)
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("adjacency walk saw %d edges, want 1", n)
	}
}

// TestCleanCloseDoesNotRewrite: opening and closing a store without
// mutating it must leave index.db and manifest.json untouched — reading
// a store is not a write workload.
func TestCleanCloseDoesNotRewrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 3, 30, 60); err != nil {
		t.Fatal(err)
	}
	idx := s.indexPath(s.Format().Generation)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	old := time.Unix(1_000_000_000, 0)
	files := []string{idx, filepath.Join(dir, "manifest.json")}
	for _, f := range files {
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	re.CountLabel("A")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if !st.ModTime().Equal(old) {
			t.Errorf("%s was rewritten by a read-only open/close cycle", f)
		}
	}
	// But a store whose index is missing self-repairs on close.
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	scan, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(idx); err != nil {
		t.Errorf("scan-opened store did not repair index.db on close: %v", err)
	}
}

// TestInterruptedFinalizeRefused: an earlier build's in-place Finalize
// that never committed left its finalize.inprogress marker behind, and
// Open must refuse such a directory instead of serving possibly
// half-rewritten edge records, and leave it as found: the refusal sweeps,
// truncates and rewrites nothing. (The typed error and its recovery hint
// are TestInterruptedFinalizeTypedError's.)
func TestInterruptedFinalizeRefused(t *testing.T) {
	dir := t.TempDir()
	opts := Options{PageSize: 512, CachePages: 16}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 11, 40, 90); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, finalizeMarker), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() map[string]int64 {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sizes := make(map[string]int64, len(ents))
		for _, e := range ents {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			sizes[e.Name()] = fi.Size()
		}
		return sizes
	}
	before := listing()
	if _, err := Open(dir, opts); !errors.Is(err, ErrFinalizeInterrupted) {
		t.Fatalf("Open of a store with a finalize marker: err = %v, want ErrFinalizeInterrupted", err)
	}
	if after := listing(); !maps.Equal(before, after) {
		t.Errorf("refused Open changed the directory\nbefore %v\n after %v", before, after)
	}
}

// TestAddEdgeBatchPartialFailureStillFinalizes: a batch with a bad edge
// is refused whole — not even the edges before the bad one join the
// pending load — and the load stays open, so the Flush at Close writes
// the batches that were accepted.
func TestAddEdgeBatchPartialFailureStillFinalizes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"N"}}, {Labels: []string{"N"}}})
	if err != nil {
		t.Fatal(err)
	}
	batch := []storage.BulkEdge{
		{Src: first, Dst: first + 1, Type: "t"},
		{Src: first, Dst: 999, Type: "t"}, // out of range: fails after the first edge landed
	}
	if err := s.AddEdgeBatch(batch); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := s.AddEdgeBatch(batch[:1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want the 1 edge of the accepted batch", got)
	}
	n := 0
	re.ForEachOut(first, "t", func(_ storage.EID, dst storage.VID) bool { n++; return true })
	if n != 1 {
		t.Errorf("appended edge unreachable after reopen: walk saw %d", n)
	}
}
