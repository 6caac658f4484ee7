package diskstore

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

func newTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storage.Builder { return newTestStore(t, Options{}) })
}

// TestConformanceTinyCache forces constant page eviction so every access
// path is exercised with cache misses.
func TestConformanceTinyCache(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storage.Builder {
		return newTestStore(t, Options{PageSize: 256, CachePages: 4})
	})
}

// TestDifferentialAgainstMemstore builds one pseudo-random graph into a
// memstore and into diskstore twice — by live ApplyMutations batches (the
// WAL and the delta) and by a bulk load (generation 1 through a tiny
// cache) — and requires all three to read the same.
func TestDifferentialAgainstMemstore(t *testing.T) {
	mem := newMemReference(t, 42, 80, 200)
	disk := newTestStore(t, Options{PageSize: 512, CachePages: 8})
	if _, err := storetest.RandomBatch(42, 80, 200).Apply(disk); err != nil {
		t.Fatal(err)
	}
	bulk := newTestStore(t, Options{PageSize: 512, CachePages: 8})
	if _, err := storetest.BuildRandom(bulk, 42, 80, 200); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{disk, bulk} {
		if got := storetest.Fingerprint(s); got != mem {
			t.Errorf("diskstore (generation %d) diverges from memstore reference:\n got: %.300s...\nwant: %.300s...", s.Format().Generation, got, mem)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 99, 60, 150); err != nil {
		t.Fatal(err)
	}
	before := storetest.Fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := storetest.Fingerprint(re); got != before {
		t.Error("reopened store does not match original")
	}
	if got, want := re.CountLabel("A"), s.CountLabel("A"); got != want {
		t.Errorf("label index after reopen: %d, want %d", got, want)
	}
}

func TestStatsCountersMove(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 2})
	if _, err := storetest.BuildRandom(s, 13, 40, 100); err != nil {
		t.Fatal(err)
	}
	storetest.Fingerprint(s)
	st := s.Stats()
	if st.PageMisses == 0 {
		t.Error("tiny cache produced no misses")
	}
	if st.PageHits == 0 {
		t.Error("no page hits at all")
	}
	s.ResetStats()
	if s.Stats() != (storage.Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestDropCachePreservesData(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 512, CachePages: 16})
	v := mustApply(t, s,
		storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"N"}},
		storage.Mutation{Op: storage.MutSetProp, V: -1, Key: "k", Value: graph.S("survives")},
	).Vertices[0]
	if err := s.Compact(); err != nil { // into the base, where the cache matters
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Prop(v, "k")
	if !ok || got.Str() != "survives" {
		t.Errorf("after DropCache: %v %v", got, ok)
	}
	if s.Stats().PageReads == 0 {
		t.Error("cold read after DropCache did not touch disk")
	}
}

func TestLongStringsSpanPages(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 4})
	long := make([]byte, 5000)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	v := mustApply(t, s,
		storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"N"}},
		storage.Mutation{Op: storage.MutSetProp, V: -1, Key: "blob", Value: graph.S(string(long))},
	).Vertices[0]
	if err := s.Compact(); err != nil { // into blobs.db
		t.Fatal(err)
	}
	got, ok := s.Prop(v, "blob")
	if !ok || got.Str() != string(long) {
		t.Error("multi-page blob corrupted")
	}
}

func TestListRoundTripThroughDisk(t *testing.T) {
	s := newTestStore(t, Options{})
	want := graph.L(graph.S("fever"), graph.S("headache"), graph.I(3), graph.F(1.5), graph.B(true), graph.Null)
	v := mustApply(t, s,
		storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"N"}},
		storage.Mutation{Op: storage.MutSetProp, V: -1, Key: "list", Value: want},
	).Vertices[0]
	if err := s.Compact(); err != nil { // into blobs.db
		t.Fatal(err)
	}
	got, ok := s.Prop(v, "list")
	if !ok || !got.Equal(want) {
		t.Errorf("list round trip: %v, want %v", got, want)
	}
}

func TestNestedListRejected(t *testing.T) {
	nested := graph.L(graph.L(graph.I(1)))
	if _, err := newTestStore(t, Options{}).AddVertexBatch([]storage.BulkVertex{{Props: []storage.BulkProp{{Key: "nested", Value: nested}}}}); err == nil {
		t.Error("nested list loaded without error")
	}
	s := newTestStore(t, Options{})
	v := mustApply(t, s, storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"N"}}).Vertices[0]
	if _, err := s.ApplyMutations([]storage.Mutation{{Op: storage.MutSetProp, V: v, Key: "nested", Value: nested}}); err == nil {
		t.Error("nested list stored without error")
	}
}

// TestCorruptBlobsAreErrors: list blobs and the (offset, length) pair in
// a prop record are disk bytes. Truncated or oversized ones must come
// back as a decode error — which the read surface maps to "property
// absent" — never as an out-of-range index or a wild allocation.
func TestCorruptBlobsAreErrors(t *testing.T) {
	good, err := encodeList([]graph.Value{graph.I(7), graph.S("fever"), graph.B(true), graph.F(1.5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeList(good); err != nil {
		t.Fatalf("intact list blob rejected: %v", err)
	}
	lists := map[string][]byte{
		"empty":               {},
		"int tail cut":        good[:4+1+5],
		"string length cut":   good[:4+9+1+2],
		"string body cut":     good[:4+9+5+3],
		"bool value missing":  good[:4+9+10+1],
		"float tail cut":      good[:len(good)-1],
		"string overruns":     {1, 0, 0, 0, byte(graph.KindString), 200, 0, 0, 0, 'x'},
		"count overruns":      {0, 0, 16, 0, byte(graph.KindNull)},
		"unknown element tag": {1, 0, 0, 0, 0xEE},
	}
	for name, blob := range lists {
		if _, err := decodeList(blob); err == nil {
			t.Errorf("decodeList(%s): corrupt blob accepted", name)
		}
	}

	s := newTestStore(t, Options{PageSize: 512, CachePages: 16})
	v, err := s.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"N"}, Props: []storage.BulkProp{{Key: "k", Value: graph.L(graph.S("fever"), graph.I(3))}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	ep := s.curEp()
	var raw [propRecSize]byte
	if err := ep.pager.read(fileProps, 0, raw[:]); err != nil {
		t.Fatal(err)
	}
	intact := decodePropRec(raw[:])
	// The test stands in for a disk that returns the wrong bytes: it
	// rewrites the record in props.db and drops the cached page.
	writeProp := func(r propRec) {
		buf := r.encode()
		if _, err := ep.pager.files[fileProps].WriteAt(buf[:], 0); err != nil {
			t.Fatal(err)
		}
		ep.pager.dropCache()
	}
	for name, edit := range map[string]func(*propRec){
		"length past end of blobs.db": func(r *propRec) { r.b = uint32(ep.blobSize) + 1 },
		"longest length":              func(r *propRec) { r.b = 1<<32 - 1 },
		"offset past end":             func(r *propRec) { r.a = uint64(ep.blobSize) + 1 },
		"negative offset":             func(r *propRec) { r.a = 1 << 63 },
		"offset + length overflows":   func(r *propRec) { r.a, r.b = 1<<64-1, 2 },
		"list cut short":              func(r *propRec) { r.b -= 3 },
		"unknown kind":                func(r *propRec) { r.kind = 0xEE },
	} {
		pr := intact
		edit(&pr)
		writeProp(pr)
		if val, ok := s.Prop(v, "k"); ok {
			t.Errorf("%s: Prop returned %v, want absent", name, val)
		}
	}
	writeProp(intact)
	if val, ok := s.Prop(v, "k"); !ok || val.Kind() != graph.KindList {
		t.Errorf("restored record: Prop = %v, %v", val, ok)
	}
}

func TestBadOptionsRejected(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{PageSize: 100}); err == nil {
		t.Error("page size not divisible by record size accepted")
	}
}

// TestTypedDegreeAvoidsAdjacencyWalk proves typed DegreeID is served from
// the adjacency block's type directory: on a hub vertex with a long
// adjacency, a cold typed degree lookup must read far fewer pages than its
// segments span.
func TestTypedDegreeAvoidsAdjacencyWalk(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 512, CachePages: 64})
	const fan = 20000
	hub := loadHub(t, s, fan, "b", "a", "a", "a", "a")
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if got := s.Degree(hub, "b", true); got != fan/5 {
		t.Fatalf("Degree(hub, b, out) = %d, want %d", got, fan/5)
	}
	if got := s.Degree(hub, "a", true); got != fan-fan/5 {
		t.Fatalf("Degree(hub, a, out) = %d, want %d", got, fan-fan/5)
	}
	st := s.Stats()
	// The hub's segments take a byte or two per edge — over 40 pages at
	// 512 B; the directory (2 entries) plus the vertex record fit in a
	// handful.
	if st.PageReads > 6 {
		t.Errorf("typed degree read %d pages cold; looks like an adjacency walk", st.PageReads)
	}
	// And the result still matches an actual walk.
	s.ResetStats()
	n := 0
	s.ForEachOut(hub, "", func(storage.EID, storage.VID) bool { n++; return true })
	if n != fan {
		t.Errorf("walk count %d disagrees with degree counters", n)
	}
	if st := s.Stats(); st.PageHits+st.PageMisses < 30 {
		t.Errorf("the untyped walk touched %d pages; the segments are too small to tell a walk from the directory", st.PageHits+st.PageMisses)
	}
}

// loadHub bulk-loads a hub vertex with fan out-edges to fan leaves, the
// i-th of type types[i%len(types)], and returns the hub.
func loadHub(t *testing.T, s *Store, fan int, types ...string) storage.VID {
	t.Helper()
	vs := make([]storage.BulkVertex, fan+1)
	for i := range vs {
		vs[i].Labels = []string{"Leaf"}
	}
	vs[0].Labels = []string{"Hub"}
	hub, err := s.AddVertexBatch(vs)
	if err != nil {
		t.Fatal(err)
	}
	es := make([]storage.BulkEdge, fan)
	for i := range es {
		es[i] = storage.BulkEdge{Src: hub, Dst: hub + storage.VID(i) + 1, Type: types[i%len(types)]}
	}
	if err := s.AddEdgeBatch(es); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	return hub
}

// rewriteManifestVersion rewrites dir's manifest to the given format
// version, simulating a store written by an older build.
func rewriteManifestVersion(t *testing.T, dir string, version int) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = version
	data, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownFormatVersionRejected: Open serves exactly one manifest
// version. The four an earlier release wrote are refused with the typed
// error that says to rebuild the store with pgsgen; v1 and versions from
// the future are plain rejections. Every refusal comes before Open
// touches a file: a left-over WAL is neither replayed nor truncated, and
// an orphan generation file is not swept.
func TestUnknownFormatVersionRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"N"}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || st.Size() == 0 {
		t.Fatalf("precondition: the live write left no WAL (err=%v)", err)
	}
	orphan := genFileName(baseFileNames[fileVertices], 9)
	if err := os.WriteFile(filepath.Join(dir, orphan), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version int
		legacy  bool
	}{{1, false}, {2, true}, {3, true}, {4, true}, {5, true}, {formatVersion + 1, false}} {
		rewriteManifestVersion(t, dir, tc.version)
		before := dirState(t, dir)
		_, err := Open(dir, Options{})
		if err == nil {
			t.Fatalf("format v%d accepted", tc.version)
		}
		if got := errors.Is(err, ErrLegacyFormat); got != tc.legacy {
			t.Errorf("format v%d: errors.Is(err, ErrLegacyFormat) = %v, want %v (err: %v)", tc.version, got, tc.legacy, err)
		}
		if tc.legacy && !strings.Contains(err.Error(), "pgsgen") {
			t.Errorf("format v%d: refusal %q does not name pgsgen", tc.version, err)
		}
		if !maps.Equal(before, dirState(t, dir)) {
			t.Errorf("refused Open of format v%d modified the store directory", tc.version)
		}
	}
}

func newMemReference(t *testing.T, seed int64, nv, ne int) string {
	t.Helper()
	mem := memstore.New()
	if _, err := storetest.BuildRandom(mem, seed, nv, ne); err != nil {
		t.Fatal(err)
	}
	return storetest.Fingerprint(mem)
}

// TestStringPropReadAllocatesOnce: reading a cached string property
// builds the string once — the run and the blob bytes go through a pooled
// scratch buffer, so the string itself is the only allocation.
func TestStringPropReadAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := newTestStore(t, Options{PageSize: 512, CachePages: 16})
	v, err := s.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"N"}, Props: []storage.BulkProp{
		{Key: "rank", Value: graph.I(3)},
		{Key: "name", Value: graph.S("acetylsalicylic acid")},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	key := s.KeyID("name")
	if val, ok := s.PropID(v, key); !ok || val.Str() != "acetylsalicylic acid" {
		t.Fatalf("PropID = %v, %v", val, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.PropID(v, key) }); allocs != 1 {
		t.Errorf("a cached string property read allocates %v times, want 1", allocs)
	}
}
