package diskstore

// On-disk format tests: persisted index opens, type-segmented adjacency,
// bulk finalize, and crash-safe (atomic) flushes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// TestOpenUsesPersistedIndex is the acceptance gate for the persisted
// index: a cold open must read O(index) pages — here zero, since index.db
// and vertices.db bypass the pager — while deleting index.db forces the
// scan of every property run, whose pager reads grow with the vertex
// count.
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
		batch[i].Props = []storage.BulkProp{{Key: "i", Value: graph.I(int64(i))}}
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
	// and that scan must read the property runs' pages, demonstrating
	// exactly the cost the index removes. The vertex records are read
	// outside the cache on both opens, so no page of theirs counts.
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
	runPages := int64((nVertices*propRecSize + 511) / 512)
	if got := scan.Stats().PageReads; got == 0 || got > runPages {
		t.Errorf("scan open read %d pages, expected between 1 and the %d pages of property runs", got, runPages)
	}
	if got := scan.CountLabel("LA"); got != want {
		t.Errorf("CountLabel(LA) from scan = %d, want %d", got, want)
	}
}

// TestCorruptIndexFallsBackToScan opens a store over index.db files it
// must not load: one with a flipped byte, which the CRC rejects; ones
// carrying an earlier format's magic over a body that otherwise parses,
// which only the magic marks stale (PGSIDX07 is the last layout without
// value postings, PGSIDX08 the last with the label index and the symbol
// tables); and ones whose value postings a valid CRC covers but the
// parser must refuse — a run longer than the postings, a posting past
// the last vertex, a slot naming no range, a range naming the first label
// or key ID past the manifest's tables. Either way the open must silently
// rebuild by scanning and read back as built, edge-type statistics
// included, and its Close must rewrite an index the next open loads with
// those statistics.
func TestCorruptIndexFallsBackToScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte, s *Store)
	}{
		{"flipped byte", func(data []byte, _ *Store) { data[len(data)/2] ^= 0xff }},
		{"PGSIDX06 magic", func(data []byte, _ *Store) { copy(data, "PGSIDX06") }},
		{"PGSIDX07 magic", func(data []byte, _ *Store) { copy(data, "PGSIDX07") }},
		{"PGSIDX08 magic", func(data []byte, _ *Store) { copy(data, "PGSIDX08") }},
		{"run past the postings", func(data []byte, _ *Store) { corruptPostings(data, postingsRunLen, 1) }},
		{"posting past the vertices", func(data []byte, _ *Store) { corruptPostings(data, postingsFirstVID, 60) }},
		{"slot past the ranges", func(data []byte, _ *Store) { corruptPostings(data, postingsFirstSlot, 0) }},
		{"label past the manifest's", func(data []byte, s *Store) { corruptPostings(data, postingsFirstLabel, uint64(len(s.labels))) }},
		{"key past the manifest's", func(data []byte, s *Store) { corruptPostings(data, postingsFirstKey, uint64(len(s.keys))) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{PageSize: 512, CachePages: 16}
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := storetest.BuildRandom(s, 5, 60, 150); err != nil {
				t.Fatal(err)
			}
			want := storetest.Fingerprint(s)
			wantTypes := s.EdgeTypeCounts()
			if len(wantTypes) == 0 {
				t.Fatalf("precondition: the finalized store reports edge-type counts %v", wantTypes)
			}
			path := s.indexPath(s.Format().Generation)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(data, s)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("rejected index.db made Open fail: %v", err)
			}
			if re.Format().IndexLoaded {
				t.Error("rejected index.db was accepted")
			}
			if got := storetest.Fingerprint(re); got != want {
				t.Error("scan fallback store diverges")
			}
			if got := re.EdgeTypeCounts(); !maps.Equal(got, wantTypes) {
				t.Errorf("scan fallback EdgeTypeCounts = %v, want %v", got, wantTypes)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if !again.Format().IndexLoaded {
				t.Error("Close after the scan fallback did not rewrite a loadable index.db")
			}
			if got := storetest.Fingerprint(again); got != want {
				t.Error("store reopened over the rewritten index diverges")
			}
			if got := again.EdgeTypeCounts(); !maps.Equal(got, wantTypes) {
				t.Errorf("EdgeTypeCounts over the rewritten index = %v, want %v", got, wantTypes)
			}
		})
	}
}

// The fields of an index file's value postings section corruptPostings
// overwrites.
const (
	postingsRunLen     = iota // the first range's run length, plus arg
	postingsFirstVID          // the first posting, set to arg
	postingsFirstSlot         // the first filled slot, set to one past the ranges
	postingsFirstLabel        // the first range's label ID, set to arg
	postingsFirstKey          // the first range's key ID, set to arg
)

// postingsOffsets locates the value postings section of an index file:
// the offsets of its range table, its postings and its slot table, found
// by walking the header.
func postingsOffsets(data []byte) (ranges, vids, slots int) {
	off := len(indexMagic) + 4 + 16
	nr := int(binary.LittleEndian.Uint32(data[off:]))
	ranges = off + 4
	off = ranges + 20*nr
	vids = off + 8
	off = vids + 4*int(binary.LittleEndian.Uint64(data[off:]))
	return ranges, vids, off + 4
}

// corruptPostings damages one field of data's value postings section and
// reseals the CRC, so only the parser can refuse it.
func corruptPostings(data []byte, field int, arg uint64) {
	ranges, vids, slots := postingsOffsets(data)
	switch field {
	case postingsRunLen:
		at := ranges + 16
		binary.LittleEndian.PutUint32(data[at:], binary.LittleEndian.Uint32(data[at:])+uint32(arg))
	case postingsFirstVID:
		binary.LittleEndian.PutUint32(data[vids:], uint32(arg))
	case postingsFirstLabel:
		binary.LittleEndian.PutUint32(data[ranges+8:], uint32(arg))
	case postingsFirstKey:
		binary.LittleEndian.PutUint32(data[ranges+12:], uint32(arg))
	case postingsFirstSlot:
		nr := binary.LittleEndian.Uint32(data[ranges-4:])
		for at := slots; ; at += 4 {
			if binary.LittleEndian.Uint32(data[at:]) != 0 {
				binary.LittleEndian.PutUint32(data[at:], nr+1)
				break
			}
		}
	}
	binary.LittleEndian.PutUint32(data[len(indexMagic):], crc32.ChecksumIEEE(data[len(indexMagic)+4:]))
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

// copyDir copies the flat store directory src into a scratch dir and
// returns the copy.
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
// a store is not a write workload — and so must closing one whose live
// writes interned names after a fold froze its symbol tables.
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
	// backdate sets the index and manifest mtimes far back; unchanged
	// reports any of them a later close rewrote.
	old := time.Unix(1_000_000_000, 0)
	backdate := func(idx string) []string {
		t.Helper()
		files := []string{idx, filepath.Join(dir, "manifest.json")}
		for _, f := range files {
			if err := os.Chtimes(f, old, old); err != nil {
				t.Fatal(err)
			}
		}
		return files
	}
	unchanged := func(files []string, by string) {
		t.Helper()
		for _, f := range files {
			st, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			if !st.ModTime().Equal(old) {
				t.Errorf("%s was rewritten by %s", f, by)
			}
		}
	}
	files := backdate(idx)
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	re.CountLabel("A")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	unchanged(files, "a read-only open/close cycle")
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

	// Nor does a close after a fold whose symbol tables live writes grew
	// once it had frozen them: index.db names no symbol, so it stays
	// current, and the WAL replay re-interns the names the fold's
	// manifest lacks. The test holds flushMu so the fold waits at its
	// commit until the writes have landed; the next generation's first
	// file shows the fold is past its freeze.
	live, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.ApplyMutations([]storage.Mutation{{Op: storage.MutAddLabel, V: 1, Label: "A"}}); err != nil {
		t.Fatal(err)
	}
	next := filepath.Join(dir, genFileName(baseFileNames[0], live.Format().Generation+1))
	live.flushMu.Lock()
	folded := make(chan error, 1)
	go func() { folded <- live.Compact() }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(next); err == nil {
			break
		}
		if time.Now().After(deadline) {
			live.flushMu.Unlock()
			t.Fatalf("the fold wrote no %s", next)
		}
	}
	res, err := live.ApplyMutations([]storage.Mutation{
		{Op: storage.MutAddVertex, Labels: []string{"Fresh"}},
		{Op: storage.MutAddEdge, Src: 0, Dst: 1, Type: "fresh_type"},
		{Op: storage.MutSetProp, V: 2, Key: "fresh_key", Value: graph.I(7)},
	})
	live.flushMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-folded; err != nil {
		t.Fatal(err)
	}
	manifestData, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(manifestData), "Fresh") {
		t.Fatal("precondition: the fold's manifest holds the label written after its freeze")
	}
	files = backdate(live.indexPath(live.Format().Generation))
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	unchanged(files, "a close after live writes interned names a fold had not frozen")
	back, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if !back.Format().IndexLoaded {
		t.Error("reopen after the live writes did not load index.db")
	}
	if !back.HasLabel(res.Vertices[0], "Fresh") {
		t.Error("label Fresh written live is lost")
	}
	if got := back.Degree(0, "fresh_type", true); got != 1 {
		t.Errorf("Degree(0, fresh_type) = %d, want the 1 live edge", got)
	}
	if got, ok := back.Prop(2, "fresh_key"); !ok || !got.Equal(graph.I(7)) {
		t.Errorf("Prop(2, fresh_key) = %v, %v; want 7", got, ok)
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
