package diskstore

// Tests of the resident vertex table: its size limit, the checks Open
// makes before it serves one, and that it is the records of vertices.db.

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// TestVertexTableSizeLimit holds an entry to at most 24 bytes and the
// table's refusal to the sums its 32-bit fields cannot hold.
func TestVertexTableSizeLimit(t *testing.T) {
	if got := unsafe.Sizeof(vertexEntry{}); got > 24 {
		t.Errorf("a vertex table entry is %d bytes, want at most 24", got)
	}
	const at = math.MaxUint32
	if err := checkTableSize(at, at, at); err != nil {
		t.Errorf("checkTableSize at the limit: %v", err)
	}
	for _, c := range []struct {
		name                       string
		props, edgeBytes, numEdges int64
	}{
		{"property records", at + 1, 0, 0},
		{"adjacency bytes", 0, at + 1, 0},
		{"edges", 0, 0, at + 1},
	} {
		if err := checkTableSize(c.props, c.edgeBytes, c.numEdges); err == nil {
			t.Errorf("checkTableSize accepted 2^32 %s", c.name)
		}
	}
}

// TestOpenRefusesUntiledVertices seeds vertices.db with records the
// table's running sums cannot describe — a property run that overlaps the
// one before it, a gap before an adjacency block, a first out-EID that is
// not the out-degrees before it, and a file cut short under a manifest
// that agrees with its length, so the runs and blocks stop before the
// ends of props.db and edges.db — and requires Open to refuse each with
// ErrCorrupt, index.db or not.
func TestOpenRefusesUntiledVertices(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 23, 60, 160); err != nil {
		t.Fatal(err)
	}
	ep := s.curEp()
	gen, n := ep.gen, ep.numVertices
	// A vertex with a run, a block and out-edges, after one with a run.
	k := int64(-1)
	for v := int64(1); v < n && k < 0; v++ {
		prev, rec := ep.readVertex(storage.VID(v-1)), ep.readVertex(storage.VID(v))
		if prev.propCount > 0 && rec.propCount > 0 && rec.blockLen > 0 && rec.outDeg > 0 {
			k = v
		}
	}
	if k < 0 {
		t.Fatal("the fixture has no vertex with a run, a block and out-edges after one with a run")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	vertices := genFileName(baseFileNames[fileVertices], gen)

	editRecord := func(edit func(*vertexRec)) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			path := filepath.Join(dir, vertices)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			at := data[k*vertexRecSize:]
			rec, labels := decodeVertexRec(at)
			edit(&rec)
			buf := encodeVertexRec(rec, labels)
			copy(at, buf[:])
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, dir string)
	}{
		{"run overlap", editRecord(func(r *vertexRec) { r.propStart-- })},
		{"block gap", editRecord(func(r *vertexRec) { r.blockOff++ })},
		{"bad firstOutEID", editRecord(func(r *vertexRec) { r.firstOutEID++ })},
		{"truncated vertices.db", func(t *testing.T, dir string) {
			if err := os.Truncate(filepath.Join(dir, vertices), n/2*vertexRecSize); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "manifest.json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m manifest
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			m.NumVertices = n / 2
			if data, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		for _, withIndex := range []bool{true, false} {
			name := tc.name
			if !withIndex {
				name += " without index.db"
			}
			t.Run(name, func(t *testing.T) {
				c := copyDir(t, dir)
				tc.corrupt(t, c)
				if !withIndex {
					if err := os.Remove(filepath.Join(c, genFileName(indexFileName, gen))); err != nil {
						t.Fatal(err)
					}
				}
				s, err := Open(c, Options{})
				if err == nil {
					s.Close()
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open = %v, want ErrCorrupt", err)
				}
			})
		}
	}
}

// TestVertexTableIsTheRecords requires the resident table and the label
// bitmaps to be a decode of vertices.db after a load, after a fold, and
// after reopens with and without index.db, and base PropID, ForEachOutID,
// ForEachInID, DegreeID, Labels and PropKeys reads from a cold cache to
// fetch no page of vertices.db.
func TestVertexTableIsTheRecords(t *testing.T) {
	dir := t.TempDir()
	s, model := openLivePair(t, dir)
	checkVertexTable(t, s, "after the load")
	applyLiveStream(t, 41, 80, s, model)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Format().Generation < 2 {
		t.Fatalf("the fold left generation %d", s.Format().Generation)
	}
	checkVertexTable(t, s, "after a fold")
	idx := s.indexPath(s.Format().Generation)
	for _, withIndex := range []bool{true, false} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		stage := "after a reopen"
		if !withIndex {
			stage += " without index.db"
			if err := os.Remove(idx); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if s, err = Open(dir, Options{}); err != nil {
			t.Fatal(err)
		}
		if s.Format().IndexLoaded != withIndex {
			t.Fatalf("%s: IndexLoaded = %v", stage, s.Format().IndexLoaded)
		}
		checkVertexTable(t, s, stage)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkVertexTable compares s's current epoch with a decode of its
// vertices.db, then reads every base vertex through the store from a cold
// cache large enough to evict nothing and requires that no frame of
// vertices.db was loaded.
func checkVertexTable(t *testing.T, s *Store, stage string) {
	t.Helper()
	ep := s.curEp()
	data, err := os.ReadFile(filepath.Join(s.dir, genFileName(baseFileNames[fileVertices], ep.gen)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != ep.numVertices*vertexRecSize || len(ep.vtab) != int(ep.numVertices)+1 {
		t.Fatalf("%s: vertices.db is %d bytes and the table %d entries for %d vertices", stage, len(data), len(ep.vtab), ep.numVertices)
	}
	for v := int64(0); v < ep.numVertices; v++ {
		rec, labels := decodeVertexRec(data[v*vertexRecSize:])
		if got := ep.readVertex(storage.VID(v)); got != rec {
			t.Fatalf("%s: vertex %d reads %+v from the table, %+v from vertices.db", stage, v, got, rec)
		}
		if got, want := ep.labelIDs(storage.VID(v), nil), labelBitsToIDs(labels); !slices.Equal(got, want) {
			t.Fatalf("%s: vertex %d has labels %v in the bitmaps, %v in vertices.db", stage, v, got, want)
		}
	}

	s.DropCache()
	edges := func(storage.EID, storage.VID) bool { return true }
	for v := storage.VID(0); int64(v) < ep.numVertices; v++ {
		for key := range s.keys {
			s.PropID(v, storage.SymbolID(key))
		}
		s.PropKeys(v)
		s.Labels(v)
		for _, out := range []bool{true, false} {
			s.DegreeID(v, storage.AnySymbol, out)
			for et := range s.types {
				s.DegreeID(v, storage.SymbolID(et), out)
			}
		}
		s.ForEachOutID(v, storage.AnySymbol, edges)
		s.ForEachInID(v, storage.AnySymbol, edges)
	}
	p := ep.pager
	if p.resident() == 0 || p.resident() >= p.capacity {
		t.Fatalf("%s: %d of %d frames resident; the reads must load some and evict none", stage, p.resident(), p.capacity)
	}
	for i := range p.shards {
		for key := range p.shards[i].table {
			if key.file == fileVertices {
				t.Fatalf("%s: the reads loaded page %d of vertices.db", stage, key.page)
			}
		}
	}
}
