package diskstore

// FuzzReadManifest opens a finalized store under arbitrary manifest.json
// bodies. The contract:
//   - Open never panics;
//   - a refusal is a typed error (ErrBadManifest, ErrLegacyFormat or
//     ErrCorrupt), and a refusal of the manifest itself leaves the store
//     directory exactly as it was;
//   - an accepted manifest describes the whole base, never part of it:
//     the store holds the built graph's vertices and edges, and every
//     vertex reads without a panic.

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage/storetest"
)

func FuzzReadManifest(f *testing.F) {
	opts := Options{PageSize: 512, CachePages: 16}
	built := f.TempDir()
	s, err := Open(built, opts)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 3, 30, 70); err != nil {
		f.Fatal(err)
	}
	nv, ne := s.NumVertices(), s.NumEdges()
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	orig, err := os.ReadFile(filepath.Join(built, "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(orig)
	for _, n := range []int{0, 1, len(orig) / 2, len(orig) - 1} {
		f.Add(orig[:n])
	}
	for _, seed := range []string{"null", "{}", "[]", `{"version":6}`, `"x"`} {
		f.Add([]byte(seed))
	}
	edit := func(field string, val any) []byte {
		var m map[string]any
		if err := json.Unmarshal(orig, &m); err != nil {
			f.Fatal(err)
		}
		m[field] = val
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for _, c := range []struct {
		field string
		val   any
	}{
		{"version", 1}, {"version", 5}, {"version", formatVersion + 1},
		{"generation", -1}, {"generation", 0}, {"generation", 9},
		{"num_vertices", nv - 1}, {"num_vertices", -1}, {"num_edges", ne + 1},
		{"num_vertices", int64(1)<<58 + int64(nv)}, // times the record size, wraps to the file's size
		{"num_props", 0}, {"blob_size", 1 << 40}, {"edge_bytes", 3},
		{"labels", []string{}}, {"types", []string{"r1"}}, {"keys", nil},
		{"wal_seq", -1},
	} {
		f.Add(edit(c.field, c.val))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		entries, err := os.ReadDir(built)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(built, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == "manifest.json" {
				data = raw
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := dirState(t, dir)
		s, err := Open(dir, opts)
		if err != nil {
			if !errors.Is(err, ErrBadManifest) && !errors.Is(err, ErrLegacyFormat) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open refused with an untyped error: %v", err)
			}
			if errors.Is(err, ErrBadManifest) && !maps.Equal(before, dirState(t, dir)) {
				t.Fatalf("a refused manifest changed the store directory: %v", err)
			}
			return
		}
		defer s.Close()
		if s.NumVertices() != nv || s.NumEdges() != ne {
			t.Fatalf("accepted store holds %d vertices, %d edges; the base holds %d, %d", s.NumVertices(), s.NumEdges(), nv, ne)
		}
		storetest.Fingerprint(s)
	})
}
