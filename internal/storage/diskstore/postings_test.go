package diskstore

// Value postings: the generation's (label, key, value) index under the
// delta overlay, across the store's lifecycle, and the cost of a lookup
// whose value no vertex holds.

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// postingsGraph has two labels over n vertices, every vertex holding a
// string k from a domain of five and an int n from a domain of three, so
// each value has many postings per label.
func postingsGraph(n int) *storetest.Batch {
	var g storetest.Batch
	for i := 0; i < n; i++ {
		labels := []string{"A"}
		if i%3 == 0 {
			labels = append(labels, "B")
		}
		v := g.Vertex(labels...)
		g.Prop(v, "k", graph.S(fmt.Sprintf("x%d", i%5)))
		g.Prop(v, "n", graph.I(int64(i%3)))
	}
	return &g
}

// postingsVals are the looked-up values: held ones, an INT held as a
// DOUBLE, absent ones and a NaN.
var postingsVals = []graph.Value{
	graph.S("x0"), graph.S("x1"), graph.S("x4"), graph.S("late"), graph.S("absent"),
	graph.I(0), graph.F(2), graph.I(7), graph.F(1.5), graph.Null,
}

// checkPostings compares every lookup of postingsVals under labels A, B
// and a label nobody carries with the filtered label scan of the same
// graph, VIDs and order both.
func checkPostings(t *testing.T, stage string, g storage.Graph) {
	t.Helper()
	for _, label := range []string{"A", "B", "Z"} {
		for _, key := range []string{"k", "n", "none"} {
			l, k := g.LabelID(label), g.KeyID(key)
			for _, val := range postingsVals {
				var got, want []storage.VID
				g.ForEachVertexByPropID(l, k, val, func(v storage.VID) bool {
					got = append(got, v)
					return true
				})
				storage.ScanByPropID(g, l, k, val, func(v storage.VID) bool {
					want = append(want, v)
					return true
				})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: lookup %s.%s = %v: %v, label scan %v", stage, label, key, val, got, want)
				}
			}
		}
	}
}

// TestValuePostingsOverlay checks lookups against the filtered label scan
// on every state a diskstore answers them from: the postings as loaded; a
// live delta that adds a label to a base vertex holding the value,
// overrides base vertices to and away from it, and adds vertices holding
// it; a snapshot pinned before those writes; lookups racing a background
// fold; the new generation's postings; and reopens from index.db and,
// without it, from the vertex scan.
func TestValuePostingsOverlay(t *testing.T) {
	const n = 600
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	if err := postingsGraph(n).Load(s); err != nil {
		t.Fatal(err)
	}
	checkPostings(t, "loaded", s)

	pinned := s.AcquireSnapshot()
	defer pinned.Release()
	// Vertex 1 holds k=x1 and lacks B; vertex 3 holds k=x3 under B and is
	// overridden to x1; vertex 6 holds k=x1 under B and is overridden
	// away from it; vertex 9's n moves from 0 to 2.0.
	res := mustApply(t, s,
		storage.Mutation{Op: storage.MutAddLabel, V: 1, Label: "B"},
		storage.Mutation{Op: storage.MutSetProp, V: 3, Key: "k", Value: graph.S("x1")},
		storage.Mutation{Op: storage.MutSetProp, V: 6, Key: "k", Value: graph.S("x4")},
		storage.Mutation{Op: storage.MutSetProp, V: 9, Key: "n", Value: graph.F(2)},
		storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"A", "B"}},
		storage.Mutation{Op: storage.MutSetProp, V: -1, Key: "k", Value: graph.S("x1")},
		storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"A"}},
		storage.Mutation{Op: storage.MutSetProp, V: -2, Key: "k", Value: graph.S("late")},
	)
	checkPostings(t, "live delta", s)
	var got []storage.VID
	s.ForEachVertexByPropID(s.LabelID("B"), s.KeyID("k"), graph.S("x1"), func(v storage.VID) bool {
		got = append(got, v)
		return true
	})
	if want := []storage.VID{3, 1, res.Vertices[0]}; len(got) < 3 || got[0] != 3 || !reflect.DeepEqual(got[len(got)-2:], want[1:]) {
		t.Errorf("B.k = x1 after the writes = %v: want the override 3 first and the live members %v last", got, want[1:])
	}
	checkPostings(t, "snapshot pinned before the writes", pinned)

	// Lookups keep matching the scan while a fold builds the next
	// generation's postings, and writes keep landing.
	var done atomic.Bool
	var foldErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		foldErr = s.Compact()
		done.Store(true)
	}()
	for i := 0; ; i++ {
		checkPostings(t, "during a fold", s)
		if done.Load() {
			break
		}
		mustApply(t, s,
			storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"B"}},
			storage.Mutation{Op: storage.MutSetProp, V: -1, Key: "k", Value: graph.S("x0")},
			storage.Mutation{Op: storage.MutSetProp, V: storage.VID(12 + 3*i), Key: "k", Value: graph.S("late")},
		)
	}
	wg.Wait()
	if foldErr != nil {
		t.Fatal(foldErr)
	}
	checkPostings(t, "after the fold", s)
	checkPostings(t, "snapshot pinned on the superseded epoch", pinned)
	pinned.Release()
	mustApply(t, s,
		storage.Mutation{Op: storage.MutSetProp, V: 0, Key: "k", Value: graph.S("late")},
		storage.Mutation{Op: storage.MutAddLabel, V: 4, Label: "B"},
	)
	checkPostings(t, "live over the folded generation", s)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{PageSize: 512, CachePages: 64}); err != nil {
		t.Fatal(err)
	}
	if !s.Format().IndexLoaded {
		t.Error("reopen did not load index.db")
	}
	checkPostings(t, "reopened from index.db, WAL replayed", s)
	idx := s.indexPath(s.Format().Generation)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{PageSize: 512, CachePages: 64}); err != nil {
		t.Fatal(err)
	}
	if s.Format().IndexLoaded {
		t.Error("index.db was deleted, yet the reopen claims to have loaded it")
	}
	checkPostings(t, "reopened by vertex scan", s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	checkPostings(t, "folded after the scan", s)
}

// TestAbsentLiteralReadsNoPage: on a store opened from its index file, a
// lookup of a value no vertex holds is one probe of the resident postings
// and touches no page; a held value reads its run's first vertex to
// confirm the match.
func TestAbsentLiteralReadsNoPage(t *testing.T) {
	dir := t.TempDir()
	opts := Options{PageSize: 512, CachePages: 64}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := postingsGraph(2000).Load(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Format().IndexLoaded {
		t.Fatal("reopen did not load index.db")
	}
	lookup := func(val graph.Value) (matches int, accesses int64) {
		s.ResetStats()
		s.ForEachVertexByPropID(s.LabelID("A"), s.KeyID("k"), val, func(storage.VID) bool {
			matches++
			return true
		})
		st := s.Stats()
		return matches, st.PageHits + st.PageMisses
	}
	for _, val := range []graph.Value{graph.S("absent-0"), graph.S("x9"), graph.I(3)} {
		if m, a := lookup(val); m != 0 || a != 0 {
			t.Errorf("absent %v: %d matches, %d page accesses; want none of either", val, m, a)
		}
	}
	if m, a := lookup(graph.S("x2")); m != 400 || a == 0 {
		t.Errorf("held x2: %d matches, %d page accesses; want 400 matches read from their pages", m, a)
	}
}
