// Package storetest provides a conformance suite run against every
// storage.Builder implementation, the Batch fixture builder tests write
// graphs with, and a randomized graph generator used for differential
// testing between backends.
package storetest

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
)

// Factory creates a fresh empty store for each subtest.
type Factory func(t *testing.T) storage.Builder

// Run executes the conformance suite against the implementation. Every
// subtest loads its graph through the Builder batches and Finalize;
// writes after that are MutableGraph.ApplyMutations batches, checked
// only on stores that implement it.
func Run(t *testing.T, newStore Factory) {
	t.Run("EmptyStore", func(t *testing.T) {
		s := newStore(t)
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}
		if s.NumVertices() != 0 || s.NumEdges() != 0 {
			t.Errorf("empty store reports %d vertices, %d edges", s.NumVertices(), s.NumEdges())
		}
		if s.CountLabel("X") != 0 {
			t.Error("CountLabel on empty store != 0")
		}
		s.ForEachVertex("", func(storage.VID) bool {
			t.Error("iteration over empty store yielded a vertex")
			return false
		})
	})

	t.Run("VerticesAndLabels", func(t *testing.T) {
		s := newStore(t)
		var g Batch
		a := g.Vertex("Drug")
		// A repeated label, in one list or added later, is one label.
		b := g.Vertex("Drug", "Compound", "Drug")
		c := g.Vertex()
		g.Label(c, "Late")
		g.Label(b, "Drug")
		mustLoad(t, &g, s)
		if s.NumVertices() != 3 {
			t.Fatalf("NumVertices = %d, want 3", s.NumVertices())
		}
		if got := s.CountLabel("Drug"); got != 2 {
			t.Errorf("CountLabel(Drug) = %d, want 2", got)
		}
		if !s.HasLabel(b, "Compound") || s.HasLabel(a, "Compound") || s.HasLabel(c, "Drug") {
			t.Error("HasLabel wrong")
		}
		if !s.HasLabel(c, "Late") {
			t.Error("label added after creation not visible")
		}
		if got := s.Labels(b); !reflect.DeepEqual(got, []string{"Compound", "Drug"}) {
			t.Errorf("Labels = %v", got)
		}
		if mg, ok := s.(storage.MutableGraph); ok {
			if _, err := mg.ApplyMutations([]storage.Mutation{{Op: storage.MutAddLabel, V: b, Label: "Drug"}}); err != nil {
				t.Fatalf("AddLabel dup: %v", err)
			}
			if got := s.CountLabel("Drug"); got != 2 {
				t.Errorf("CountLabel(Drug) after a live duplicate label = %d, want 2", got)
			}
		}
	})

	t.Run("Properties", func(t *testing.T) {
		s := newStore(t)
		vals := map[string]graph.Value{
			"s":    graph.S("world"),
			"i":    graph.I(-42),
			"f":    graph.F(3.25),
			"b":    graph.B(true),
			"list": graph.L(graph.S("a"), graph.I(1), graph.F(0.5), graph.B(false)),
			"nil":  graph.Null,
			"es":   graph.S(""),
		}
		var g Batch
		v := g.Vertex("N")
		// A repeated key keeps its last value.
		g.Prop(v, "s", graph.S("hello"))
		for _, k := range slices.Sorted(maps.Keys(vals)) {
			g.Prop(v, k, vals[k])
		}
		mustLoad(t, &g, s)
		for k, want := range vals {
			got, ok := s.Prop(v, k)
			if !ok {
				t.Errorf("Prop(%s) missing", k)
				continue
			}
			if !got.Equal(want) {
				t.Errorf("Prop(%s) = %v, want %v", k, got, want)
			}
		}
		if _, ok := s.Prop(v, "absent"); ok {
			t.Error("Prop(absent) reported present")
		}
		keys := s.PropKeys(v)
		if len(keys) != len(vals) {
			t.Errorf("PropKeys = %v, want %d keys", keys, len(vals))
		}
		if !sort.StringsAreSorted(keys) {
			t.Errorf("PropKeys not sorted: %v", keys)
		}
		if mg, ok := s.(storage.MutableGraph); ok {
			if _, err := mg.ApplyMutations([]storage.Mutation{{Op: storage.MutSetProp, V: v, Key: "s", Value: graph.S("again")}}); err != nil {
				t.Fatal(err)
			}
			if got, _ := s.Prop(v, "s"); got.Str() != "again" {
				t.Errorf("live-overwritten prop = %v", got)
			}
		}
	})

	t.Run("EdgesAndTraversal", func(t *testing.T) {
		s := newStore(t)
		var g Batch
		drug := g.Vertex("Drug")
		i1 := g.Vertex("Indication")
		i2 := g.Vertex("Indication")
		risk := g.Vertex("Risk")
		g.Edge(drug, i1, "treat")
		g.Edge(drug, i2, "treat")
		g.Edge(drug, risk, "cause")
		mustLoad(t, &g, s)
		if s.NumEdges() != 3 {
			t.Fatalf("NumEdges = %d, want 3", s.NumEdges())
		}
		if got := s.Degree(drug, "treat", true); got != 2 {
			t.Errorf("out-degree treat = %d, want 2", got)
		}
		if got := s.Degree(drug, "", true); got != 3 {
			t.Errorf("out-degree any = %d, want 3", got)
		}
		if got := s.Degree(i1, "treat", false); got != 1 {
			t.Errorf("in-degree = %d, want 1", got)
		}
		if got := s.Degree(drug, "nosuch", true); got != 0 {
			t.Errorf("degree of unknown type = %d, want 0", got)
		}
		var dsts []storage.VID
		s.ForEachOut(drug, "treat", func(_ storage.EID, dst storage.VID) bool {
			dsts = append(dsts, dst)
			return true
		})
		sortVIDs(dsts)
		if !reflect.DeepEqual(dsts, []storage.VID{i1, i2}) {
			t.Errorf("ForEachOut dsts = %v, want [%d %d]", dsts, i1, i2)
		}
		var srcs []storage.VID
		s.ForEachIn(risk, "cause", func(_ storage.EID, src storage.VID) bool {
			srcs = append(srcs, src)
			return true
		})
		if !reflect.DeepEqual(srcs, []storage.VID{drug}) {
			t.Errorf("ForEachIn srcs = %v", srcs)
		}
		// Early termination.
		n := 0
		s.ForEachOut(drug, "", func(storage.EID, storage.VID) bool {
			n++
			return false
		})
		if n != 1 {
			t.Errorf("early-terminated iteration visited %d, want 1", n)
		}
	})

	t.Run("LabelScan", func(t *testing.T) {
		s := newStore(t)
		var g Batch
		var want []storage.VID
		for i := 0; i < 10; i++ {
			label := "Even"
			if i%2 == 1 {
				label = "Odd"
			}
			v := g.Vertex(label)
			if label == "Even" {
				want = append(want, v)
			}
		}
		mustLoad(t, &g, s)
		var got []storage.VID
		s.ForEachVertex("Even", func(v storage.VID) bool {
			got = append(got, v)
			return true
		})
		sortVIDs(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("label scan = %v, want %v", got, want)
		}
		all := 0
		s.ForEachVertex("", func(storage.VID) bool { all++; return true })
		if all != 10 {
			t.Errorf("full scan visited %d, want 10", all)
		}
	})

	t.Run("SymbolFastPath", func(t *testing.T) {
		s := newStore(t)
		mustLoad(t, fastPathGraph(), s)
		t.Run("Native", func(t *testing.T) {
			CheckFastEquivalence(t, s, s)
		})
		// Unknown symbols resolve to NoSymbol and the empty string to
		// AnySymbol.
		if got := s.LabelID("NoSuchLabel"); got != storage.NoSymbol {
			t.Errorf("LabelID(unknown) = %d, want NoSymbol", got)
		}
		if got := s.TypeID("noSuchType"); got != storage.NoSymbol {
			t.Errorf("TypeID(unknown) = %d, want NoSymbol", got)
		}
		if got := s.KeyID("noSuchKey"); got != storage.NoSymbol {
			t.Errorf("KeyID(unknown) = %d, want NoSymbol", got)
		}
		for _, id := range []storage.SymbolID{s.LabelID(""), s.TypeID(""), s.KeyID("")} {
			if id != storage.AnySymbol {
				t.Errorf("empty-string symbol = %d, want AnySymbol", id)
			}
		}
	})

	t.Run("ByName", func(t *testing.T) {
		// The by-name methods are storage.ByName over the store's ID
		// methods; this pins their empty-string and unknown-name rules, on
		// the store and, where the backend has them, on a snapshot.
		s := newStore(t)
		mustLoad(t, fastPathGraph(), s)
		t.Run("store", func(t *testing.T) { checkByName(t, s) })
		if sn, ok := s.(storage.Snapshotter); ok {
			snap := sn.AcquireSnapshot()
			defer snap.Release()
			t.Run("snapshot", func(t *testing.T) { checkByName(t, snap) })
		}
	})

	t.Run("ParallelReaders", func(t *testing.T) {
		// Built stores must serve concurrent readers: every goroutine
		// sweeps the full read surface (by-name and ID methods) and
		// must observe exactly the state a serial sweep observed. Run
		// under -race this also proves the read paths are data-race free.
		s := newStore(t)
		if _, err := BuildRandom(s, 1234, 40, 100); err != nil {
			t.Fatal(err)
		}
		want := Fingerprint(s)
		wantDegrees := degreeSweep(s)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if got := Fingerprint(s); got != want {
						t.Errorf("goroutine %d: concurrent fingerprint diverged", g)
						return
					}
					if got := degreeSweep(s); !reflect.DeepEqual(got, wantDegrees) {
						t.Errorf("goroutine %d: concurrent degree sweep diverged", g)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})

	t.Run("BulkBuild", func(t *testing.T) {
		// A bulk load must read the same as the same graph written as
		// live ApplyMutations batches, before and after a Finalize folds
		// them, and keep its ID reads and scan partitions consistent.
		bulk := newStore(t)
		if _, err := BuildRandom(bulk, 77, 50, 130); err != nil {
			t.Fatal(err)
		}
		CheckFastEquivalence(t, bulk, bulk)
		live, ok := newStore(t).(storage.MutableGraph)
		if !ok {
			return
		}
		if _, err := RandomBatch(77, 50, 130).Apply(live); err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"live", "folded"} {
			if got, want := Fingerprint(live), Fingerprint(bulk); got != want {
				t.Errorf("%s store diverges from the bulk load:\n got: %.300s...\nwant: %.300s...", stage, got, want)
			}
			CheckFastEquivalence(t, live, live)
			if err := live.(storage.Builder).Finalize(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("HasLabelMatchesLabels", func(t *testing.T) {
		// A backend may answer HasLabelID from a different structure than
		// Labels — a load's, a live write's — so check both.
		s := newStore(t)
		if _, err := BuildRandom(s, 31, 150, 300); err != nil {
			t.Fatal(err)
		}
		CheckLabelMembership(t, s)
		mg, ok := s.(storage.MutableGraph)
		if !ok {
			return
		}
		// A label the store has never seen, on an old vertex and a new
		// one.
		if _, err := mg.ApplyMutations([]storage.Mutation{
			{Op: storage.MutAddLabel, V: 3, Label: "Late"},
			{Op: storage.MutAddVertex, Labels: []string{"Late", "B"}},
		}); err != nil {
			t.Fatal(err)
		}
		CheckLabelMembership(t, s)
		if !s.HasLabel(3, "Late") || s.HasLabel(4, "Late") {
			t.Error("HasLabel(Late) wrong after AddLabel")
		}
	})

	t.Run("SnapshotIsolation", func(t *testing.T) {
		s := newStore(t)
		if _, err := BuildRandom(s, 4242, 25, 60); err != nil {
			t.Fatal(err)
		}
		before := Fingerprint(s)

		sn, ok := s.(storage.Snapshotter)
		if !ok {
			// The query layer pins a snapshot only on a MutableGraph, so
			// a store without snapshots must take no writes once built.
			if _, mutable := s.(storage.MutableGraph); mutable {
				t.Error("store is a MutableGraph but not a Snapshotter; queries would read it live mid-write")
			}
			return
		}
		snap1 := sn.AcquireSnapshot()
		if got := Fingerprint(snap1); got != before {
			t.Fatalf("freshly acquired snapshot diverges from the store:\n got %.200s\nwant %.200s", got, before)
		}
		CheckFastEquivalence(t, s, snap1)

		if mg, ok := s.(storage.MutableGraph); ok {
			if _, err := mg.ApplyMutations([]storage.Mutation{
				{Op: storage.MutAddVertex, Labels: []string{"SnapIso"}},
				{Op: storage.MutSetProp, V: -1, Key: "iso", Value: graph.S("after")},
				{Op: storage.MutAddLabel, V: 0, Label: "SnapIso"},
				{Op: storage.MutAddEdge, Src: 0, Dst: -1, Type: "snapEdge"},
			}); err != nil {
				t.Fatal(err)
			}
			after := Fingerprint(s)
			if after == before {
				t.Fatal("mutations did not change the store fingerprint; the isolation check is vacuous")
			}
			if got := Fingerprint(snap1); got != before {
				t.Errorf("mutations applied after acquisition leaked into a pinned snapshot:\n got %.200s\nwant %.200s", got, before)
			}
			snap2 := sn.AcquireSnapshot()
			if got := Fingerprint(snap2); got != after {
				t.Errorf("snapshot acquired after mutations does not see them:\n got %.200s\nwant %.200s", got, after)
			}
			snap2.Release()
		}
		snap1.Release()
		snap1.Release() // Release must be idempotent
		if lr, ok := s.(storage.LiveStatsReporter); ok {
			if got := lr.LiveStats().PinnedSnapshots; got != 0 {
				t.Errorf("%d snapshots still reported pinned after every Release", got)
			}
		}
	})

	t.Run("PropLookup", func(t *testing.T) {
		// ForEachVertexByPropID against a brute-force filter of the label
		// scan, across the store's lifecycle: as loaded (where a backend
		// may answer from a value index), and on a MutableGraph after live
		// label writes and after property writes that override indexed
		// values — each of those following a Finalize, so each must
		// invalidate on its own — and once more over the base they were
		// folded into. A snapshot pinned before the property writes keeps
		// answering with the old values.
		s := newStore(t)
		g := propLookupGraph()
		mustLoad(t, g, s)
		checkPropLookup(t, s)
		// Lookups are reads: a built store serves any number at once.
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				checkPropLookup(t, s)
			}()
		}
		wg.Wait()
		mg, ok := s.(storage.MutableGraph)
		if !ok {
			return
		}
		// A live label on an old vertex puts the label's scan out of VID
		// order.
		res, err := mg.ApplyMutations([]storage.Mutation{
			{Op: storage.MutAddLabel, V: 2, Label: "L"},
			{Op: storage.MutAddVertex, Labels: []string{"L"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		late := res.Vertices[0]
		checkPropLookup(t, s)
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}

		var snap storage.Snapshot
		if sn, ok := s.(storage.Snapshotter); ok {
			snap = sn.AcquireSnapshot()
		}
		if _, err := mg.ApplyMutations([]storage.Mutation{
			{Op: storage.MutSetProp, V: 1, Key: "n", Value: graph.I(7)},
			{Op: storage.MutSetProp, V: 2, Key: "k", Value: graph.S("b")},
			{Op: storage.MutSetProp, V: late, Key: "n", Value: graph.F(1)},
		}); err != nil {
			t.Fatal(err)
		}
		checkPropLookup(t, s)
		if got := collectByProp(s, s.LabelID("L"), s.KeyID("n"), graph.I(1)); slices.Contains(got, 1) || !slices.Contains(got, late) {
			t.Errorf("lookup of n=1 after the writes = %v: want the new vertex %d, not the overridden 1", got, late)
		}
		if snap != nil {
			checkPropLookup(t, snap)
			if got := collectByProp(snap, snap.LabelID("L"), snap.KeyID("n"), graph.I(1)); !slices.Contains(got, 1) || slices.Contains(got, late) {
				t.Errorf("snapshot lookup of n=1 = %v: want the pre-write vertex 1, not the later %d", got, late)
			}
			snap.Release()
		}
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}
		checkPropLookup(t, s)
		// Over a base the writes were folded into: a label added to a
		// base vertex holding indexed values, and overrides to and away
		// from them.
		if _, err := mg.ApplyMutations([]storage.Mutation{
			{Op: storage.MutAddLabel, V: 3, Label: "M"},
			{Op: storage.MutSetProp, V: 5, Key: "k", Value: graph.S("b")},
			{Op: storage.MutSetProp, V: 0, Key: "list", Value: graph.L(graph.F(2), graph.B(true))},
		}); err != nil {
			t.Fatal(err)
		}
		checkPropLookup(t, s)
	})

	t.Run("InvalidVertex", func(t *testing.T) {
		s := newStore(t)
		if err := s.AddEdgeBatch([]storage.BulkEdge{{Src: 0, Dst: 1, Type: "t"}}); err == nil {
			t.Error("AddEdgeBatch on missing vertices succeeded")
		}
		var g Batch
		g.Vertex("N")
		mustLoad(t, &g, s)
		mg, ok := s.(storage.MutableGraph)
		if !ok {
			return
		}
		for _, m := range []storage.Mutation{
			{Op: storage.MutSetProp, V: 99, Key: "k", Value: graph.I(1)},
			{Op: storage.MutAddEdge, Src: 0, Dst: 1, Type: "t"},
			{Op: storage.MutAddLabel, V: -1, Label: "L"},
		} {
			if _, err := mg.ApplyMutations([]storage.Mutation{m}); err == nil {
				t.Errorf("mutation %+v on a missing vertex succeeded", m)
			}
		}
	})

	t.Run("Finalized", func(t *testing.T) {
		// After its first Finalize a store refuses batches with
		// storage.ErrFinalized — an empty store too — and a MutableGraph
		// still takes ApplyMutations.
		empty := newStore(t)
		if err := empty.Finalize(); err != nil {
			t.Fatal(err)
		}
		if _, err := empty.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"A"}}}); !errors.Is(err, storage.ErrFinalized) {
			t.Errorf("AddVertexBatch after Finalize of an empty store: err = %v, want ErrFinalized", err)
		}
		s := newStore(t)
		var g Batch
		a := g.Vertex("A")
		g.Edge(a, a, "t")
		mustLoad(t, &g, s)
		if _, err := s.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"A"}}}); !errors.Is(err, storage.ErrFinalized) {
			t.Errorf("AddVertexBatch after Finalize: err = %v, want ErrFinalized", err)
		}
		if err := s.AddEdgeBatch([]storage.BulkEdge{{Src: a, Dst: a, Type: "t"}}); !errors.Is(err, storage.ErrFinalized) {
			t.Errorf("AddEdgeBatch after Finalize: err = %v, want ErrFinalized", err)
		}
		if s.NumVertices() != 1 || s.NumEdges() != 1 {
			t.Errorf("refused batches changed the store: %d vertices, %d edges", s.NumVertices(), s.NumEdges())
		}
		mg, ok := s.(storage.MutableGraph)
		if !ok {
			return
		}
		if _, err := mg.ApplyMutations([]storage.Mutation{
			{Op: storage.MutAddVertex, Labels: []string{"A"}},
			{Op: storage.MutAddEdge, Src: a, Dst: -1, Type: "t"},
		}); err != nil {
			t.Fatalf("ApplyMutations after Finalize: %v", err)
		}
		if s.NumVertices() != 2 || s.NumEdges() != 2 {
			t.Errorf("after a live batch: %d vertices, %d edges, want 2 and 2", s.NumVertices(), s.NumEdges())
		}
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddVertexBatch(nil); !errors.Is(err, storage.ErrFinalized) {
			t.Errorf("AddVertexBatch after a fold: err = %v, want ErrFinalized", err)
		}
	})
}

// fastPathGraph is a small graph exercising every symbol kind: multiple
// labels per vertex, typed and parallel edges, and properties.
func fastPathGraph() *Batch {
	var g Batch
	a := g.Vertex("Drug", "Compound")
	b := g.Vertex("Indication")
	c := g.Vertex("Risk")
	g.Prop(a, "name", graph.S("Aspirin"))
	g.Prop(a, "doses", graph.I(3))
	g.Prop(b, "desc", graph.S("Fever"))
	g.Edge(a, b, "treat")
	g.Edge(a, b, "treat")
	g.Edge(a, c, "cause")
	g.Edge(b, c, "implies")
	return &g
}

// propLookupGraph holds vertices whose values tell Equal apart from byte
// identity — INT vs DOUBLE, -0.0, NaN, integers past 2^53, lists of mixed
// numbers — and one vertex whose label comes after its properties.
func propLookupGraph() *Batch {
	props := []map[string]graph.Value{
		{"k": graph.S("a"), "n": graph.I(1), "list": graph.L(graph.I(1), graph.S("x"))},
		{"k": graph.S("b"), "n": graph.F(1), "list": graph.L(graph.F(1), graph.S("x"))},
		{"k": graph.S("a"), "n": graph.F(math.Copysign(0, -1))},
		{"k": graph.S("a"), "n": graph.I(0), "list": graph.L(graph.F(math.NaN()))},
		{"n": graph.F(math.NaN()), "b": graph.B(true)},
		{"k": graph.S("a"), "n": graph.I(1<<53 + 1)},
		{"n": graph.F(1 << 53), "list": graph.L(graph.I(2), graph.B(true)), "z": graph.Null},
	}
	labels := [][]string{{"L", "M"}, {"L"}, {"M"}, {"L"}, {"L"}, nil, {"L"}}
	var g Batch
	for i, ps := range props {
		v := g.Vertex(labels[i]...)
		for _, k := range slices.Sorted(maps.Keys(ps)) {
			g.Prop(v, k, ps[k])
		}
	}
	g.Label(5, "L")
	g.Edge(0, 1, "e")
	return &g
}

// checkPropLookup compares ForEachVertexByPropID on g with a brute-force
// filter of ForEachVertexID — the same VIDs in the same order — over the
// buildPropLookupGraph vocabulary plus NoSymbol and AnySymbol, and checks
// that the lookup stops when fn returns false.
func checkPropLookup(t *testing.T, g storage.Graph) {
	t.Helper()
	labels := []storage.SymbolID{g.LabelID("L"), g.LabelID("M"), g.LabelID("NoSuchLabel"), storage.AnySymbol}
	keys := []storage.SymbolID{g.KeyID("k"), g.KeyID("n"), g.KeyID("list"), g.KeyID("b"), g.KeyID("z"), g.KeyID("noSuchKey"), storage.AnySymbol}
	vals := []graph.Value{
		graph.S("a"), graph.S("b"), graph.S("absent"), graph.B(true), graph.Null,
		graph.I(1), graph.F(1), graph.I(7), graph.I(0), graph.F(0), graph.F(math.Copysign(0, -1)),
		graph.F(math.NaN()), graph.F(1.5), graph.I(1<<53 + 1), graph.F(1 << 53), graph.I(1 << 53),
		graph.L(graph.I(1), graph.S("x")), graph.L(graph.F(1), graph.S("x")), graph.L(graph.F(math.NaN())),
		graph.L(graph.F(2), graph.B(true)),
	}
	for _, l := range labels {
		for _, k := range keys {
			for _, val := range vals {
				want := []storage.VID{}
				if k >= 0 {
					g.ForEachVertexID(l, func(v storage.VID) bool {
						if got, ok := g.PropID(v, k); ok && got.Equal(val) {
							want = append(want, v)
						}
						return true
					})
				}
				if got := collectByProp(g, l, k, val); !reflect.DeepEqual(got, want) {
					t.Errorf("ForEachVertexByPropID(%d, %d, %v) = %v, want %v", l, k, val, got, want)
				}
				n := 0
				g.ForEachVertexByPropID(l, k, val, func(storage.VID) bool {
					n++
					return false
				})
				if n != min(len(want), 1) {
					t.Errorf("ForEachVertexByPropID(%d, %d, %v) ignored early termination: %d calls for %d matches", l, k, val, n, len(want))
				}
			}
		}
	}
	g.ForEachVertexByPropID(storage.NoSymbol, g.KeyID("k"), graph.S("a"), func(storage.VID) bool {
		t.Error("ForEachVertexByPropID(NoSymbol label) yielded a vertex")
		return false
	})
	g.ForEachVertexByPropID(g.LabelID("L"), storage.NoSymbol, graph.S("a"), func(storage.VID) bool {
		t.Error("ForEachVertexByPropID(NoSymbol key) yielded a vertex")
		return false
	})
}

func collectByProp(g storage.Graph, label, key storage.SymbolID, val graph.Value) []storage.VID {
	out := []storage.VID{}
	g.ForEachVertexByPropID(label, key, val, func(v storage.VID) bool {
		out = append(out, v)
		return true
	})
	return out
}

// CheckLabelMembership verifies HasLabelID(v, l) == (l ∈ Labels(v)) for
// every vertex of g and every label any vertex carries, plus one nobody
// does. Labels and HasLabelID may be served by different structures (a
// record and an index, say); this is the check that they agree. Exported
// so backends can repeat it across their lifecycle states.
func CheckLabelMembership(t *testing.T, g storage.Graph) {
	t.Helper()
	n := g.NumVertices()
	carried := make([]map[string]bool, n)
	all := map[string]bool{"NoSuchLabel": true}
	for v := range carried {
		carried[v] = map[string]bool{}
		for _, l := range g.Labels(storage.VID(v)) {
			carried[v][l] = true
			all[l] = true
		}
	}
	for l := range all {
		id := g.LabelID(l)
		members := 0
		for v := range carried {
			want := carried[v][l]
			if want {
				members++
			}
			if got := g.HasLabelID(storage.VID(v), id); got != want {
				t.Errorf("HasLabelID(%d, %q) = %v, but Labels(%d) = %v", v, l, got, v, g.Labels(storage.VID(v)))
			}
		}
		if got := g.CountLabelID(id); got != members {
			t.Errorf("CountLabelID(%q) = %d, but %d vertices list it", l, got, members)
		}
		if g.HasLabelID(storage.VID(n), id) || g.HasLabelID(-1, id) {
			t.Errorf("HasLabelID(%q) true for a vertex outside [0, %d)", l, n)
		}
	}
}

// CheckFastEquivalence verifies that every ID read of view agrees with
// g's — pass a store and a snapshot acquired from it, or one graph twice
// — and runs the ID-space conformance checks on view: AnySymbol and
// NoSymbol handling, and that PlanVertexScan partitions exactly the
// serial scan. It is exported so backend-specific tests can re-run it
// after physical reorganizations (diskstore Compact, bulk finalize) that
// the generic suite's build-then-read flow cannot reach.
func CheckFastEquivalence(t *testing.T, g, view storage.Graph) {
	t.Helper()
	labels := []string{"Drug", "Compound", "Indication", "Risk", "NoSuchLabel"}
	etypes := []string{"treat", "cause", "implies", "noSuchType", ""}
	keys := []string{"name", "doses", "desc", "noSuchKey"}

	if got, want := view.NumVertices(), g.NumVertices(); got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	for _, l := range labels {
		id := view.LabelID(l)
		if got, want := view.CountLabelID(id), g.CountLabelID(g.LabelID(l)); got != want {
			t.Errorf("CountLabelID(%q) = %d, want %d", l, got, want)
		}
		if got, want := collectScan(view, id), collectScan(g, g.LabelID(l)); !reflect.DeepEqual(got, want) {
			t.Errorf("ForEachVertexID(%q) = %v, want %v", l, got, want)
		}
	}
	if got, want := collectScan(view, storage.AnySymbol), collectScan(g, storage.AnySymbol); !reflect.DeepEqual(got, want) {
		t.Errorf("ForEachVertexID(AnySymbol) = %v, want %v", got, want)
	}
	// CountLabelID(AnySymbol) is the size of the wildcard scan, not
	// CountLabel("")'s 0.
	if got := view.CountLabelID(storage.AnySymbol); got != view.NumVertices() {
		t.Errorf("CountLabelID(AnySymbol) = %d, want NumVertices = %d", got, view.NumVertices())
	}
	for v := 0; v < g.NumVertices(); v++ {
		id := storage.VID(v)
		for _, l := range labels {
			if got, want := view.HasLabelID(id, view.LabelID(l)), g.HasLabelID(id, g.LabelID(l)); got != want {
				t.Errorf("HasLabelID(%d, %q) = %v, want %v", v, l, got, want)
			}
		}
		for _, k := range keys {
			gotVal, gotOK := view.PropID(id, view.KeyID(k))
			wantVal, wantOK := g.PropID(id, g.KeyID(k))
			if gotOK != wantOK || !gotVal.Equal(wantVal) {
				t.Errorf("PropID(%d, %q) = (%v, %v), want (%v, %v)", v, k, gotVal, gotOK, wantVal, wantOK)
			}
		}
		for _, et := range etypes {
			for _, out := range []bool{true, false} {
				if got, want := collectAdj(view, id, view.TypeID(et), out), collectAdj(g, id, g.TypeID(et), out); !reflect.DeepEqual(got, want) {
					t.Errorf("ForEach(%d, %q, out=%v) = %v, want %v", v, et, out, got, want)
				}
				if got, want := view.DegreeID(id, view.TypeID(et), out), g.DegreeID(id, g.TypeID(et), out); got != want {
					t.Errorf("DegreeID(%d, %q, out=%v) = %d, want %d", v, et, out, got, want)
				}
			}
		}
		// NoSymbol matches nothing, regardless of implementation.
		if view.HasLabelID(id, storage.NoSymbol) {
			t.Errorf("HasLabelID(%d, NoSymbol) = true", v)
		}
		if _, ok := view.PropID(id, storage.NoSymbol); ok {
			t.Errorf("PropID(%d, NoSymbol) reported present", v)
		}
		if got := view.DegreeID(id, storage.NoSymbol, true); got != 0 {
			t.Errorf("DegreeID(%d, NoSymbol) = %d", v, got)
		}
	}
	// PlanVertexScan conformance: for every label (plus the AnySymbol
	// wildcard) and a spread of partition counts — parts < 1 meaning 1 —
	// the partitions must be disjoint and their union must be exactly the
	// serial scan, and a partition must stop when fn returns false.
	scanLabels := make([]storage.SymbolID, 0, len(labels)+1)
	for _, l := range labels {
		scanLabels = append(scanLabels, view.LabelID(l))
	}
	scanLabels = append(scanLabels, storage.AnySymbol)
	for _, id := range scanLabels {
		want := collectScan(view, id)
		for _, parts := range []int{-1, 0, 1, 3, 8, 64} {
			scans := view.PlanVertexScan(id, parts)
			if len(scans) > max(parts, 1) {
				t.Errorf("PlanVertexScan(%d, %d) returned %d partitions", id, parts, len(scans))
			}
			got := []storage.VID{}
			for _, scan := range scans {
				scan(func(v storage.VID) bool {
					got = append(got, v)
					return true
				})
			}
			// Partitions may interleave arbitrarily, so compare as sorted
			// multisets; duplicates across partitions surface here too.
			sortVIDs(got)
			wantSorted := append([]storage.VID{}, want...)
			sortVIDs(wantSorted)
			if !reflect.DeepEqual(got, wantSorted) {
				t.Errorf("PlanVertexScan(%d, %d) union = %v, want %v", id, parts, got, wantSorted)
			}
			if len(scans) > 0 && len(want) > 0 {
				n := 0
				scans[0](func(storage.VID) bool {
					n++
					return false
				})
				if n != 1 {
					t.Errorf("PlanVertexScan(%d, %d): partition ignored early termination (visited %d)", id, parts, n)
				}
			}
		}
	}
	if got := view.PlanVertexScan(storage.NoSymbol, 4); len(got) != 0 {
		t.Errorf("PlanVertexScan(NoSymbol) returned %d partitions", len(got))
	}
	if view.CountLabelID(storage.NoSymbol) != 0 {
		t.Error("CountLabelID(NoSymbol) != 0")
	}
	view.ForEachVertexID(storage.NoSymbol, func(storage.VID) bool {
		t.Error("ForEachVertexID(NoSymbol) yielded a vertex")
		return false
	})
	view.ForEachOutID(0, storage.NoSymbol, func(storage.EID, storage.VID) bool {
		t.Error("ForEachOutID(NoSymbol) yielded an edge")
		return false
	})
}

// checkByName pins the by-name rules on a buildFastPathGraph store: the
// empty string is the wildcard for vertex scans and edge types and
// matches nothing for CountLabel, HasLabel and Prop; unknown names and
// out-of-range VIDs read as absent.
func checkByName(t *testing.T, g storage.Graph) {
	t.Helper()
	n := g.NumVertices()
	if got := g.CountLabel(""); got != 0 {
		t.Errorf("CountLabel(\"\") = %d, want 0", got)
	}
	if got := g.CountLabelID(storage.AnySymbol); got != n {
		t.Errorf("CountLabelID(AnySymbol) = %d, want NumVertices = %d", got, n)
	}
	if got := g.CountLabel("Drug"); got != 1 {
		t.Errorf("CountLabel(Drug) = %d, want 1", got)
	}
	if got, want := collectScanStr(g, ""), collectScan(g, storage.AnySymbol); len(got) != n || !reflect.DeepEqual(got, want) {
		t.Errorf("ForEachVertex(\"\") = %v, want every vertex %v", got, want)
	}
	if got, want := collectScanStr(g, "Compound"), collectScan(g, g.LabelID("Compound")); !reflect.DeepEqual(got, want) {
		t.Errorf("ForEachVertex(Compound) = %v, want %v", got, want)
	}
	if val, ok := g.Prop(0, "name"); !ok || val.Str() != "Aspirin" {
		t.Errorf("Prop(0, name) = (%v, %v), want Aspirin", val, ok)
	}
	if !g.HasLabel(0, "Drug") || g.HasLabel(1, "Drug") {
		t.Error("HasLabel(Drug) wrong")
	}
	for v := 0; v < n; v++ {
		id := storage.VID(v)
		if _, ok := g.Prop(id, ""); ok {
			t.Errorf("Prop(%d, \"\") reported present", v)
		}
		if g.HasLabel(id, "") {
			t.Errorf("HasLabel(%d, \"\") = true", v)
		}
		for _, out := range []bool{true, false} {
			var typed [][2]int64
			for _, et := range []string{"treat", "cause", "implies"} {
				typed = append(typed, collectAdjStr(g, id, et, out)...)
			}
			all := collectAdjStr(g, id, "", out)
			if len(all) != len(typed) || len(all) != g.Degree(id, "", out) {
				t.Errorf("vertex %d out=%v: %d edges of any type, %d of the named types, Degree(\"\") = %d", v, out, len(all), len(typed), g.Degree(id, "", out))
			}
			if got := collectAdjStr(g, id, "noSuchType", out); len(got) != 0 {
				t.Errorf("ForEach(%d, noSuchType, out=%v) = %v", v, out, got)
			}
		}
	}
	if g.CountLabel("NoSuchLabel") != 0 || len(collectScanStr(g, "NoSuchLabel")) != 0 {
		t.Error("unknown label matched vertices")
	}
	if g.HasLabel(0, "NoSuchLabel") || g.Degree(0, "noSuchType", true) != 0 {
		t.Error("unknown label or type matched on vertex 0")
	}
	if _, ok := g.Prop(0, "noSuchKey"); ok {
		t.Error("Prop(0, noSuchKey) reported present")
	}
	for _, v := range []storage.VID{-1, storage.VID(n)} {
		if g.HasLabel(v, "Drug") || g.Degree(v, "", true) != 0 || len(g.Labels(v)) != 0 || len(g.PropKeys(v)) != 0 {
			t.Errorf("out-of-range vertex %d reads as present", v)
		}
		if _, ok := g.Prop(v, "name"); ok {
			t.Errorf("Prop(%d, name) reported present", v)
		}
		if len(collectAdjStr(g, v, "", true)) != 0 || len(collectAdjStr(g, v, "", false)) != 0 {
			t.Errorf("out-of-range vertex %d has edges", v)
		}
	}
}

func collectScan(g storage.Graph, label storage.SymbolID) []storage.VID {
	out := []storage.VID{}
	g.ForEachVertexID(label, func(v storage.VID) bool {
		out = append(out, v)
		return true
	})
	return out
}

func collectScanStr(g storage.Graph, label string) []storage.VID {
	out := []storage.VID{}
	g.ForEachVertex(label, func(v storage.VID) bool {
		out = append(out, v)
		return true
	})
	return out
}

func collectAdj(g storage.Graph, v storage.VID, etype storage.SymbolID, out bool) [][2]int64 {
	res := [][2]int64{}
	fn := func(e storage.EID, other storage.VID) bool {
		res = append(res, [2]int64{int64(e), int64(other)})
		return true
	}
	if out {
		g.ForEachOutID(v, etype, fn)
	} else {
		g.ForEachInID(v, etype, fn)
	}
	return res
}

func collectAdjStr(g storage.Graph, v storage.VID, etype string, out bool) [][2]int64 {
	res := [][2]int64{}
	fn := func(e storage.EID, other storage.VID) bool {
		res = append(res, [2]int64{int64(e), int64(other)})
		return true
	}
	if out {
		g.ForEachOut(v, etype, fn)
	} else {
		g.ForEachIn(v, etype, fn)
	}
	return res
}

// degreeSweep collects typed and untyped degrees of every vertex through
// the ID methods, using the BuildRandom vocabulary.
func degreeSweep(g storage.Graph) []int {
	var out []int
	types := []storage.SymbolID{g.TypeID("r1"), g.TypeID("r2"), g.TypeID("r3"), storage.AnySymbol}
	for v := 0; v < g.NumVertices(); v++ {
		for _, tid := range types {
			out = append(out, g.DegreeID(storage.VID(v), tid, true), g.DegreeID(storage.VID(v), tid, false))
		}
	}
	return out
}

func mustLoad(t *testing.T, g *Batch, s storage.Builder) {
	t.Helper()
	if err := g.Load(s); err != nil {
		t.Fatalf("Load: %v", err)
	}
}

func sortVIDs(vs []storage.VID) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}

// Batch is a test graph in the shape storage.Builder takes it: vertices,
// each whole with its labels and properties, and edges between them.
// Fixtures are built with Vertex, Label, Prop and Edge; Load writes the
// graph into a store as a bulk load, Apply as live ApplyMutations
// batches.
type Batch struct {
	Vertices []storage.BulkVertex
	Edges    []storage.BulkEdge
}

// Vertex adds a vertex and returns its VID, which is its VID in a store
// the batch is loaded into.
func (b *Batch) Vertex(labels ...string) storage.VID {
	b.Vertices = append(b.Vertices, storage.BulkVertex{Labels: slices.Clone(labels)})
	return storage.VID(len(b.Vertices) - 1)
}

// Label adds a label to vertex v.
func (b *Batch) Label(v storage.VID, label string) {
	b.Vertices[v].Labels = append(b.Vertices[v].Labels, label)
}

// Prop sets a property of vertex v; a later Prop of the same key wins.
func (b *Batch) Prop(v storage.VID, key string, val graph.Value) {
	b.Vertices[v].Props = append(b.Vertices[v].Props, storage.BulkProp{Key: key, Value: val})
}

// Edge adds an edge.
func (b *Batch) Edge(src, dst storage.VID, etype string) {
	b.Edges = append(b.Edges, storage.BulkEdge{Src: src, Dst: dst, Type: etype})
}

// loadChunk is the batch size Load and Apply cut the graph into, so that
// every fixture crosses batch boundaries.
const loadChunk = 16

// Load writes the batch into s, a store that holds nothing, as vertex
// batches and edge batches of loadChunk, and finalizes it.
func (b *Batch) Load(s storage.Builder) error {
	for lo := 0; lo < len(b.Vertices); lo += loadChunk {
		first, err := s.AddVertexBatch(b.Vertices[lo:min(lo+loadChunk, len(b.Vertices))])
		if err != nil {
			return err
		}
		if first != storage.VID(lo) {
			return fmt.Errorf("storetest: vertex batch got VIDs from %d, want %d", first, lo)
		}
	}
	for lo := 0; lo < len(b.Edges); lo += loadChunk {
		if err := s.AddEdgeBatch(b.Edges[lo:min(lo+loadChunk, len(b.Edges))]); err != nil {
			return err
		}
	}
	return s.Finalize()
}

// Apply writes the batch into g as live ApplyMutations batches: one per
// vertex with its properties, then the edges, loadChunk to a batch. It
// returns the VIDs the vertices got.
func (b *Batch) Apply(g storage.MutableGraph) ([]storage.VID, error) {
	vids := make([]storage.VID, len(b.Vertices))
	for i, bv := range b.Vertices {
		muts := []storage.Mutation{{Op: storage.MutAddVertex, Labels: bv.Labels}}
		for _, p := range bv.Props {
			muts = append(muts, storage.Mutation{Op: storage.MutSetProp, V: -1, Key: p.Key, Value: p.Value})
		}
		res, err := g.ApplyMutations(muts)
		if err != nil {
			return nil, err
		}
		vids[i] = res.Vertices[0]
	}
	for lo := 0; lo < len(b.Edges); lo += loadChunk {
		var muts []storage.Mutation
		for _, e := range b.Edges[lo:min(lo+loadChunk, len(b.Edges))] {
			muts = append(muts, storage.Mutation{Op: storage.MutAddEdge, Src: vids[e.Src], Dst: vids[e.Dst], Type: e.Type})
		}
		if _, err := g.ApplyMutations(muts); err != nil {
			return nil, err
		}
	}
	return vids, nil
}

// RandomBatch returns the pseudo-random graph for seed: nVertices
// vertices with one or two of four labels and up to three properties
// (repeated keys included), then nEdges edges of three types.
func RandomBatch(seed int64, nVertices, nEdges int) *Batch {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"A", "B", "C", "D"}
	etypes := []string{"r1", "r2", "r3"}
	var b Batch
	for i := 0; i < nVertices; i++ {
		v := b.Vertex(labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 0 {
			b.Label(v, labels[rng.Intn(len(labels))])
		}
		nProps := rng.Intn(4)
		for j := 0; j < nProps; j++ {
			var val graph.Value
			switch rng.Intn(4) {
			case 0:
				val = graph.S(fmt.Sprintf("str%d", rng.Intn(100)))
			case 1:
				val = graph.I(rng.Int63n(1000))
			case 2:
				val = graph.F(rng.Float64())
			default:
				val = graph.L(graph.S("x"), graph.I(rng.Int63n(10)))
			}
			b.Prop(v, fmt.Sprintf("p%d", rng.Intn(5)), val)
		}
	}
	for i := 0; i < nEdges; i++ {
		src := storage.VID(rng.Intn(nVertices))
		dst := storage.VID(rng.Intn(nVertices))
		b.Edge(src, dst, etypes[rng.Intn(len(etypes))])
	}
	return &b
}

// BuildRandom loads the RandomBatch graph for seed into b, a store that
// holds nothing, finalizes it and returns the vertex count. Used for
// differential tests.
func BuildRandom(b storage.Builder, seed int64, nVertices, nEdges int) (int, error) {
	if err := RandomBatch(seed, nVertices, nEdges).Load(b); err != nil {
		return 0, err
	}
	return nVertices, nil
}

// Fingerprint summarizes all observable state of the graph into a
// deterministic string so two backends can be compared.
func Fingerprint(g storage.Graph) string {
	var out []string
	out = append(out, fmt.Sprintf("V=%d E=%d", g.NumVertices(), g.NumEdges()))
	for v := 0; v < g.NumVertices(); v++ {
		id := storage.VID(v)
		line := fmt.Sprintf("v%d labels=%v", v, g.Labels(id))
		for _, k := range g.PropKeys(id) {
			val, _ := g.Prop(id, k)
			line += fmt.Sprintf(" %s=%s", k, val)
		}
		var outs, ins []string
		g.ForEachOut(id, "", func(_ storage.EID, dst storage.VID) bool {
			outs = append(outs, fmt.Sprintf("->%d", dst))
			return true
		})
		g.ForEachIn(id, "", func(_ storage.EID, src storage.VID) bool {
			ins = append(ins, fmt.Sprintf("<-%d", src))
			return true
		})
		sort.Strings(outs)
		sort.Strings(ins)
		line += fmt.Sprintf(" out=%v in=%v", outs, ins)
		out = append(out, line)
	}
	return fmt.Sprintf("%v", out)
}
