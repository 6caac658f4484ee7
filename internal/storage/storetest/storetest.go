// Package storetest provides a conformance suite run against every
// storage.Builder implementation, plus a randomized graph generator used
// for differential testing between backends.
package storetest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
)

// Factory creates a fresh empty store for each subtest.
type Factory func(t *testing.T) storage.Builder

// Run executes the conformance suite against the implementation.
func Run(t *testing.T, newStore Factory) {
	t.Run("EmptyStore", func(t *testing.T) {
		s := newStore(t)
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
		a := mustVertex(t, s, "Drug")
		b := mustVertex(t, s, "Drug", "Compound")
		c := mustVertex(t, s)
		if s.NumVertices() != 3 {
			t.Fatalf("NumVertices = %d, want 3", s.NumVertices())
		}
		if got := s.CountLabel("Drug"); got != 2 {
			t.Errorf("CountLabel(Drug) = %d, want 2", got)
		}
		if !s.HasLabel(b, "Compound") || s.HasLabel(a, "Compound") || s.HasLabel(c, "Drug") {
			t.Error("HasLabel wrong")
		}
		if err := s.AddLabel(c, "Late"); err != nil {
			t.Fatalf("AddLabel: %v", err)
		}
		if !s.HasLabel(c, "Late") {
			t.Error("label added after creation not visible")
		}
		// Duplicate label must be idempotent.
		if err := s.AddLabel(b, "Drug"); err != nil {
			t.Fatalf("AddLabel dup: %v", err)
		}
		if got := s.CountLabel("Drug"); got != 2 {
			t.Errorf("CountLabel(Drug) after dup add = %d, want 2", got)
		}
		if got := s.Labels(b); !reflect.DeepEqual(got, []string{"Compound", "Drug"}) {
			t.Errorf("Labels = %v", got)
		}
	})

	t.Run("Properties", func(t *testing.T) {
		s := newStore(t)
		v := mustVertex(t, s, "N")
		vals := map[string]graph.Value{
			"s":    graph.S("hello"),
			"i":    graph.I(-42),
			"f":    graph.F(3.25),
			"b":    graph.B(true),
			"list": graph.L(graph.S("a"), graph.I(1), graph.F(0.5), graph.B(false)),
			"nil":  graph.Null,
			"es":   graph.S(""),
		}
		for k, val := range vals {
			if err := s.SetProp(v, k, val); err != nil {
				t.Fatalf("SetProp(%s): %v", k, err)
			}
		}
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
		// Overwrite.
		if err := s.SetProp(v, "s", graph.S("world")); err != nil {
			t.Fatal(err)
		}
		if got, _ := s.Prop(v, "s"); got.Str() != "world" {
			t.Errorf("overwritten prop = %v", got)
		}
		keys := s.PropKeys(v)
		if len(keys) != len(vals) {
			t.Errorf("PropKeys = %v, want %d keys", keys, len(vals))
		}
		if !sort.StringsAreSorted(keys) {
			t.Errorf("PropKeys not sorted: %v", keys)
		}
	})

	t.Run("EdgesAndTraversal", func(t *testing.T) {
		s := newStore(t)
		drug := mustVertex(t, s, "Drug")
		i1 := mustVertex(t, s, "Indication")
		i2 := mustVertex(t, s, "Indication")
		risk := mustVertex(t, s, "Risk")
		if _, err := s.AddEdge(drug, i1, "treat"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddEdge(drug, i2, "treat"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddEdge(drug, risk, "cause"); err != nil {
			t.Fatal(err)
		}
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
		var want []storage.VID
		for i := 0; i < 10; i++ {
			label := "Even"
			if i%2 == 1 {
				label = "Odd"
			}
			v := mustVertex(t, s, label)
			if label == "Even" {
				want = append(want, v)
			}
		}
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
		buildFastPathGraph(t, s)
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
		buildFastPathGraph(t, s)
		t.Run("store", func(t *testing.T) { checkByName(t, s) })
		if sn, ok := storage.Builder(s).(storage.Snapshotter); ok {
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
		// The batched write path must produce a graph observably identical
		// to the incremental one: same vertices, labels, properties, and
		// (order-insensitively) the same adjacency. A small batch size
		// forces multiple flush cycles, and the finalized store must also
		// keep its ID reads and scan partitions consistent.
		inc := newStore(t)
		if _, err := BuildRandom(inc, 77, 50, 130); err != nil {
			t.Fatal(err)
		}
		bulk := newStore(t)
		if _, err := BuildRandomBulk(bulk, 77, 50, 130, 16); err != nil {
			t.Fatal(err)
		}
		if got, want := Fingerprint(bulk), Fingerprint(inc); got != want {
			t.Errorf("bulk-built store diverges from incremental build:\n got: %.300s...\nwant: %.300s...", got, want)
		}
		CheckFastEquivalence(t, bulk, bulk)
	})

	t.Run("HasLabelMatchesLabels", func(t *testing.T) {
		// Both write paths, because a backend may answer HasLabelID from a
		// different structure once a bulk build has been finalized.
		inc := newStore(t)
		if _, err := BuildRandom(inc, 31, 150, 300); err != nil {
			t.Fatal(err)
		}
		bulk := newStore(t)
		if _, err := BuildRandomBulk(bulk, 31, 150, 300, 16); err != nil {
			t.Fatal(err)
		}
		for _, s := range []storage.Builder{inc, bulk} {
			CheckLabelMembership(t, s)
			// A label the store has never seen, on an old vertex and a
			// new one, after whatever Finalize did.
			if err := s.AddLabel(3, "Late"); err != nil {
				t.Fatal(err)
			}
			mustVertex(t, s, "Late", "B")
			CheckLabelMembership(t, s)
			if !s.HasLabel(3, "Late") || s.HasLabel(4, "Late") {
				t.Error("HasLabel(Late) wrong after AddLabel")
			}
		}
	})

	t.Run("SnapshotIsolation", func(t *testing.T) {
		s := newStore(t)
		if _, err := BuildRandom(s, 4242, 25, 60); err != nil {
			t.Fatal(err)
		}
		before := Fingerprint(s)

		sn, ok := storage.Builder(s).(storage.Snapshotter)
		if !ok {
			// The query layer pins a snapshot only on a MutableGraph, so
			// a store without snapshots must take no writes once built.
			if _, mutable := storage.Builder(s).(storage.MutableGraph); mutable {
				t.Error("store is a MutableGraph but not a Snapshotter; queries would read it live mid-write")
			}
			return
		}
		snap1 := sn.AcquireSnapshot()
		if got := Fingerprint(snap1); got != before {
			t.Fatalf("freshly acquired snapshot diverges from the store:\n got %.200s\nwant %.200s", got, before)
		}
		CheckFastEquivalence(t, s, snap1)

		// Isolation under mutation only applies when snapshots are real
		// copies or pinned epochs. An exclusive-build store (a live-write
		// backend before its first finalize: LiveStatsReporter with
		// Live=false) hands out the store itself — no concurrent
		// mutation by contract, so there is nothing to isolate.
		isolated := true
		if lr, ok := storage.Builder(s).(storage.LiveStatsReporter); ok && !lr.LiveStats().Live {
			isolated = false
		}
		if isolated {
			w := mustVertex(t, s, "SnapIso")
			if err := s.SetProp(w, "iso", graph.S("after")); err != nil {
				t.Fatal(err)
			}
			if err := s.AddLabel(0, "SnapIso"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AddEdge(0, w, "snapEdge"); err != nil {
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
		if lr, ok := storage.Builder(s).(storage.LiveStatsReporter); ok {
			if got := lr.LiveStats().PinnedSnapshots; got != 0 {
				t.Errorf("%d snapshots still reported pinned after every Release", got)
			}
		}
	})

	t.Run("InvalidVertex", func(t *testing.T) {
		s := newStore(t)
		if err := s.SetProp(99, "k", graph.I(1)); err == nil {
			t.Error("SetProp on missing vertex succeeded")
		}
		if _, err := s.AddEdge(0, 1, "t"); err == nil {
			t.Error("AddEdge on missing vertices succeeded")
		}
		if err := s.AddLabel(-1, "L"); err == nil {
			t.Error("AddLabel on negative vertex succeeded")
		}
	})
}

// buildFastPathGraph populates a small graph exercising every symbol kind:
// multiple labels per vertex, typed and parallel edges, and properties.
func buildFastPathGraph(t *testing.T, s storage.Builder) {
	t.Helper()
	a := mustVertex(t, s, "Drug", "Compound")
	b := mustVertex(t, s, "Indication")
	c := mustVertex(t, s, "Risk")
	if err := s.SetProp(a, "name", graph.S("Aspirin")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProp(a, "doses", graph.I(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProp(b, "desc", graph.S("Fever")); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][3]interface{}{{a, b, "treat"}, {a, b, "treat"}, {a, c, "cause"}, {b, c, "implies"}} {
		if _, err := s.AddEdge(e[0].(storage.VID), e[1].(storage.VID), e[2].(string)); err != nil {
			t.Fatal(err)
		}
	}
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

func mustVertex(t *testing.T, s storage.Builder, labels ...string) storage.VID {
	t.Helper()
	v, err := s.AddVertex(labels...)
	if err != nil {
		t.Fatalf("AddVertex: %v", err)
	}
	return v
}

func sortVIDs(vs []storage.VID) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}

// randomWriter is the write surface buildRandomInto needs. Both write
// paths satisfy it — storage.Builder through the builderWriter adapter,
// *storage.BulkLoader directly — so the generator exists exactly once
// and the BulkBuild conformance comparison can never drift out of rng
// sync between the two.
type randomWriter interface {
	AddVertex(labels ...string) (storage.VID, error)
	AddLabel(v storage.VID, label string) error
	SetProp(v storage.VID, key string, val graph.Value) error
	AddEdge(src, dst storage.VID, etype string) error
}

// builderWriter adapts storage.Builder's AddEdge signature (which returns
// the EID) to randomWriter.
type builderWriter struct{ storage.Builder }

func (w builderWriter) AddEdge(src, dst storage.VID, etype string) error {
	_, err := w.Builder.AddEdge(src, dst, etype)
	return err
}

// buildRandomInto writes the pseudo-random graph for seed through w.
func buildRandomInto(w randomWriter, seed int64, nVertices, nEdges int) error {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"A", "B", "C", "D"}
	etypes := []string{"r1", "r2", "r3"}
	for i := 0; i < nVertices; i++ {
		v, err := w.AddVertex(labels[rng.Intn(len(labels))])
		if err != nil {
			return err
		}
		if rng.Intn(2) == 0 {
			if err := w.AddLabel(v, labels[rng.Intn(len(labels))]); err != nil {
				return err
			}
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
			if err := w.SetProp(v, fmt.Sprintf("p%d", rng.Intn(5)), val); err != nil {
				return err
			}
		}
	}
	for i := 0; i < nEdges; i++ {
		src := storage.VID(rng.Intn(nVertices))
		dst := storage.VID(rng.Intn(nVertices))
		if err := w.AddEdge(src, dst, etypes[rng.Intn(len(etypes))]); err != nil {
			return err
		}
	}
	return nil
}

// BuildRandom populates b with a pseudo-random graph (deterministic in
// seed) and returns the vertex count. Used for differential tests.
func BuildRandom(b storage.Builder, seed int64, nVertices, nEdges int) (int, error) {
	if err := buildRandomInto(builderWriter{b}, seed, nVertices, nEdges); err != nil {
		return 0, err
	}
	return nVertices, nil
}

// BuildRandomBulk builds the same pseudo-random graph as BuildRandom with
// the same seed, but through the storage.BulkLoader batched write path
// (the store's BatchBuilder batches), finishing with one Finalize. Used to prove the two
// write paths produce observably identical graphs.
func BuildRandomBulk(b storage.Builder, seed int64, nVertices, nEdges, batchSize int) (int, error) {
	bl := storage.NewBulkLoader(b, batchSize)
	if err := buildRandomInto(bl, seed, nVertices, nEdges); err != nil {
		return 0, err
	}
	if err := bl.Finalize(); err != nil {
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
