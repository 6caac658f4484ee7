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
		// The suite runs twice: once against the store's own fast path
		// (or, for string-only stores, the adapter storage.Fast creates),
		// and once forcing the generic fallback adapter by hiding any
		// native FastGraph implementation. Both must agree with the
		// string API on every operation.
		t.Run("Native", func(t *testing.T) {
			CheckFastEquivalence(t, s, storage.Fast(s))
		})
		t.Run("Fallback", func(t *testing.T) {
			CheckFastEquivalence(t, s, storage.Fast(stringOnly{s}))
		})
		if fg, ok := storage.Builder(s).(storage.FastGraph); ok {
			// Native stores resolve unknown symbols to NoSymbol and the
			// empty string to AnySymbol.
			if got := fg.LabelID("NoSuchLabel"); got != storage.NoSymbol {
				t.Errorf("LabelID(unknown) = %d, want NoSymbol", got)
			}
			if got := fg.TypeID("noSuchType"); got != storage.NoSymbol {
				t.Errorf("TypeID(unknown) = %d, want NoSymbol", got)
			}
			if got := fg.KeyID("noSuchKey"); got != storage.NoSymbol {
				t.Errorf("KeyID(unknown) = %d, want NoSymbol", got)
			}
			for _, id := range []storage.SymbolID{fg.LabelID(""), fg.TypeID(""), fg.KeyID("")} {
				if id != storage.AnySymbol {
					t.Errorf("empty-string symbol = %d, want AnySymbol", id)
				}
			}
		}
	})

	t.Run("ParallelReaders", func(t *testing.T) {
		// Built stores must serve concurrent readers: every goroutine
		// sweeps the full read surface (string and fast-path APIs) and
		// must observe exactly the state a serial sweep observed. Run
		// under -race this also proves the read paths are data-race free.
		s := newStore(t)
		if _, err := BuildRandom(s, 1234, 40, 100); err != nil {
			t.Fatal(err)
		}
		want := Fingerprint(s)
		fg := storage.Fast(s)
		wantDegrees := degreeSweep(fg)
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
					if got := degreeSweep(fg); !reflect.DeepEqual(got, wantDegrees) {
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
		// keep its fast path equivalent to its string API.
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
		CheckFastEquivalence(t, bulk, storage.Fast(bulk))
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

		// Every Graph yields a usable view through SnapshotOf: native
		// Snapshotters pin a real snapshot, everything else gets the
		// no-op fallback over storage.Fast. Both must read the current
		// state, and Release must always be safe — twice, even.
		for name, g := range map[string]storage.Graph{"native": s, "fallback": stringOnly{s}} {
			snap := storage.SnapshotOf(g)
			if got := Fingerprint(snap); got != before {
				t.Errorf("SnapshotOf(%s) does not read the store's state:\n got %.200s\nwant %.200s", name, got, before)
			}
			snap.Release()
			snap.Release()
		}

		sn, ok := storage.Builder(s).(storage.Snapshotter)
		if !ok {
			t.Skip("store is not a Snapshotter; SnapshotOf fallback is the whole contract")
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

// stringOnly hides a store's native fast path behind the plain Graph
// method set so storage.Fast is forced to use the generic adapter.
type stringOnly struct{ storage.Graph }

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
	fg := storage.Fast(g)
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
		id := fg.LabelID(l)
		members := 0
		for v := range carried {
			want := carried[v][l]
			if want {
				members++
			}
			if got := fg.HasLabelID(storage.VID(v), id); got != want {
				t.Errorf("HasLabelID(%d, %q) = %v, but Labels(%d) = %v", v, l, got, v, g.Labels(storage.VID(v)))
			}
		}
		if got := fg.CountLabelID(id); got != members {
			t.Errorf("CountLabelID(%q) = %d, but %d vertices list it", l, got, members)
		}
		if fg.HasLabelID(storage.VID(n), id) || fg.HasLabelID(-1, id) {
			t.Errorf("HasLabelID(%q) true for a vertex outside [0, %d)", l, n)
		}
	}
}

// CheckFastEquivalence verifies that every ID-based operation of fg
// agrees with g's string API, for known and unknown symbols alike. It is
// exported so backend-specific tests can re-run it after physical
// reorganizations (diskstore Compact, bulk finalize) that the generic
// suite's build-then-read flow cannot reach.
func CheckFastEquivalence(t *testing.T, g storage.Graph, fg storage.FastGraph) {
	t.Helper()
	labels := []string{"Drug", "Compound", "Indication", "Risk", "NoSuchLabel"}
	etypes := []string{"treat", "cause", "implies", "noSuchType", ""}
	keys := []string{"name", "doses", "desc", "noSuchKey"}

	for _, l := range labels {
		id := fg.LabelID(l)
		if got, want := fg.CountLabelID(id), g.CountLabel(l); got != want {
			t.Errorf("CountLabelID(%q) = %d, want %d", l, got, want)
		}
		if got, want := collectScan(fg, id), collectScanStr(g, l); !reflect.DeepEqual(got, want) {
			t.Errorf("ForEachVertexID(%q) = %v, want %v", l, got, want)
		}
	}
	if got, want := collectScan(fg, storage.AnySymbol), collectScanStr(g, ""); !reflect.DeepEqual(got, want) {
		t.Errorf("ForEachVertexID(AnySymbol) = %v, want %v", got, want)
	}
	// CountLabelID(AnySymbol) is the documented extension: the size of
	// the wildcard scan, not CountLabel("")'s 0.
	if got := fg.CountLabelID(storage.AnySymbol); got != g.NumVertices() {
		t.Errorf("CountLabelID(AnySymbol) = %d, want NumVertices = %d", got, g.NumVertices())
	}
	for v := 0; v < g.NumVertices(); v++ {
		id := storage.VID(v)
		for _, l := range labels {
			if got, want := fg.HasLabelID(id, fg.LabelID(l)), g.HasLabel(id, l); got != want {
				t.Errorf("HasLabelID(%d, %q) = %v, want %v", v, l, got, want)
			}
		}
		for _, k := range keys {
			gotVal, gotOK := fg.PropID(id, fg.KeyID(k))
			wantVal, wantOK := g.Prop(id, k)
			if gotOK != wantOK || !gotVal.Equal(wantVal) {
				t.Errorf("PropID(%d, %q) = (%v, %v), want (%v, %v)", v, k, gotVal, gotOK, wantVal, wantOK)
			}
		}
		for _, et := range etypes {
			tid := fg.TypeID(et)
			for _, out := range []bool{true, false} {
				if got, want := collectAdj(fg, id, tid, out), collectAdjStr(g, id, et, out); !reflect.DeepEqual(got, want) {
					t.Errorf("ForEach(%d, %q, out=%v) = %v, want %v", v, et, out, got, want)
				}
				if got, want := fg.DegreeID(id, tid, out), g.Degree(id, et, out); got != want {
					t.Errorf("DegreeID(%d, %q, out=%v) = %d, want %d", v, et, out, got, want)
				}
			}
		}
		// NoSymbol matches nothing, regardless of implementation.
		if fg.HasLabelID(id, storage.NoSymbol) {
			t.Errorf("HasLabelID(%d, NoSymbol) = true", v)
		}
		if _, ok := fg.PropID(id, storage.NoSymbol); ok {
			t.Errorf("PropID(%d, NoSymbol) reported present", v)
		}
		if got := fg.DegreeID(id, storage.NoSymbol, true); got != 0 {
			t.Errorf("DegreeID(%d, NoSymbol) = %d", v, got)
		}
	}
	// PlanVertexScan conformance: for every label (plus the AnySymbol
	// wildcard) and a spread of partition counts, the partitions must be
	// disjoint and their union must be exactly the serial scan, and a
	// partition must stop when fn returns false.
	scanLabels := make([]storage.SymbolID, 0, len(labels)+1)
	for _, l := range labels {
		scanLabels = append(scanLabels, fg.LabelID(l))
	}
	scanLabels = append(scanLabels, storage.AnySymbol)
	for _, id := range scanLabels {
		want := collectScan(fg, id)
		for _, parts := range []int{1, 3, 8, 64} {
			scans := fg.PlanVertexScan(id, parts)
			if len(scans) > parts {
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
	if got := fg.PlanVertexScan(storage.NoSymbol, 4); len(got) != 0 {
		t.Errorf("PlanVertexScan(NoSymbol) returned %d partitions", len(got))
	}
	if fg.CountLabelID(storage.NoSymbol) != 0 {
		t.Error("CountLabelID(NoSymbol) != 0")
	}
	fg.ForEachVertexID(storage.NoSymbol, func(storage.VID) bool {
		t.Error("ForEachVertexID(NoSymbol) yielded a vertex")
		return false
	})
	fg.ForEachOutID(0, storage.NoSymbol, func(storage.EID, storage.VID) bool {
		t.Error("ForEachOutID(NoSymbol) yielded an edge")
		return false
	})
}

func collectScan(fg storage.FastGraph, label storage.SymbolID) []storage.VID {
	out := []storage.VID{}
	fg.ForEachVertexID(label, func(v storage.VID) bool {
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

func collectAdj(fg storage.FastGraph, v storage.VID, etype storage.SymbolID, out bool) [][2]int64 {
	res := [][2]int64{}
	fn := func(e storage.EID, other storage.VID) bool {
		res = append(res, [2]int64{int64(e), int64(other)})
		return true
	}
	if out {
		fg.ForEachOutID(v, etype, fn)
	} else {
		fg.ForEachInID(v, etype, fn)
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
// the fast path, using the BuildRandom vocabulary.
func degreeSweep(fg storage.FastGraph) []int {
	var out []int
	types := []storage.SymbolID{fg.TypeID("r1"), fg.TypeID("r2"), fg.TypeID("r3"), storage.AnySymbol}
	for v := 0; v < fg.NumVertices(); v++ {
		for _, tid := range types {
			out = append(out, fg.DegreeID(storage.VID(v), tid, true), fg.DegreeID(storage.VID(v), tid, false))
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
// (native BatchBuilder batches where the store provides them, per-item
// calls otherwise), finishing with one Finalize. Used to prove the two
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
