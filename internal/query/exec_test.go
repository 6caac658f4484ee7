package query

// Tests of the Exec driver itself: its exported surface, the "pin once,
// read through the pin" rule, and the order contract of the one-morsel
// case. Equivalence of one and many morsels lives in
// intraquery_parallel_test.go.

import (
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
)

// TestPreparedExecSurface pins the exported methods of *Prepared that run
// a plan. Exec is the entry point (Collect is Exec into a *Result);
// ExecuteParallelContextWithStats survives only because benchmark/twin.go
// pins it. A new variant belongs in ExecOptions or in a Sink, not here.
func TestPreparedExecSurface(t *testing.T) {
	want := []string{"Exec", "ExecuteParallelContextWithStats"}
	var got []string
	typ := reflect.TypeOf(&Prepared{})
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if strings.HasPrefix(name, "Exec") || strings.HasPrefix(name, "Stream") || strings.HasPrefix(name, "Run") {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan-running methods of *Prepared = %v, want exactly %v", got, want)
	}
}

// pinGraph is a live, snapshot-capable backend as the executor sees one:
// a store that is a MutableGraph and a Snapshotter. It counts snapshots
// acquired and released, and every executor read that reaches the store
// itself instead of a snapshot.
type pinGraph struct {
	storage.Graph
	acquired, released, liveReads atomic.Int64
}

type pinSnap struct {
	storage.Graph
	g *pinGraph
}

func (s pinSnap) Release() { s.g.released.Add(1) }

func (g *pinGraph) AcquireSnapshot() storage.Snapshot {
	g.acquired.Add(1)
	return pinSnap{g.Graph, g}
}

func (g *pinGraph) ApplyMutations([]storage.Mutation) (storage.MutationResult, error) {
	return storage.MutationResult{}, nil
}
func (g *pinGraph) Compact() error { return nil }

func (g *pinGraph) CountLabelID(l storage.SymbolID) int {
	g.liveReads.Add(1)
	return g.Graph.CountLabelID(l)
}
func (g *pinGraph) ForEachVertexID(l storage.SymbolID, fn func(storage.VID) bool) {
	g.liveReads.Add(1)
	g.Graph.ForEachVertexID(l, fn)
}
func (g *pinGraph) ForEachVertexByPropID(l, k storage.SymbolID, val graph.Value, fn func(storage.VID) bool) {
	g.liveReads.Add(1)
	g.Graph.ForEachVertexByPropID(l, k, val, fn)
}
func (g *pinGraph) PlanVertexScan(l storage.SymbolID, parts int) []storage.VertexScan {
	g.liveReads.Add(1)
	return g.Graph.PlanVertexScan(l, parts)
}
func (g *pinGraph) HasLabelID(v storage.VID, l storage.SymbolID) bool {
	g.liveReads.Add(1)
	return g.Graph.HasLabelID(v, l)
}
func (g *pinGraph) PropID(v storage.VID, k storage.SymbolID) (graph.Value, bool) {
	g.liveReads.Add(1)
	return g.Graph.PropID(v, k)
}
func (g *pinGraph) ForEachOutID(v storage.VID, et storage.SymbolID, fn func(storage.EID, storage.VID) bool) {
	g.liveReads.Add(1)
	g.Graph.ForEachOutID(v, et, fn)
}
func (g *pinGraph) ForEachInID(v storage.VID, et storage.SymbolID, fn func(storage.EID, storage.VID) bool) {
	g.liveReads.Add(1)
	g.Graph.ForEachInID(v, et, fn)
}
func (g *pinGraph) DegreeID(v storage.VID, et storage.SymbolID, out bool) int {
	g.liveReads.Add(1)
	return g.Graph.DegreeID(v, et, out)
}

// TestExecPinsOneSnapshot: on a backend that takes live writes, an
// execution acquires exactly one snapshot, releases it, and performs every
// read through it — with one inline morsel as much as with four workers.
// (Before Exec, a one-worker execution acquired a snapshot and then read
// the live store.)
func TestExecPinsOneSnapshot(t *testing.T) {
	mem := memstore.New()
	buildPeopleGraph(t, mem, 200)
	g := &pinGraph{Graph: mem}
	for _, src := range []string{
		`MATCH (a:Person)-[:knows]->(b:Person) WHERE b.age > 3 RETURN a.name, b.name`,
		`MATCH (p:Person)<-[:knows]-(q:Admin) RETURN p.grp, COUNT(*)`,
		`MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 5`,
		`MATCH (p:Person {grp: 'g2'})-[:knows]->(q) RETURN p.name, q.name`,
	} {
		p, err := Prepare(g, cypher.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			g.acquired.Store(0)
			g.released.Store(0)
			g.liveReads.Store(0)
			res, err := collect(p, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%q: no rows; the test would prove nothing", src)
			}
			if a, r := g.acquired.Load(), g.released.Load(); a != 1 || r != 1 {
				t.Errorf("%q with %d workers: %d snapshots acquired, %d released, want 1 and 1", src, workers, a, r)
			}
			if n := g.liveReads.Load(); n != 0 {
				t.Errorf("%q with %d workers: %d reads went to the live store, not the pinned snapshot", src, workers, n)
			}
		}
	}
}

// TestExecOrderByTiesKeepScanOrder pins what ORDER BY does with rows its
// columns cannot tell apart, on one morsel: they keep scan order, and
// under LIMIT the earliest of them win — the result of a stable sort of
// the full result followed by a cut, which is what Execute returned when
// it materialized first. The bounded top-k heap must not change it.
func TestExecOrderByTiesKeepScanOrder(t *testing.T) {
	mem := memstore.New()
	buildPeopleGraph(t, mem, 200) // age = i % 13: heavy ties
	all, err := Run(mem, cypher.MustParse(`MATCH (p:Person) RETURN p.age, p.name`))
	if err != nil {
		t.Fatal(err)
	}
	for _, desc := range []bool{false, true} {
		order, less := "p.age", func(a, b int64) bool { return a < b }
		if desc {
			order, less = "p.age DESC", func(a, b int64) bool { return a > b }
		}
		sorted := append([][]graph.Value(nil), all.Rows...)
		sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i][0].Int(), sorted[j][0].Int()) })
		for _, limit := range []int{-1, 0, 1, 20, 1000} {
			src := `MATCH (p:Person) RETURN p.age, p.name ORDER BY ` + order
			want := sorted
			if limit >= 0 {
				src += " LIMIT " + graph.I(int64(limit)).String()
				want = sorted[:min(limit, len(sorted))]
			}
			got, err := Run(mem, cypher.MustParse(src))
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if !reflect.DeepEqual(rowStrings(got), rowStrings(&Result{Rows: want})) {
				t.Errorf("%q: rows are not the stable sort of the scan order cut at the limit", src)
			}
		}
	}
}
