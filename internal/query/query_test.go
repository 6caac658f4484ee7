package query

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

// buildMedGraph creates the paper's Figure 1(b)-style direct-mapped graph:
//
//	drug1(Aspirin) -treat-> ind1(Fever), ind2(Headache)
//	drug1 -has-> di1(DrugInteraction) <-isA- dfi1, dli1
//	drug2(Ibuprofen) -cause-> risk1(Risk) <-unionOf- ci1(ContraIndication)
func buildMedGraph(t *testing.T, b storage.Builder) map[string]storage.VID {
	t.Helper()
	var g storetest.Batch
	v := map[string]storage.VID{}
	add := func(name string, labels ...string) { v[name] = g.Vertex(labels...) }
	set := func(name, key string, val graph.Value) { g.Prop(v[name], key, val) }
	edge := func(src, dst, etype string) { g.Edge(v[src], v[dst], etype) }
	add("drug1", "Drug")
	set("drug1", "name", graph.S("Aspirin"))
	set("drug1", "brand", graph.S("Ecotrin"))
	add("drug2", "Drug")
	set("drug2", "name", graph.S("Ibuprofen"))
	set("drug2", "brand", graph.S("Motrin"))
	add("ind1", "Indication")
	set("ind1", "desc", graph.S("Fever"))
	add("ind2", "Indication")
	set("ind2", "desc", graph.S("Headache"))
	add("di1", "DrugInteraction")
	set("di1", "summary", graph.S("Delayed aspirin interaction"))
	add("dfi1", "DrugFoodInteraction")
	set("dfi1", "risk", graph.S("moderate"))
	add("dli1", "DrugLabInteraction")
	set("dli1", "mechanism", graph.S("glucose"))
	add("risk1", "Risk")
	add("ci1", "ContraIndication")
	set("ci1", "desc", graph.S("Asthma"))

	edge("drug1", "ind1", "treat")
	edge("drug1", "ind2", "treat")
	edge("drug1", "di1", "has")
	edge("dfi1", "di1", "isA")
	edge("dli1", "di1", "isA")
	edge("drug2", "risk1", "cause")
	edge("ci1", "risk1", "unionOf")
	mustLoad(t, b, &g)
	return v
}

// mustLoad writes g into b, a store that holds nothing, as its one bulk
// load.
func mustLoad(t testing.TB, b storage.Builder, g *storetest.Batch) {
	t.Helper()
	if err := g.Load(b); err != nil {
		t.Fatal(err)
	}
}

// loadMem loads g into a fresh memstore.
func loadMem(t testing.TB, g *storetest.Batch) *memstore.Store {
	t.Helper()
	mem := memstore.New()
	mustLoad(t, mem, g)
	return mem
}

// forEachBackend runs the test body against both storage backends.
func forEachBackend(t *testing.T, body func(t *testing.T, b storage.Builder)) {
	t.Run("memstore", func(t *testing.T) {
		body(t, memstore.New())
	})
	t.Run("diskstore", func(t *testing.T) {
		s, err := diskstore.Open(t.TempDir(), diskstore.Options{PageSize: 512, CachePages: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		body(t, s)
	})
}

func mustRun(t *testing.T, g storage.Graph, src string) *Result {
	t.Helper()
	res, err := Run(g, cypher.MustParse(src))
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return res
}

// collect materializes one execution of p on the given worker count,
// accumulating work counters into st when it is non-nil.
func collect(p *Prepared, workers int, st *Stats) (*Result, error) {
	return Collect(context.Background(), p, ExecOptions{Workers: workers, Stats: st})
}

func rowStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = fmt.Sprint(row)
	}
	return out
}

func TestSingleNodeScan(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b, `MATCH (d:Drug) RETURN d.name ORDER BY d.name`)
		want := []string{`["Aspirin"]`, `["Ibuprofen"]`}
		if got := rowStrings(res); !reflect.DeepEqual(got, want) {
			t.Errorf("rows = %v, want %v", got, want)
		}
	})
}

func TestTwoHopPatternThroughUnionVertex(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b,
			`MATCH (d:Drug)-[:cause]->(r:Risk)<-[:unionOf]-(ci:ContraIndication) RETURN d.name, ci.desc`)
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %v", rowStrings(res))
		}
		if res.Rows[0][0].Str() != "Ibuprofen" || res.Rows[0][1].Str() != "Asthma" {
			t.Errorf("row = %v", res.Rows[0])
		}
	})
}

func TestInverseDirectionMatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		// Same hop written from the other side.
		res := mustRun(t, b, `MATCH (i:Indication)<-[:treat]-(d:Drug) RETURN i.desc ORDER BY i.desc`)
		want := []string{`["Fever"]`, `["Headache"]`}
		if got := rowStrings(res); !reflect.DeepEqual(got, want) {
			t.Errorf("rows = %v, want %v", got, want)
		}
	})
}

func TestParentPropertyLookupViaIsA(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b, `MATCH (dl:DrugLabInteraction)-[:isA]->(di:DrugInteraction) RETURN di.summary`)
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Delayed aspirin interaction" {
			t.Errorf("rows = %v", rowStrings(res))
		}
	})
}

func TestWhereFilters(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b, `MATCH (d:Drug) WHERE d.name = 'Aspirin' RETURN d.brand`)
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Ecotrin" {
			t.Errorf("rows = %v", rowStrings(res))
		}
		res = mustRun(t, b, `MATCH (d:Drug) WHERE d.name <> 'Aspirin' AND NOT d.brand = 'X' RETURN d.name`)
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Ibuprofen" {
			t.Errorf("rows = %v", rowStrings(res))
		}
		// NULL comparisons filter out.
		res = mustRun(t, b, `MATCH (d:Drug) WHERE d.absent = 1 RETURN d.name`)
		if len(res.Rows) != 0 {
			t.Errorf("rows = %v", rowStrings(res))
		}
		// OR with one NULL side still passes when the other is true.
		res = mustRun(t, b, `MATCH (d:Drug) WHERE d.absent = 1 OR d.name = 'Aspirin' RETURN d.name`)
		if len(res.Rows) != 1 {
			t.Errorf("rows = %v", rowStrings(res))
		}
	})
}

func TestInlinePropertyMap(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b, `MATCH (d:Drug {name: 'Aspirin'})-[:treat]->(i:Indication) RETURN i.desc ORDER BY i.desc`)
		want := []string{`["Fever"]`, `["Headache"]`}
		if got := rowStrings(res); !reflect.DeepEqual(got, want) {
			t.Errorf("rows = %v, want %v", got, want)
		}
	})
}

func TestAggregationWithImplicitGrouping(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b,
			`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, COUNT(i.desc) AS n`)
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %v", rowStrings(res))
		}
		if res.Rows[0][0].Str() != "Aspirin" || res.Rows[0][1].Int() != 2 {
			t.Errorf("row = %v", res.Rows[0])
		}
		if res.Columns[1] != "n" {
			t.Errorf("columns = %v", res.Columns)
		}
	})
}

func TestSizeCollect(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b,
			`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN size(COLLECT(i.desc)) AS n`)
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
			t.Errorf("rows = %v", rowStrings(res))
		}
	})
}

func TestCountStarOnEmptyMatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b, `MATCH (x:NoSuchLabel) RETURN COUNT(*)`)
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 {
			t.Errorf("rows = %v", rowStrings(res))
		}
	})
}

func TestSumAvgMinMax(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		var g storetest.Batch
		for i := 1; i <= 4; i++ {
			g.Prop(g.Vertex("N"), "x", graph.I(int64(i)))
		}
		mustLoad(t, b, &g)
		res := mustRun(t, b, `MATCH (n:N) RETURN SUM(n.x), AVG(n.x), MIN(n.x), MAX(n.x)`)
		row := res.Rows[0]
		if row[0].Int() != 10 || row[1].Float() != 2.5 || row[2].Int() != 1 || row[3].Int() != 4 {
			t.Errorf("row = %v", row)
		}
	})
}

func TestCountDistinct(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		var g storetest.Batch
		for i := 0; i < 6; i++ {
			g.Prop(g.Vertex("N"), "x", graph.I(int64(i%2)))
		}
		mustLoad(t, b, &g)
		res := mustRun(t, b, `MATCH (n:N) RETURN COUNT(DISTINCT n.x)`)
		if res.Rows[0][0].Int() != 2 {
			t.Errorf("rows = %v", rowStrings(res))
		}
	})
}

func TestReturnDistinctAndLimit(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b, `MATCH (d:Drug)-[:treat]->(i:Indication) RETURN DISTINCT d.name`)
		if len(res.Rows) != 1 {
			t.Errorf("distinct rows = %v", rowStrings(res))
		}
		res = mustRun(t, b, `MATCH (i:Indication) RETURN i.desc ORDER BY i.desc DESC LIMIT 1`)
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Headache" {
			t.Errorf("rows = %v", rowStrings(res))
		}
	})
}

func TestMultiPatternJoin(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b,
			`MATCH (d:Drug)-[:treat]->(i:Indication), (d)-[:has]->(di:DrugInteraction) RETURN i.desc, di.summary ORDER BY i.desc`)
		if len(res.Rows) != 2 {
			t.Fatalf("rows = %v", rowStrings(res))
		}
		if res.Rows[0][0].Str() != "Fever" {
			t.Errorf("row0 = %v", res.Rows[0])
		}
	})
}

func TestAnonymousNodesAndUntypedRels(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b, `MATCH (d:Drug)-[]->() RETURN COUNT(*)`)
		// drug1: 2 treat + 1 has; drug2: 1 cause.
		if res.Rows[0][0].Int() != 4 {
			t.Errorf("rows = %v", rowStrings(res))
		}
	})
}

func TestRelationshipUniqueness(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		var g storetest.Batch
		g.Edge(g.Vertex("A"), g.Vertex("A"), "r")
		mustLoad(t, b, &g)
		// A 2-hop pattern a-r->b<-r-c must not reuse the single edge for
		// both hops (Cypher relationship isomorphism).
		res := mustRun(t, b, `MATCH (x:A)-[:r]->(y)<-[:r]-(z:A) RETURN COUNT(*)`)
		if res.Rows[0][0].Int() != 0 {
			t.Errorf("edge reused: %v", rowStrings(res))
		}
	})
}

func TestMultiLabelPattern(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		var g storetest.Batch
		g.Prop(g.Vertex("Indication", "Condition"), "desc", graph.S("x"))
		g.Vertex("Indication")
		mustLoad(t, b, &g)
		res := mustRun(t, b, `MATCH (x:Indication:Condition) RETURN COUNT(*)`)
		if res.Rows[0][0].Int() != 1 {
			t.Errorf("rows = %v", rowStrings(res))
		}
	})
}

func TestStatsCounters(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	var st Stats
	q := cypher.MustParse(`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN i.desc`)
	p, err := Prepare(mem, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect(p, 1, &st); err != nil {
		t.Fatal(err)
	}
	if st.EdgesTraversed == 0 || st.VerticesScanned == 0 || st.RowsEmitted != 2 {
		t.Errorf("stats = %+v", st)
	}
	var st2 Stats
	st2.Add(st)
	st2.Add(st)
	if st2.RowsEmitted != 4 {
		t.Errorf("Add: %+v", st2)
	}
}

func TestPlannerStartsAtSmallestLabel(t *testing.T) {
	// 100 Big vertices, 1 Small vertex, one edge: the pattern below must
	// start from Small, so the scan count stays tiny.
	var g storetest.Batch
	for i := 0; i < 100; i++ {
		g.Vertex("Big")
	}
	g.Edge(g.Vertex("Small"), 0, "r")
	mem := loadMem(t, &g)
	var st Stats
	q := cypher.MustParse(`MATCH (b:Big)<-[:r]-(s:Small) RETURN COUNT(*)`)
	p, err := Prepare(mem, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect(p, 1, &st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows = %v", rowStrings(res))
	}
	if st.VerticesScanned > 5 {
		t.Errorf("planner scanned %d vertices, expected to start from Small", st.VerticesScanned)
	}
}

func TestErrorAggregateInWhere(t *testing.T) {
	mem := memstore.New()
	q := cypher.MustParse(`MATCH (a:A) WHERE COUNT(*) > 1 RETURN a`)
	if _, err := Run(mem, q); err == nil {
		t.Error("aggregate in WHERE accepted")
	}
}

func TestErrorMixedAggregateItem(t *testing.T) {
	mem := memstore.New()
	q := cypher.MustParse(`MATCH (a:A) RETURN a.x = COUNT(*)`)
	if _, err := Run(mem, q); err == nil {
		t.Error("mixed aggregate item accepted")
	}
}

func TestErrorOrderByUnknownColumn(t *testing.T) {
	mem := memstore.New()
	q := cypher.MustParse(`MATCH (a:A) RETURN a.x ORDER BY a.y`)
	if _, err := Run(mem, q); err == nil {
		t.Error("ORDER BY non-returned column accepted")
	}
}

func TestOrderByAlias(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		res := mustRun(t, b, `MATCH (i:Indication) RETURN i.desc AS d ORDER BY d DESC`)
		if res.Rows[0][0].Str() != "Headache" {
			t.Errorf("rows = %v", rowStrings(res))
		}
	})
}

func TestBackendsAgreeOnAllQueries(t *testing.T) {
	queries := []string{
		`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc`,
		`MATCH (d:Drug)-[:cause]->(r:Risk)<-[:unionOf]-(ci:ContraIndication) RETURN d.name, ci.desc`,
		`MATCH (dl:DrugLabInteraction)-[:isA]->(di:DrugInteraction) RETURN di.summary`,
		`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, size(COLLECT(i.desc))`,
		`MATCH (d:Drug) WHERE d.name = 'Aspirin' OR d.brand = 'Motrin' RETURN d.name, d.brand`,
		`MATCH (d:Drug)-[]->() RETURN COUNT(*)`,
	}
	mem := memstore.New()
	buildMedGraph(t, mem)
	disk, err := diskstore.Open(t.TempDir(), diskstore.Options{PageSize: 512, CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	buildMedGraph(t, disk)
	for _, src := range queries {
		rm := mustRun(t, mem, src)
		rd := mustRun(t, disk, src)
		SortRowsForComparison(rm.Rows)
		SortRowsForComparison(rd.Rows)
		if !reflect.DeepEqual(rowStrings(rm), rowStrings(rd)) {
			t.Errorf("backend disagreement on %q:\n mem: %v\ndisk: %v", src, rowStrings(rm), rowStrings(rd))
		}
	}
}
