package query

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

// Additional executor edge cases beyond the main battery.

func TestLimitZero(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	res := mustRun(t, mem, `MATCH (d:Drug) RETURN d.name LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Errorf("LIMIT 0 returned %d rows", len(res.Rows))
	}
}

func TestOrderByNullsLast(t *testing.T) {
	var g storetest.Batch
	for i := 0; i < 3; i++ {
		v := g.Vertex("N")
		if i != 1 { // leave one vertex without the property
			g.Prop(v, "x", graph.I(int64(i)))
		}
	}
	mem := loadMem(t, &g)
	res := mustRun(t, mem, `MATCH (n:N) RETURN n.x ORDER BY n.x`)
	if !res.Rows[len(res.Rows)-1][0].IsNull() {
		t.Errorf("NULL not sorted last: %v", res.Rows)
	}
}

func TestCollectSkipsNulls(t *testing.T) {
	var g storetest.Batch
	for i := 0; i < 4; i++ {
		v := g.Vertex("N")
		if i%2 == 0 {
			g.Prop(v, "x", graph.I(int64(i)))
		}
	}
	mem := loadMem(t, &g)
	res := mustRun(t, mem, `MATCH (n:N) RETURN size(COLLECT(n.x))`)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("COLLECT kept nulls: %v", res.Rows)
	}
}

func TestAvgOverEmptyGroupIsNull(t *testing.T) {
	var g storetest.Batch
	g.Vertex("N")
	mem := loadMem(t, &g)
	res := mustRun(t, mem, `MATCH (n:N) RETURN AVG(n.absent)`)
	if !res.Rows[0][0].IsNull() {
		t.Errorf("AVG over no values = %v, want null", res.Rows[0][0])
	}
}

func TestSizeOfString(t *testing.T) {
	var g storetest.Batch
	g.Prop(g.Vertex("N"), "s", graph.S("hello"))
	mem := loadMem(t, &g)
	res := mustRun(t, mem, `MATCH (n:N) RETURN size(n.s)`)
	if res.Rows[0][0].Int() != 5 {
		t.Errorf("size(string) = %v", res.Rows[0][0])
	}
}

func TestSelfLoopMatching(t *testing.T) {
	// Merged graphs can contain self-loops; a two-node pattern may bind
	// both variables to the same vertex (Cypher only forbids edge reuse).
	var g storetest.Batch
	v := g.Vertex("N")
	g.Edge(v, v, "r")
	mem := loadMem(t, &g)
	res := mustRun(t, mem, `MATCH (a:N)-[:r]->(b:N) RETURN COUNT(*)`)
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("self-loop rows = %v", res.Rows[0][0])
	}
}

func TestParallelEdgesProduceDistinctRows(t *testing.T) {
	var g storetest.Batch
	a, b := g.Vertex("A"), g.Vertex("B")
	for i := 0; i < 3; i++ {
		g.Edge(a, b, "r")
	}
	mem := loadMem(t, &g)
	res := mustRun(t, mem, `MATCH (a:A)-[:r]->(b:B) RETURN COUNT(*)`)
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("parallel edges rows = %v, want 3", res.Rows[0][0])
	}
}

func TestGroupingByNullKey(t *testing.T) {
	var g storetest.Batch
	for i := 0; i < 3; i++ {
		v := g.Vertex("N")
		if i == 0 {
			g.Prop(v, "g", graph.S("x"))
		}
	}
	mem := loadMem(t, &g)
	res := mustRun(t, mem, `MATCH (n:N) RETURN n.g, COUNT(*)`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	total := int64(0)
	for _, row := range res.Rows {
		total += row[1].Int()
	}
	if total != 3 {
		t.Errorf("group counts sum to %d, want 3", total)
	}
}

func TestLongChainPattern(t *testing.T) {
	var g storetest.Batch
	const n = 6
	ids := make([]storage.VID, n)
	for i := range ids {
		ids[i] = g.Vertex("N")
		g.Prop(ids[i], "i", graph.I(int64(i)))
	}
	for i := 0; i+1 < n; i++ {
		g.Edge(ids[i], ids[i+1], "next")
	}
	mem := loadMem(t, &g)
	res := mustRun(t, mem,
		`MATCH (a:N)-[:next]->(b:N)-[:next]->(c:N)-[:next]->(d:N)-[:next]->(e:N) RETURN a.i, e.i`)
	if len(res.Rows) != 2 {
		t.Fatalf("chain rows = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if row[1].Int()-row[0].Int() != 4 {
			t.Errorf("chain endpoints %v", row)
		}
	}
}
