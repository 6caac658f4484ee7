package query

import (
	"reflect"
	"testing"

	"repro/internal/cypher"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

func TestPreparedPlanIsReusable(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		p, err := Prepare(b, cypher.MustParse(
			`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc ORDER BY i.desc`))
		if err != nil {
			t.Fatal(err)
		}
		var first []string
		for run := 0; run < 3; run++ {
			res, err := p.Execute()
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			got := rowStrings(res)
			if run == 0 {
				first = got
				if len(first) != 2 {
					t.Fatalf("rows = %v", first)
				}
				continue
			}
			if !reflect.DeepEqual(got, first) {
				t.Errorf("run %d rows = %v, want %v", run, got, first)
			}
		}
	})
}

// buildTwoHopGraph wires fanout² two-hop paths: A -r-> 10×B -s-> 10×C per
// B, giving fanout² complete bindings per A vertex.
func buildTwoHopGraph(t testing.TB, mem *memstore.Store, fanout int) int {
	var g storetest.Batch
	a := g.Vertex("A")
	bindings := 0
	for i := 0; i < fanout; i++ {
		bv := g.Vertex("B")
		g.Edge(a, bv, "r")
		for j := 0; j < fanout; j++ {
			g.Edge(bv, g.Vertex("C"), "s")
			bindings++
		}
	}
	mustLoad(t, mem, &g)
	return bindings
}

// TestCompiledExecutionAllocs is the allocation regression gate for the
// compiled executor: on a two-hop match the per-binding allocation count
// must stay (amortized) at zero — the plan's slot array, edge stack, and
// key buffer absorb everything, leaving only the handful of fixed per-
// execution allocations (result, row, group bookkeeping).
func TestCompiledExecutionAllocs(t *testing.T) {
	mem := memstore.New()
	bindings := buildTwoHopGraph(t, mem, 12) // 144 bindings per execution
	p, err := Prepare(mem, cypher.MustParse(`MATCH (a:A)-[:r]->(b:B)-[:s]->(c:C) RETURN COUNT(*)`))
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	res, err := collect(p, 1, &st)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != int64(bindings) {
		t.Fatalf("COUNT(*) = %d, want %d", got, bindings)
	}
	perExec := testing.AllocsPerRun(20, func() {
		if _, err := collect(p, 1, &st); err != nil {
			t.Fatal(err)
		}
	})
	// ~6 fixed allocations per execution; the bound leaves headroom for
	// runtime jitter while still catching any per-binding regression
	// (which would cost >= bindings allocations).
	if perExec > 16 {
		t.Errorf("compiled execution did %.0f allocs over %d bindings, want <= 16 total", perExec, bindings)
	}
}
