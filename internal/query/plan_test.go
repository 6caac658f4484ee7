package query

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
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
			res, err := Collect(context.Background(), p, ExecOptions{})
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
// compiled executor: per binding, per result row and per aggregated value
// the allocation count must stay (amortized) at zero — the plan's slot
// array, edge stack, key buffer and lent row absorb everything, leaving
// only the handful of fixed per-execution allocations, plus the blocks a
// *Result copies the rows it keeps into.
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

	// slack is how far two counts of the same fixed cost may drift: none,
	// except under the race detector (see raceEnabled).
	slack := 0.0
	if raceEnabled {
		slack = 8
	}
	// allocsAt prepares src over the people graph of n vertices and
	// counts the allocations of one execution into sink (a fresh *Result
	// when sink is nil).
	allocsAt := func(t *testing.T, n int, src string, sink Sink) float64 {
		mem := memstore.New()
		buildPeopleGraph(t, mem, n)
		p, err := Prepare(mem, cypher.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		return testing.AllocsPerRun(50, func() {
			var err error
			if sink == nil {
				_, err = Collect(context.Background(), p, ExecOptions{Stats: &st})
			} else {
				err = p.Exec(context.Background(), ExecOptions{Stats: &st}, sink)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("lent rows", func(t *testing.T) {
		// A sink that keeps nothing costs the executor nothing per row.
		const src = `MATCH (p:Person) RETURN p.name, p.age`
		discard := sinkFunc(func([]graph.Value) error { return nil })
		small, large := allocsAt(t, 10, src, discard), allocsAt(t, 1000, src, discard)
		t.Logf("%.0f allocs at 10 rows, %.0f at 1000", small, large)
		if large > small+slack {
			t.Errorf("projection into a discarding sink: %.0f allocs at 1000 rows, %.0f at 10, want equal", large, small)
		}
	})

	t.Run("size of COLLECT", func(t *testing.T) {
		// Seven groups either way: 10 or 1000 values per group.
		const src = `MATCH (p:Person) RETURN p.grp, size(COLLECT(p.name))`
		small, large := allocsAt(t, 70, src, nil), allocsAt(t, 7000, src, nil)
		t.Logf("%.0f allocs at 10 values per group, %.0f at 1000", small, large)
		if large > small+slack {
			t.Errorf("grouped size(COLLECT): %.0f allocs at 1000 values per group, %.0f at 10, want equal", large, small)
		}
	})

	t.Run("Collect blocks", func(t *testing.T) {
		// A kept row costs a share of a block, not an allocation: about
		// one more allocation per 64 rows at most.
		const src = `MATCH (p:Person) RETURN p.name, p.age`
		small, large := allocsAt(t, 10, src, nil), allocsAt(t, 1000, src, nil)
		t.Logf("%.0f allocs at 10 rows, %.0f at 1000", small, large)
		if extra := large - small; extra > 1000/64+slack {
			t.Errorf("Collect: %.0f allocs at 1000 rows, %.0f at 10: %.0f extra, want <= %d", large, small, extra, 1000/64)
		}
	})
}

// readCountGraph counts HasLabelID calls per label and PropID calls per
// key.
type readCountGraph struct {
	storage.Graph
	mu     sync.Mutex
	labels map[storage.SymbolID]int
	keys   map[storage.SymbolID]int
}

func (g *readCountGraph) HasLabelID(v storage.VID, l storage.SymbolID) bool {
	g.mu.Lock()
	g.labels[l]++
	g.mu.Unlock()
	return g.Graph.HasLabelID(v, l)
}

func (g *readCountGraph) PropID(v storage.VID, k storage.SymbolID) (graph.Value, bool) {
	g.mu.Lock()
	g.keys[k]++
	g.mu.Unlock()
	return g.Graph.PropID(v, k)
}

// TestRootSkipsWhatItsIteratorGuarantees: a root move does not re-check
// what the store's iterator already guarantees — a label scan its label,
// a lookup its label and the value it looked up — and still checks the
// rest of the node's constraints.
func TestRootSkipsWhatItsIteratorGuarantees(t *testing.T) {
	mem := memstore.New()
	buildLookupGraph(t, mem, 200)
	g := &readCountGraph{Graph: mem}
	person, admin := mem.LabelID("Person"), mem.LabelID("Admin")
	age, grp := mem.KeyID("age"), mem.KeyID("grp")
	for _, tc := range []struct {
		src string
		// zero are reads the root must not make; some are reads it must.
		zeroLabels, someLabels []storage.SymbolID
		zeroKeys, someKeys     []storage.SymbolID
	}{
		// Admin is the rarer label, so it is scanned; age is the first
		// constraint key, so it is the probe.
		{src: `MATCH (p:Person:Admin {age: 5, grp: 'g3'}) RETURN p.name`,
			zeroLabels: []storage.SymbolID{admin}, someLabels: []storage.SymbolID{person},
			zeroKeys: []storage.SymbolID{age}, someKeys: []storage.SymbolID{grp}},
		{src: `MATCH (p:Person {age: 5}) RETURN COUNT(*)`,
			zeroLabels: []storage.SymbolID{person}, zeroKeys: []storage.SymbolID{age}},
		{src: `MATCH (p:Person) RETURN COUNT(*)`, zeroLabels: []storage.SymbolID{person}},
		{src: `MATCH (p:Person:Admin) RETURN COUNT(*)`,
			zeroLabels: []storage.SymbolID{admin}, someLabels: []storage.SymbolID{person}},
	} {
		for _, workers := range []int{1, 4} {
			p := mustPrepare(t, g, cypher.MustParse(tc.src))
			want, err := collect(mustPrepare(t, mem, whereForm(cypher.MustParse(tc.src))), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			g.labels, g.keys = map[storage.SymbolID]int{}, map[storage.SymbolID]int{}
			got, err := collect(p, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rowStrings(got), rowStrings(want)) {
				t.Errorf("%s, %d workers: rows %v, want the WHERE form's %v", tc.src, workers, rowStrings(got), rowStrings(want))
			}
			for _, l := range tc.zeroLabels {
				if n := g.labels[l]; n != 0 {
					t.Errorf("%s, %d workers: %d HasLabelID calls for the scanned label %d", tc.src, workers, n, l)
				}
			}
			for _, l := range tc.someLabels {
				if g.labels[l] == 0 {
					t.Errorf("%s, %d workers: label %d was never checked", tc.src, workers, l)
				}
			}
			for _, k := range tc.zeroKeys {
				if n := g.keys[k]; n != 0 {
					t.Errorf("%s, %d workers: %d PropID calls for the looked-up key %d", tc.src, workers, n, k)
				}
			}
			for _, k := range tc.someKeys {
				if g.keys[k] == 0 {
					t.Errorf("%s, %d workers: key %d was never checked", tc.src, workers, k)
				}
			}
		}
	}
}
