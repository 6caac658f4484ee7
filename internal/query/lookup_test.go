package query

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
)

// buildLookupGraph is buildPeopleGraph plus one property of each other
// value kind: a DOUBLE holding whole numbers, a BOOL and a mixed list.
func buildLookupGraph(t *testing.T, b storage.Builder, n int) {
	t.Helper()
	g := peopleGraph(n)
	for i := 0; i < n; i++ {
		v := storage.VID(i)
		g.Prop(v, "score", graph.F(float64(i%5)*0.5))
		g.Prop(v, "flag", graph.B(i%2 == 0))
		g.Prop(v, "tags", graph.L(graph.I(int64(i%3)), graph.S("t")))
	}
	mustLoad(t, b, g)
}

// lookupShapes are property-rooted queries; lookupLists adds list-valued
// root constraints, which the grammar has no literal for.
var lookupShapes = []string{
	`MATCH (p:Person {grp: 'g3'}) RETURN p.name`,
	`MATCH (p:Person {grp: 'g3', age: 5}) RETURN p.name, p.age`,
	`MATCH (p:Person:Admin {age: 4}) RETURN p.name`,
	`MATCH (a:Person {grp: 'g1'})-[:knows]->(b)-[:knows]->(a) RETURN a.name, b.name`,
	`MATCH (a:Person {age: 3})-[:knows]->(b:Person) RETURN a.name, b.name`,
	`MATCH (p:Person {grp: 'nope'}) RETURN p.name`,
	`MATCH (p:Person {noSuchKey: 1}) RETURN p.name`,
	`MATCH (p:Person {grp: 'g2'}) RETURN p.name LIMIT 3`,
	`MATCH (p:Person {score: 1}) RETURN p.name, p.score`,
	`MATCH (p:Person {age: 5.0}) RETURN p.name`,
	`MATCH (p:Person {flag: true, grp: 'g6'}) RETURN p.name`,
	`MATCH (p:Person {grp: 'g4'}) RETURN COUNT(*), SUM(p.age)`,
}

var lookupLists = []graph.Value{
	graph.L(graph.I(1), graph.S("t")),
	graph.L(graph.F(2), graph.S("t")),
	graph.L(graph.I(9), graph.S("t")),
}

// whereForm moves every inline property constraint of q into WHERE, which
// compiles to a plain label scan filtered at the emit step.
func whereForm(q *cypher.Query) *cypher.Query {
	w := q.Clone()
	for _, pat := range w.Patterns {
		for _, n := range pat.Nodes {
			keys := make([]string, 0, len(n.Props))
			for k := range n.Props {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				eq := &cypher.Binary{Op: cypher.OpEq, L: &cypher.PropAccess{Var: n.Var, Key: k}, R: &cypher.Literal{Val: n.Props[k]}}
				if w.Where == nil {
					w.Where = eq
				} else {
					w.Where = &cypher.Binary{Op: cypher.OpAnd, L: w.Where, R: eq}
				}
			}
			n.Props = nil
		}
	}
	return w
}

// checkLookupMatchesScan runs every lookup shape and its WHERE form on g:
// the same rows in the same order, the root served by a lookup on one
// side and a scan of the same label on the other.
func checkLookupMatchesScan(t *testing.T, g storage.Graph) {
	t.Helper()
	var queries []*cypher.Query
	for _, src := range lookupShapes {
		queries = append(queries, cypher.MustParse(src))
	}
	for _, list := range lookupLists {
		q := cypher.MustParse(`MATCH (p:Person {grp: 'g0'}) RETURN p.name, p.tags`)
		q.Patterns[0].Nodes[0].Props["tags"] = list
		queries = append(queries, q)
	}
	for _, q := range queries {
		// The lookup root is serial whatever Workers says; the reference
		// must be told, or its label scan splits into morsels.
		lookup, lookupProf := runProfiled(t, g, q, 4)
		scan, scanProf := runProfiled(t, g, whereForm(q), 1)
		if got, want := rowStrings(lookup), rowStrings(scan); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: lookup rows %v, label-scan rows %v", q, got, want)
		}
		first, ref := lookupProf.Steps[0], scanProf.Steps[0]
		if first.Op != "lookup" || lookupProf.Parallel || ref.Op != "scan" || first.Target[:len(ref.Target)] != ref.Target {
			t.Errorf("%s: root steps %+v vs %+v, want a serial lookup and a scan of one label", q, first, ref)
		}
	}
}

func runProfiled(t *testing.T, g storage.Graph, q *cypher.Query, workers int) (*Result, *Profile) {
	t.Helper()
	p, err := Prepare(g, q)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", q, err)
	}
	var prof Profile
	res, err := Collect(context.Background(), p, ExecOptions{Workers: workers, Profile: &prof})
	if err != nil {
		t.Fatalf("Exec(%s): %v", q, err)
	}
	return res, &prof
}

// TestLookupMatchesLabelScan: a property-rooted plan, whose root the store
// serves through ForEachVertexByPropID, returns exactly the rows — order
// included — of the same query filtering a label scan in WHERE, on every
// backend state that answers the lookup differently: memstore (its value
// index), and diskstore (a filtered label scan) as loaded and live, with a
// delta that overrides base values and adds vertices.
func TestLookupMatchesLabelScan(t *testing.T) {
	const n = 300
	t.Run("memstore", func(t *testing.T) {
		s := memstore.New()
		buildLookupGraph(t, s, n)
		t.Run("finalized", func(t *testing.T) { checkLookupMatchesScan(t, s) })
	})
	t.Run("diskstore", func(t *testing.T) {
		s, err := diskstore.Open(t.TempDir(), diskstore.Options{PageSize: 512, CachePages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		buildLookupGraph(t, s, n)
		if !s.Live() {
			t.Fatal("finalized diskstore did not enter live mode")
		}
		t.Run("finalized", func(t *testing.T) { checkLookupMatchesScan(t, s) })
		// Live writes: override base values the shapes look up, and add
		// matching vertices past the base.
		var muts []storage.Mutation
		for i, w := range []struct {
			key string
			val graph.Value
		}{{"grp", graph.S("g3")}, {"age", graph.I(5)}, {"score", graph.I(1)}, {"tags", lookupLists[0]}} {
			muts = append(muts, storage.Mutation{Op: storage.MutSetProp, V: storage.VID(i*7 + 1), Key: w.key, Value: w.val})
		}
		for i := 0; i < 3; i++ {
			muts = append(muts,
				storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"Person"}},
				storage.Mutation{Op: storage.MutSetProp, V: storage.VID(-i - 1), Key: "name", Value: graph.S(fmt.Sprintf("late%d", i))},
				storage.Mutation{Op: storage.MutSetProp, V: storage.VID(-i - 1), Key: "grp", Value: graph.S("g3")},
				storage.Mutation{Op: storage.MutSetProp, V: storage.VID(-i - 1), Key: "age", Value: graph.F(5)},
			)
		}
		if _, err := s.ApplyMutations(muts); err != nil {
			t.Fatal(err)
		}
		t.Run("live", func(t *testing.T) { checkLookupMatchesScan(t, s) })
	})
}
