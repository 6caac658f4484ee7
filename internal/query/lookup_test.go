package query

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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
	`MATCH (p:Person {name: 'late1'}) RETURN p.name, p.grp`,
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
				eq := &cypher.Binary{Op: cypher.OpEq, L: &cypher.PropAccess{Var: n.Var, Key: k}, R: n.Props[k]}
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

// lookupPair is one lookup shape compiled twice: as written, and in its
// WHERE form, whose root is a scan of the same label.
type lookupPair struct {
	q            *cypher.Query
	lookup, scan *Prepared
}

// prepareLookupShapes compiles every lookup shape and its WHERE form
// against g.
func prepareLookupShapes(t *testing.T, g storage.Graph) []lookupPair {
	t.Helper()
	var queries []*cypher.Query
	for _, src := range lookupShapes {
		queries = append(queries, cypher.MustParse(src))
	}
	for _, list := range lookupLists {
		q := cypher.MustParse(`MATCH (p:Person {grp: 'g0'}) RETURN p.name, p.tags`)
		q.Patterns[0].Nodes[0].Props["tags"] = &cypher.Literal{Val: list}
		queries = append(queries, q)
	}
	pairs := make([]lookupPair, len(queries))
	for i, q := range queries {
		pairs[i] = lookupPair{q: q, lookup: mustPrepare(t, g, q), scan: mustPrepare(t, g, whereForm(q))}
	}
	return pairs
}

func mustPrepare(t *testing.T, g storage.Graph, q *cypher.Query) *Prepared {
	t.Helper()
	p, err := Prepare(g, q)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", q, err)
	}
	return p
}

// checkLookupMatchesScan runs every pair: the same rows in the same
// order, the root served by a lookup on one side and a scan of the same
// label on the other. The two sides are two executions. Where a fold may
// commit between them, gen reads the base generation before and after the
// pair, and a pair that saw a commit runs again, since two generations may
// order a scan differently. gen is nil where the generation stays put.
func checkLookupMatchesScan(t *testing.T, pairs []lookupPair, gen func() int64) {
	t.Helper()
	for _, pr := range pairs {
		var lookup, scan *Result
		var lookupProf, scanProf *Profile
		for {
			var before int64
			if gen != nil {
				before = gen()
			}
			// The lookup root is serial whatever Workers says; the
			// reference must be told, or its label scan splits into
			// morsels.
			lookup, lookupProf = runProfiled(t, pr.lookup, 4)
			scan, scanProf = runProfiled(t, pr.scan, 1)
			if gen == nil || gen() == before {
				break
			}
		}
		if got, want := rowStrings(lookup), rowStrings(scan); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: lookup rows %v, label-scan rows %v", pr.q, got, want)
		}
		first, ref := lookupProf.Steps[0], scanProf.Steps[0]
		if first.Op != "lookup" || lookupProf.Parallel || ref.Op != "scan" || first.Target[:len(ref.Target)] != ref.Target {
			t.Errorf("%s: root steps %+v vs %+v, want a serial lookup and a scan of one label", pr.q, first, ref)
		}
	}
}

func runProfiled(t *testing.T, p *Prepared, workers int) (*Result, *Profile) {
	t.Helper()
	var prof Profile
	res, err := Collect(context.Background(), p, ExecOptions{Workers: workers, Profile: &prof})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	return res, &prof
}

// TestLookupMatchesLabelScan: a property-rooted plan, whose root the store
// serves through ForEachVertexByPropID, returns exactly the rows — order
// included — of the same query filtering a label scan in WHERE, on every
// backend state that answers the lookup differently: memstore (its value
// index), and diskstore (its generation's postings under the live delta)
// as loaded; live, with a delta that adds a label to a base vertex
// holding a looked-up value, overrides base values to and away from
// them, and adds vertices; through a snapshot pinned before those
// writes; while a fold runs; and reopened with its index file and
// without it. On the live store the plans compiled before the write run
// too: they must find values that did not exist when they were compiled
// ('late1').
func TestLookupMatchesLabelScan(t *testing.T) {
	const n = 300
	t.Run("memstore", func(t *testing.T) {
		s := memstore.New()
		buildLookupGraph(t, s, n)
		t.Run("finalized", func(t *testing.T) { checkLookupMatchesScan(t, prepareLookupShapes(t, s), nil) })
	})
	t.Run("diskstore", func(t *testing.T) {
		dir := t.TempDir()
		opts := diskstore.Options{PageSize: 512, CachePages: 64}
		s, err := diskstore.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		buildLookupGraph(t, s, n)
		if !s.Live() {
			t.Fatal("finalized diskstore did not enter live mode")
		}
		before := prepareLookupShapes(t, s)
		t.Run("finalized", func(t *testing.T) { checkLookupMatchesScan(t, before, nil) })
		snap := s.AcquireSnapshot()
		defer snap.Release()
		// Live writes: override base values the shapes look up, to them
		// and away from them (vertex 3 leaves g3), give vertex 4 (age 4)
		// the Admin label, and add matching vertices past the base.
		var muts []storage.Mutation
		for i, w := range []struct {
			key string
			val graph.Value
		}{{"grp", graph.S("g3")}, {"age", graph.I(5)}, {"score", graph.I(1)}, {"tags", lookupLists[0]}} {
			muts = append(muts, storage.Mutation{Op: storage.MutSetProp, V: storage.VID(i*7 + 1), Key: w.key, Value: w.val})
		}
		muts = append(muts,
			storage.Mutation{Op: storage.MutSetProp, V: 3, Key: "grp", Value: graph.S("g9")},
			storage.Mutation{Op: storage.MutAddLabel, V: 4, Label: "Admin"},
		)
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
		t.Run("live", func(t *testing.T) {
			checkLookupMatchesScan(t, prepareLookupShapes(t, s), nil)
			checkLookupMatchesScan(t, before, nil)
		})
		t.Run("snapshot pinned before the writes", func(t *testing.T) {
			checkLookupMatchesScan(t, prepareLookupShapes(t, snap), nil)
		})
		t.Run("during a fold", func(t *testing.T) {
			gen := func() int64 { return s.LiveStats().Generation }
			done := make(chan error, 1)
			go func() { done <- s.Compact() }()
			for {
				checkLookupMatchesScan(t, before, gen)
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					checkLookupMatchesScan(t, before, nil)
					return
				default:
				}
			}
		})
		snap.Release()
		reopen := func(t *testing.T, keepIndex bool) {
			gen := s.Format().Generation
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if !keepIndex {
				if err := os.Remove(filepath.Join(dir, fmt.Sprintf("index.db.g%d", gen))); err != nil {
					t.Fatal(err)
				}
			}
			if s, err = diskstore.Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			if got := s.Format().IndexLoaded; got != keepIndex {
				t.Errorf("reopen loaded the index file: %v, want %v", got, keepIndex)
			}
			checkLookupMatchesScan(t, prepareLookupShapes(t, s), nil)
		}
		t.Run("reopened with index.db", func(t *testing.T) { reopen(t, true) })
		t.Run("reopened without index.db", func(t *testing.T) { reopen(t, false) })
	})
}

// TestBloomProbeHonorsLiveWrites checks that a plan whose root is a
// property lookup, compiled before a value was written on a live
// diskstore, finds that value when run after the write.
func TestBloomProbeHonorsLiveWrites(t *testing.T) {
	s, err := diskstore.Open(t.TempDir(), diskstore.Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buildMedGraph(t, s)
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !s.Live() {
		t.Fatal("finalized diskstore did not enter live mode")
	}

	src := `MATCH (d:Drug {name: 'Nabumetone'}) RETURN d.name`
	p, err := Prepare(s, cypher.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Collect(context.Background(), p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Fatalf("value not yet written matched rows: %v", rowStrings(r))
	}

	res, err := s.ApplyMutations([]storage.Mutation{
		{Op: storage.MutAddVertex, Labels: []string{"Drug"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyMutations([]storage.Mutation{
		{Op: storage.MutSetProp, V: res.Vertices[0], Key: "name", Value: graph.S("Nabumetone")},
	}); err != nil {
		t.Fatal(err)
	}
	r, err = Collect(context.Background(), p, ExecOptions{}) // same compiled plan, run after the write
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(r); len(got) != 1 || got[0] != `["Nabumetone"]` {
		t.Fatalf("live-written value not found through compiled plan: %v", got)
	}
}
