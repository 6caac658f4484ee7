package repro

import (
	"fmt"
	"testing"

	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/ontology"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage/memstore"
	"repro/internal/workload"
)

func TestFacadeOptimizeMED(t *testing.T) {
	o := MED()
	plan, err := Optimize(o, nil, nil, DefaultConfig(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != "NSC" || len(plan.Result.PGS.Nodes) == 0 {
		t.Errorf("plan = %s with %d nodes", plan.Algorithm, len(plan.Result.PGS.Nodes))
	}
	dir, err := Direct(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(dir.Result.PGS.Nodes) != len(o.Concepts) {
		t.Error("DIR node count mismatch")
	}
}

func TestFacadeLoadRoundTrip(t *testing.T) {
	o := FIN()
	ds, err := GenerateData(o, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	st := memstore.New()
	v, e, err := Load(st, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != ds.NumInstances() || e != ds.NumLinks() {
		t.Errorf("loaded %d/%d, want %d/%d", v, e, ds.NumInstances(), ds.NumLinks())
	}
}

// TestEndToEndEquivalence is the repository's capstone invariant: for
// random ontologies and datasets, every generated workload query returns
// the same answer on the DIR graph as its rewrite does on the OPT graph
// (aggregates compare by total, localized lookups by value multiset).
func TestEndToEndEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			o := ontology.RandomOntology(seed, 7, 12)
			wl, err := workload.Generate(o, 12, workload.Uniform, seed)
			if err != nil {
				t.Skip("no motifs for this ontology")
			}
			plan, err := Optimize(o, nil, wl.AF, DefaultConfig(), -1)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := GenerateData(o, seed, 30)
			if err != nil {
				t.Fatal(err)
			}
			dir, opt := memstore.New(), memstore.New()
			if _, _, err := Load(dir, ds, nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Load(opt, ds, plan.Result.Mapping); err != nil {
				t.Fatal(err)
			}
			for _, q := range wl.Queries {
				parsed, err := cypher.Parse(q.Text)
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				rw, _, err := rewrite.Rewrite(parsed, plan.Result.Mapping, rewrite.Options{LocalizeScalarLookups: q.Localize})
				if err != nil {
					t.Fatalf("%s rewrite: %v", q.Name, err)
				}
				rd, err := query.Run(dir, parsed)
				if err != nil {
					t.Fatalf("%s DIR: %v", q.Name, err)
				}
				ro, err := query.Run(opt, rw)
				if err != nil {
					t.Fatalf("%s OPT (%s): %v", q.Name, rw, err)
				}
				if !equivalent(q, rd, ro) {
					t.Errorf("%s results differ\n  DIR q: %s (%d rows)\n  OPT q: %s (%d rows)",
						q.Name, parsed, len(rd.Rows), rw, len(ro.Rows))
				}
			}
		})
	}
}

// TestScalarReadsSurviveMerges: a merge never loses a scalar value. For
// every (concept, property) of MED and FIN, `MATCH (x:C) RETURN x.p`
// returns the same row multiset on the DIR graph as its rewrite does on
// the OPT graph, under every optimizer at a sweep of space budgets and
// under NSC — including the mappings that merge two concepts declaring
// one property name, whose values the loader keeps under qualified keys.
func TestScalarReadsSurviveMerges(t *testing.T) {
	for _, set := range []struct {
		name string
		o    *ontology.Ontology
	}{{"MED", datagen.MED()}, {"FIN", datagen.FIN()}} {
		ds, err := datagen.Generate(set.o, datagen.Options{Seed: 7, BaseCard: 20})
		if err != nil {
			t.Fatal(err)
		}
		af, err := workload.AFFromQueries(set.o, workload.MicrobenchmarkFor(set.name))
		if err != nil {
			t.Fatal(err)
		}
		in, err := optimizer.NewInputs(set.o, ds.Stats, af, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		total, err := in.NSCCost()
		if err != nil {
			t.Fatal(err)
		}
		plans := map[string]*optimizer.Plan{}
		for _, alg := range []struct {
			name string
			run  func(*optimizer.Inputs, float64) (*optimizer.Plan, error)
		}{{"RC", optimizer.RelationCentric}, {"CC", optimizer.ConceptCentric}, {"PGSG", optimizer.PGSG}} {
			for _, pct := range []int{10, 25, 50, 75, 100} {
				if plans[fmt.Sprintf("%s %d%%", alg.name, pct)], err = alg.run(in, total*float64(pct)/100); err != nil {
					t.Fatal(err)
				}
			}
		}
		if plans["NSC"], err = optimizer.NSC(in); err != nil {
			t.Fatal(err)
		}
		dir := memstore.New()
		if _, _, err := Load(dir, ds, nil); err != nil {
			t.Fatal(err)
		}
		qualified := 0
		for name, plan := range plans {
			m := plan.Result.Mapping
			qualified += len(m.ScalarKeys)
			opt := memstore.New()
			if _, _, err := Load(opt, ds, m); err != nil {
				t.Fatalf("%s %s: %v", set.name, name, err)
			}
			for _, c := range set.o.Concepts {
				for _, p := range c.Props {
					q := cypher.MustParse(fmt.Sprintf("MATCH (x:%s) RETURN x.%s", c.Name, p.Name))
					rw, _, err := rewrite.Rewrite(q, m, rewrite.Options{})
					if err != nil {
						t.Fatal(err)
					}
					rd, err := query.Run(dir, q)
					if err != nil {
						t.Fatal(err)
					}
					ro, err := query.Run(opt, rw)
					if err != nil {
						t.Fatal(err)
					}
					if !sameRows(rd, ro) {
						t.Errorf("%s %s: %s returns %d rows on DIR and %d different ones on OPT (%s)", set.name, name, q, len(rd.Rows), len(ro.Rows), rw)
					}
				}
			}
		}
		if qualified == 0 {
			t.Errorf("%s: no mapping qualified a key; the sweep checks no merge that collides", set.name)
		}
	}
}

// sameRows compares two results as row multisets.
func sameRows(a, b *query.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	query.SortRowsForComparison(a.Rows)
	query.SortRowsForComparison(b.Rows)
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !a.Rows[i][j].Equal(b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// equivalent compares results according to the query kind's rewrite
// contract.
func equivalent(q workload.Query, dir, opt *query.Result) bool {
	switch {
	case q.Kind == workload.Aggregation:
		// Global aggregate: DIR has one total row; the localized form has
		// one row per carrier vertex whose sizes sum to the same total.
		return sumInts(dir) == sumInts(opt)
	case q.Localize:
		// Localized lookup: rows flatten to the same value multiset.
		return multiset(dir) == multiset(opt)
	default:
		return sameRows(dir, opt)
	}
}

func sumInts(r *query.Result) int64 {
	var t int64
	for _, row := range r.Rows {
		for _, v := range row {
			t += v.Int()
		}
	}
	return t
}

func multiset(r *query.Result) string {
	counts := map[string]int{}
	var flatten func(v graph.Value)
	flatten = func(v graph.Value) {
		if v.Kind() == graph.KindList {
			for _, e := range v.List() {
				flatten(e)
			}
			return
		}
		if !v.IsNull() {
			counts[v.Key()]++
		}
	}
	for _, row := range r.Rows {
		for _, v := range row {
			flatten(v)
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	// Deterministic rendering.
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%d;", k, counts[k])
	}
	return out
}
