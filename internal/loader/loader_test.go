package loader

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
)

func medOntology() *ontology.Ontology { return datagen.MED() }

func genData(t *testing.T, o *ontology.Ontology, card int) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(o, datagen.Options{Seed: 7, BaseCard: card})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDirectLoadCounts(t *testing.T) {
	o := medOntology()
	ds := genData(t, o, 20)
	mem := memstore.New()
	v, e, err := Load(mem, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != ds.NumInstances() {
		t.Errorf("DIR vertices = %d, want %d (one per instance)", v, ds.NumInstances())
	}
	if e != ds.NumLinks() {
		t.Errorf("DIR edges = %d, want %d (one per link)", e, ds.NumLinks())
	}
	if mem.NumVertices() != v || mem.NumEdges() != e {
		t.Error("store counts disagree with loader counts")
	}
	// DIR keeps isA/unionOf instance edges.
	found := false
	mem.ForEachVertex("DrugFoodInteraction", func(id storage.VID) bool {
		mem.ForEachOut(id, "isA", func(_ storage.EID, dst storage.VID) bool {
			if mem.HasLabel(dst, "DrugInteraction") {
				found = true
			}
			return false
		})
		return !found
	})
	if !found {
		t.Error("DIR graph has no child-[isA]->parent edge")
	}
}

func nscMapping(t *testing.T, o *ontology.Ontology) *core.Mapping {
	t.Helper()
	res, err := core.NSC(o, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res.Mapping
}

func TestOptimizedLoadMergesFacets(t *testing.T) {
	o := medOntology()
	ds := genData(t, o, 20)
	m := nscMapping(t, o)
	mem := memstore.New()
	v, _, err := Load(mem, ds, m)
	if err != nil {
		t.Fatal(err)
	}
	if v >= ds.NumInstances() {
		t.Errorf("OPT vertices = %d, expected fewer than %d instances", v, ds.NumInstances())
	}
	// Union facets merged: every ContraIndication vertex also carries the
	// Risk label, and no unionOf edges remain.
	mem.ForEachVertex("ContraIndication", func(id storage.VID) bool {
		if !mem.HasLabel(id, "Risk") {
			t.Errorf("vertex %d: ContraIndication without Risk label", id)
			return false
		}
		return true
	})
	count := 0
	mem.ForEachVertex("", func(id storage.VID) bool {
		count += mem.Degree(id, "unionOf", true)
		return true
	})
	if count != 0 {
		t.Errorf("OPT graph kept %d unionOf edges", count)
	}
	// Parent pushed into children: DrugFoodInteraction vertices carry the
	// parent label and the parent's property.
	checked := false
	mem.ForEachVertex("DrugFoodInteraction", func(id storage.VID) bool {
		checked = true
		if !mem.HasLabel(id, "DrugInteraction") {
			t.Errorf("vertex %d missing merged parent label", id)
		}
		if _, ok := mem.Prop(id, "summary"); !ok {
			t.Errorf("vertex %d missing parent property summary", id)
		}
		return false
	})
	if !checked {
		t.Fatal("no DrugFoodInteraction vertices")
	}
}

func TestResidualParentOnlyVertices(t *testing.T) {
	o := medOntology()
	ds := genData(t, o, 20)
	m := nscMapping(t, o)
	mem := memstore.New()
	if _, _, err := Load(mem, ds, m); err != nil {
		t.Fatal(err)
	}
	// Parent-only DrugInteraction instances stay as residual vertices
	// labeled only with the parent concept.
	residuals := 0
	mem.ForEachVertex("DrugInteraction", func(id storage.VID) bool {
		if !mem.HasLabel(id, "DrugFoodInteraction") && !mem.HasLabel(id, "DrugLabInteraction") {
			residuals++
		}
		return true
	})
	want := 0
	for _, inst := range ds.Extents["DrugInteraction"] {
		_ = inst
		want++
	}
	want -= len(ds.Extents["DrugFoodInteraction"]) + len(ds.Extents["DrugLabInteraction"])
	if residuals != want {
		t.Errorf("residual parent vertices = %d, want %d", residuals, want)
	}
}

func TestListPropReplication(t *testing.T) {
	o := medOntology()
	ds := genData(t, o, 20)
	m := nscMapping(t, o)
	mem := memstore.New()
	if _, _, err := Load(mem, ds, m); err != nil {
		t.Fatal(err)
	}
	// Figure 7: Drug carries Indication.desc as a LIST, consistent with
	// its treat links.
	treat := ds.Links["Drug-[treat]->Indication"]
	perDrug := map[int]int{}
	for _, l := range treat {
		perDrug[l.Src]++
	}
	idx := 0
	mem.ForEachVertex("Drug", func(id storage.VID) bool {
		val, ok := mem.Prop(id, "Indication.desc")
		if !ok {
			t.Errorf("drug vertex %d missing Indication.desc", id)
			return false
		}
		if val.Kind() != graph.KindList {
			t.Errorf("Indication.desc kind = %v", val.Kind())
			return false
		}
		idx++
		return true
	})
	if idx == 0 {
		t.Fatal("no Drug vertices")
	}
	// Aggregate totals agree with link count (values are all non-null
	// strings in the generator).
	res, err := query.Run(mem, cypher.MustParse("MATCH (d:Drug) RETURN SUM(size(d.`Indication.desc`))"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != int64(len(treat)) {
		t.Errorf("total replicated values = %d, want %d", got, len(treat))
	}
}

// TestEdgeConservation: non-collapsed edges appear exactly once in both
// DIR and OPT graphs.
func TestEdgeConservation(t *testing.T) {
	o := medOntology()
	ds := genData(t, o, 15)
	m := nscMapping(t, o)
	dir, opt := memstore.New(), memstore.New()
	if _, _, err := Load(dir, ds, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(opt, ds, m); err != nil {
		t.Fatal(err)
	}
	collapsed := map[string]bool{}
	for _, mg := range m.Merges {
		collapsed[mg.RelKey] = true
	}
	wantOpt := 0
	for _, r := range o.Relationships {
		if !collapsed[r.Key()] {
			wantOpt += len(ds.Links[r.Key()])
		}
	}
	if opt.NumEdges() != wantOpt {
		t.Errorf("OPT edges = %d, want %d", opt.NumEdges(), wantOpt)
	}
	if dir.NumEdges() != ds.NumLinks() {
		t.Errorf("DIR edges = %d, want %d", dir.NumEdges(), ds.NumLinks())
	}
}

// TestQ1StyleEquivalence: the union-collapse preserves the answer of the
// paper's Q1 pattern.
func TestQ1StyleEquivalence(t *testing.T) {
	o := medOntology()
	ds := genData(t, o, 25)
	m := nscMapping(t, o)
	dir, opt := memstore.New(), memstore.New()
	if _, _, err := Load(dir, ds, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(opt, ds, m); err != nil {
		t.Fatal(err)
	}
	qDir := cypher.MustParse(
		`MATCH (d:Drug)-[:cause]->(r:Risk)<-[:unionOf]-(ci:ContraIndication) RETURN d.name, ci.ciDesc`)
	qOpt := cypher.MustParse(
		`MATCH (d:Drug)-[:cause]->(ci:ContraIndication:Risk) RETURN d.name, ci.ciDesc`)
	rd, err := query.Run(dir, qDir)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := query.Run(opt, qOpt)
	if err != nil {
		t.Fatal(err)
	}
	query.SortRowsForComparison(rd.Rows)
	query.SortRowsForComparison(ro.Rows)
	if len(rd.Rows) == 0 {
		t.Fatal("Q1 DIR returned nothing; fixture broken")
	}
	if len(rd.Rows) != len(ro.Rows) {
		t.Fatalf("row counts differ: DIR %d vs OPT %d", len(rd.Rows), len(ro.Rows))
	}
	for i := range rd.Rows {
		for j := range rd.Rows[i] {
			if !rd.Rows[i][j].Equal(ro.Rows[i][j]) {
				t.Fatalf("row %d differs: %v vs %v", i, rd.Rows[i], ro.Rows[i])
			}
		}
	}
}

func TestLoadWithBadMapping(t *testing.T) {
	o := medOntology()
	ds := genData(t, o, 5)
	m := &core.Mapping{Merges: []core.Merge{{Kind: core.MergeUnion, RelKey: "nope", EdgeName: "x", From: "A", To: "B"}}}
	if _, _, err := Load(memstore.New(), ds, m); err == nil {
		t.Error("bad mapping accepted")
	}
}

// TestLoadRefusesCollidingMerge: a mapping that merges two concepts
// declaring one scalar property but gives neither a qualified key (as no
// optimizer-built mapping does) would have the merged vertex keep one
// member's value; Load refuses it with an error naming the group and the
// key, and with the qualified keys the same merge loads.
func TestLoadRefusesCollidingMerge(t *testing.T) {
	o := medOntology()
	ds := genData(t, o, 20)
	m := &core.Mapping{Merges: []core.Merge{{
		Kind: core.MergeChildIntoParent, RelKey: relKey(t, o, "Immunization", "Treatment"), EdgeName: "isA",
		From: "Immunization", To: "Treatment",
	}}}
	_, _, err := Load(memstore.New(), ds, m)
	var ce *MergeCollisionError
	if !errors.As(err, &ce) {
		t.Fatalf("Load of a colliding merge: err = %v, want a *MergeCollisionError", err)
	}
	if ce.Key != "attr18" || len(ce.Group) != 2 || !strings.Contains(err.Error(), "Immunization#") || !strings.Contains(err.Error(), "Treatment#") {
		t.Errorf("collision error %v does not name the group's two members and the key attr18", err)
	}
	m.ScalarKeys = []core.ScalarKey{
		{Concept: "Immunization", Prop: "attr18", Key: "Immunization:attr18"},
		{Concept: "Treatment", Prop: "attr18", Key: "Treatment:attr18"},
	}
	if _, _, err := Load(memstore.New(), ds, m); err != nil {
		t.Errorf("Load with the qualified keys: %v", err)
	}
}

// relKey returns the key of the relationship between two concepts.
func relKey(t *testing.T, o *ontology.Ontology, a, b string) string {
	t.Helper()
	for _, r := range o.Relationships {
		if (r.Src == a && r.Dst == b) || (r.Src == b && r.Dst == a) {
			return r.Key()
		}
	}
	t.Fatalf("no relationship between %s and %s", a, b)
	return ""
}
