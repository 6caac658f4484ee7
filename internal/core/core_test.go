package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ontology"
)

// withIterationSeed returns a copy of the config that randomizes rule
// application order with the given seed; the produced schema must be
// identical for every seed (Theorem 3).
func (c Config) withIterationSeed(seed int64) Config {
	c.iterationSeed = seed
	return c
}

// medFixture reproduces the paper's Figure 2 medical ontology snippet.
func medFixture() *ontology.Ontology {
	o := ontology.New()
	str := func(n string) ontology.Property { return ontology.Property{Name: n, Type: ontology.TString} }
	o.AddConcept("Drug", str("name"), str("brand"))
	o.AddConcept("Indication", str("desc"))
	o.AddConcept("Condition", str("cname"))
	o.AddConcept("Risk")
	o.AddConcept("ContraIndication", str("cidesc"))
	o.AddConcept("BlackBoxWarning", str("note"), str("route"))
	o.AddConcept("DrugInteraction", str("summary"))
	o.AddConcept("DrugFoodInteraction", str("risk"))
	o.AddConcept("DrugLabInteraction", str("mechanism"))

	o.AddRelationship("treat", "Drug", "Indication", ontology.OneToMany)
	o.AddRelationship("is", "Indication", "Condition", ontology.OneToOne)
	o.AddRelationship("cause", "Drug", "Risk", ontology.OneToMany)
	o.AddRelationship("unionOf", "Risk", "ContraIndication", ontology.Union)
	o.AddRelationship("unionOf", "Risk", "BlackBoxWarning", ontology.Union)
	o.AddRelationship("has", "Drug", "DrugInteraction", ontology.ManyToMany)
	o.AddRelationship("isA", "DrugInteraction", "DrugFoodInteraction", ontology.Inheritance)
	o.AddRelationship("isA", "DrugInteraction", "DrugLabInteraction", ontology.Inheritance)
	return o
}

func onlyRule(t *testing.T, o *ontology.Ontology, apps ...RuleApp) *Result {
	t.Helper()
	rs := NewRuleSet()
	for _, a := range apps {
		rs.Add(a)
	}
	res, err := Optimize(o, rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDirectMappingKeepsEverything(t *testing.T) {
	o := medFixture()
	res, err := Direct(o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.PGS.Nodes), len(o.Concepts); got != want {
		t.Errorf("DIR has %d node types, want %d", got, want)
	}
	if got, want := len(res.PGS.Edges), len(o.Relationships); got != want {
		t.Errorf("DIR has %d edge types, want %d", got, want)
	}
	if len(res.Mapping.Merges) != 0 || len(res.Mapping.ListProps) != 0 {
		t.Errorf("DIR mapping not empty: %+v", res.Mapping)
	}
}

// TestUnionRuleFigure4 checks the paper's Figure 4: after the union rule,
// Risk disappears and Drug causes ContraIndication/BlackBoxWarning
// directly.
func TestUnionRuleFigure4(t *testing.T) {
	o := medFixture()
	res := onlyRule(t, o,
		RuleApp{RelKey: "Risk-[unionOf]->ContraIndication"},
		RuleApp{RelKey: "Risk-[unionOf]->BlackBoxWarning"},
	)
	ddl := res.PGS.DDL()
	if res.PGS.Node("Risk") != nil {
		t.Errorf("Risk still present:\n%s", ddl)
	}
	for _, want := range []string{
		"(Drug)-[cause]->(ContraIndication)",
		"(Drug)-[cause]->(BlackBoxWarning)",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
	if strings.Contains(ddl, "unionOf") {
		t.Errorf("unionOf edge survived:\n%s", ddl)
	}
	if len(res.Mapping.Merges) != 2 || res.Mapping.Merges[0].Kind != MergeUnion {
		t.Errorf("mapping merges = %+v", res.Mapping.Merges)
	}
}

// TestUnionRuleDisabledKeepsRisk: without the rule the union node stays.
func TestUnionRuleDisabledKeepsRisk(t *testing.T) {
	o := medFixture()
	res := onlyRule(t, o) // nothing enabled
	if res.PGS.Node("Risk") == nil {
		t.Error("Risk dropped although union rule disabled")
	}
	if !strings.Contains(res.PGS.DDL(), "unionOf") {
		t.Error("unionOf edge missing in DIR schema")
	}
}

// TestInheritancePushDownFigure5a: JS(parent, child) = 0 < θ2, so the
// parent's property (summary) moves to both children and the parent node
// type vanishes (Figure 5(a)).
func TestInheritancePushDownFigure5a(t *testing.T) {
	o := medFixture()
	res := onlyRule(t, o,
		RuleApp{RelKey: "DrugInteraction-[isA]->DrugFoodInteraction"},
		RuleApp{RelKey: "DrugInteraction-[isA]->DrugLabInteraction"},
	)
	ddl := res.PGS.DDL()
	if res.PGS.Node("DrugInteraction") != nil {
		t.Errorf("parent still present:\n%s", ddl)
	}
	dfi := res.PGS.Node("DrugFoodInteraction")
	if dfi == nil {
		t.Fatal("DrugFoodInteraction missing")
	}
	found := false
	for _, p := range dfi.Props {
		if p.Name == "summary" && !p.List {
			found = true
		}
	}
	if !found {
		t.Errorf("summary not pushed to child: %+v", dfi.Props)
	}
	for _, want := range []string{
		"(Drug)-[has]->(DrugFoodInteraction)",
		"(Drug)-[has]->(DrugLabInteraction)",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
	for _, mg := range res.Mapping.Merges {
		if mg.Kind != MergeParentIntoChild {
			t.Errorf("merge kind = %v", mg.Kind)
		}
	}
}

// TestInheritanceMergeUpFigure5c: when the child shares most properties
// with the parent (JS > θ1) the child merges into the parent (Figure 5(c)).
func TestInheritanceMergeUpFigure5c(t *testing.T) {
	o := ontology.New()
	str := func(n string) ontology.Property { return ontology.Property{Name: n, Type: ontology.TString} }
	o.AddConcept("Parent", str("a"), str("b"), str("c"))
	o.AddConcept("Child", str("a"), str("b"), str("c"), str("d"))
	o.AddConcept("Other")
	o.AddRelationship("isA", "Parent", "Child", ontology.Inheritance)
	o.AddRelationship("rel", "Child", "Other", ontology.OneToMany)

	res := onlyRule(t, o, RuleApp{RelKey: "Parent-[isA]->Child"})
	if res.PGS.Node("Child") != nil {
		t.Errorf("child still present:\n%s", res.PGS.DDL())
	}
	parent := res.PGS.Node("Parent")
	if parent == nil {
		t.Fatal("parent missing")
	}
	hasD := false
	for _, p := range parent.Props {
		if p.Name == "d" {
			hasD = true
		}
	}
	if !hasD {
		t.Errorf("child property d not absorbed: %+v", parent.Props)
	}
	if !strings.Contains(res.PGS.DDL(), "(Parent)-[rel]->(Other)") {
		t.Errorf("child relationship not moved to parent:\n%s", res.PGS.DDL())
	}
	if res.Mapping.Merges[0].Kind != MergeChildIntoParent {
		t.Errorf("merge kind = %v", res.Mapping.Merges[0].Kind)
	}
}

// TestInheritanceMiddleBandKeepsIsA: θ2 ≤ JS ≤ θ1 keeps the isA edge
// (the paper's option 3).
func TestInheritanceMiddleBandKeepsIsA(t *testing.T) {
	o := ontology.New()
	str := func(n string) ontology.Property { return ontology.Property{Name: n, Type: ontology.TString} }
	o.AddConcept("P", str("a"), str("b"))
	o.AddConcept("C", str("a"), str("c"))
	o.AddRelationship("isA", "P", "C", ontology.Inheritance)
	// JS = 1/3 ≈ 0.33; with θ1=0.66, θ2=0.33 this is the middle band.
	res := onlyRule(t, o, RuleApp{RelKey: "P-[isA]->C"})
	if res.PGS.Node("P") == nil || res.PGS.Node("C") == nil {
		t.Fatalf("nodes dropped:\n%s", res.PGS.DDL())
	}
	if !strings.Contains(res.PGS.DDL(), "(P)-[isA]->(C)") {
		t.Errorf("isA edge missing:\n%s", res.PGS.DDL())
	}
	if len(res.Mapping.Merges) != 0 {
		t.Errorf("middle band produced merges: %+v", res.Mapping.Merges)
	}
}

// TestParentKeptWhenOneChildNotPushed: a parent with one pushed child and
// one middle-band child must survive.
func TestParentKeptWhenOneChildNotPushed(t *testing.T) {
	o := ontology.New()
	str := func(n string) ontology.Property { return ontology.Property{Name: n, Type: ontology.TString} }
	o.AddConcept("P", str("a"), str("b"))
	o.AddConcept("C1", str("x"))           // JS = 0 -> pushed
	o.AddConcept("C2", str("a"), str("c")) // JS = 1/3 -> middle band
	o.AddRelationship("isA", "P", "C1", ontology.Inheritance)
	o.AddRelationship("isA", "P", "C2", ontology.Inheritance)
	res := onlyRule(t, o,
		RuleApp{RelKey: "P-[isA]->C1"},
		RuleApp{RelKey: "P-[isA]->C2"},
	)
	if res.PGS.Node("P") == nil {
		t.Errorf("parent dropped despite middle-band child:\n%s", res.PGS.DDL())
	}
}

// TestOneToOneRuleFigure6: Indication and Condition merge into a single
// IndicationCondition node type.
func TestOneToOneRuleFigure6(t *testing.T) {
	o := medFixture()
	res := onlyRule(t, o, RuleApp{RelKey: "Indication-[is]->Condition"})
	ddl := res.PGS.DDL()
	merged := res.PGS.Node("Indication")
	if merged == nil || merged.Name != "IndicationCondition" {
		t.Fatalf("merged node wrong: %+v\n%s", merged, ddl)
	}
	if res.PGS.Node("Condition") != merged {
		t.Error("Condition label not on merged node")
	}
	names := map[string]bool{}
	for _, p := range merged.Props {
		names[p.Name] = true
	}
	if !names["desc"] || !names["cname"] {
		t.Errorf("merged props = %v", names)
	}
	if !strings.Contains(ddl, "(Drug)-[treat]->(IndicationCondition)") {
		t.Errorf("treat edge not redirected:\n%s", ddl)
	}
	if strings.Contains(ddl, "[is]") {
		t.Errorf("1:1 edge survived:\n%s", ddl)
	}
}

// TestOneToManyRuleFigure7: Drug gains Indication.desc LIST.
func TestOneToManyRuleFigure7(t *testing.T) {
	o := medFixture()
	res := onlyRule(t, o, RuleApp{RelKey: "Drug-[treat]->Indication", Prop: "desc"})
	drug := res.PGS.Node("Drug")
	found := false
	for _, p := range drug.Props {
		if p.Name == "Indication.desc" && p.List {
			found = true
		}
	}
	if !found {
		t.Errorf("Indication.desc LIST missing: %+v", drug.Props)
	}
	// Paper keeps the treat edge (Figure 7(a)).
	if !strings.Contains(res.PGS.DDL(), "(Drug)-[treat]->(Indication)") {
		t.Errorf("treat edge dropped:\n%s", res.PGS.DDL())
	}
	if len(res.Mapping.ListProps) != 1 || res.Mapping.ListProps[0].Key != "Indication.desc" {
		t.Errorf("mapping list props = %+v", res.Mapping.ListProps)
	}
	if !res.Mapping.ListProps[0].Unambiguous {
		t.Error("single relationship pair should be unambiguous")
	}
}

// TestManyToManyBothDirections: M:N replicates in both directions when
// both direction apps are enabled.
func TestManyToManyBothDirections(t *testing.T) {
	o := medFixture()
	res := onlyRule(t, o,
		RuleApp{RelKey: "Drug-[has]->DrugInteraction", Prop: "*"},
		RuleApp{RelKey: "Drug-[has]->DrugInteraction", Prop: "*", Reverse: true},
	)
	drug := res.PGS.Node("Drug")
	di := res.PGS.Node("DrugInteraction")
	hasFwd, hasRev := false, false
	for _, p := range drug.Props {
		if p.Name == "DrugInteraction.summary" && p.List {
			hasFwd = true
		}
	}
	for _, p := range di.Props {
		if (p.Name == "Drug.name" || p.Name == "Drug.brand") && p.List {
			hasRev = true
		}
	}
	if !hasFwd || !hasRev {
		t.Errorf("M:N replication fwd=%v rev=%v\n%s", hasFwd, hasRev, res.PGS.DDL())
	}
}

// TestNSCAppliesEverything: the unconstrained schema dissolves Risk, the
// interaction hierarchy, and the 1:1 pair, and replicates 1:M properties.
func TestNSCAppliesEverything(t *testing.T) {
	o := medFixture()
	res, err := NSC(o, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ddl := res.PGS.DDL()
	for _, gone := range []string{"Risk (", "DrugInteraction ("} {
		if strings.Contains(ddl, gone) {
			t.Errorf("NSC kept %q:\n%s", gone, ddl)
		}
	}
	if res.PGS.Node("Indication").Name != "IndicationCondition" {
		t.Errorf("1:1 not merged:\n%s", ddl)
	}
	drug := res.PGS.Node("Drug")
	wantLists := map[string]bool{"Indication.desc": false, "Indication.cname": false}
	for _, p := range drug.Props {
		if p.List {
			if _, ok := wantLists[p.Name]; ok {
				wantLists[p.Name] = true
			}
		}
	}
	for name, got := range wantLists {
		if !got {
			t.Errorf("NSC Drug missing list prop %s:\n%s", name, ddl)
		}
	}
}

// TestTheorem3Confluence: applying rules in random orders produces an
// identical schema. This is the paper's Theorem 3.
func TestTheorem3Confluence(t *testing.T) {
	f := func(ontSeed int64, orderSeed1, orderSeed2 int64) bool {
		o := ontology.RandomOntology(ontSeed, 8, 16)
		cfg := DefaultConfig()
		r1, err := Optimize(o, AllRules(o), cfg.withIterationSeed(orderSeed1|1))
		if err != nil {
			return false
		}
		r2, err := Optimize(o, AllRules(o), cfg.withIterationSeed(orderSeed2|1))
		if err != nil {
			return false
		}
		return r1.PGS.Fingerprint() == r2.PGS.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestConfluenceSubsets: Theorem 3 extends to arbitrary enabled subsets
// (the constrained algorithms rely on this).
func TestConfluenceSubsets(t *testing.T) {
	f := func(ontSeed int64, pick uint16, s1, s2 int64) bool {
		o := ontology.RandomOntology(ontSeed, 8, 14)
		all := EnumerateApps(o)
		rs := NewRuleSet()
		for i, a := range all {
			if pick&(1<<(i%16)) != 0 {
				rs.Add(a)
			}
		}
		cfg := DefaultConfig()
		r1, err := Optimize(o, rs, cfg.withIterationSeed(s1|1))
		if err != nil {
			return false
		}
		r2, err := Optimize(o, rs, cfg.withIterationSeed(s2|1))
		if err != nil {
			return false
		}
		return r1.PGS.Fingerprint() == r2.PGS.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestJaccard(t *testing.T) {
	str := func(n string) ontology.Property { return ontology.Property{Name: n, Type: ontology.TString} }
	a := &ontology.Concept{Name: "A", Props: []ontology.Property{str("x"), str("y")}}
	b := &ontology.Concept{Name: "B", Props: []ontology.Property{str("y"), str("z")}}
	if got := Jaccard(a, b); got != 1.0/3 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	empty := &ontology.Concept{Name: "E"}
	if got := Jaccard(empty, empty); got != 1 {
		t.Errorf("Jaccard(empty, empty) = %v, want 1", got)
	}
	if got := Jaccard(a, empty); got != 0 {
		t.Errorf("Jaccard(a, empty) = %v, want 0", got)
	}
}

func TestEnumerateApps(t *testing.T) {
	o := medFixture()
	apps := EnumerateApps(o)
	// 2 union + 2 inheritance + 1 1:1 + 1 1:M (treat/desc; cause's dst
	// Risk has no props) + M:N has: 1 forward (summary) + 2 reverse
	// (name, brand) = 9.
	if len(apps) != 9 {
		t.Errorf("EnumerateApps = %d apps: %v", len(apps), apps)
	}
}

func TestRuleSetWildcard(t *testing.T) {
	rs := NewRuleSet()
	rs.Add(RuleApp{RelKey: "k", Prop: "*"})
	if !rs.Enabled("k", "anything", false) {
		t.Error("wildcard did not match")
	}
	if rs.Enabled("k", "anything", true) {
		t.Error("wildcard matched wrong direction")
	}
	if rs.Enabled("other", "p", false) {
		t.Error("unrelated key matched")
	}
	rs.Add(RuleApp{RelKey: "k2", Prop: "p", Reverse: true})
	if !rs.Enabled("k2", "p", true) || rs.Enabled("k2", "p", false) {
		t.Error("exact app direction handling wrong")
	}
}

func TestAppsDeterministicOrder(t *testing.T) {
	o := medFixture()
	rs := AllRules(o)
	a1 := rs.Apps()
	a2 := rs.Apps()
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("Apps() order unstable at %d: %v vs %v", i, a1[i], a2[i])
		}
	}
}

// TestUnionDistributesInheritance reproduces the appendix Figure 13(b)
// case: a concept that is both a union concept and a child. The members
// must end up connected to the parent's neighbors.
func TestUnionDistributesInheritance(t *testing.T) {
	o := ontology.New()
	str := func(n string) ontology.Property { return ontology.Property{Name: n, Type: ontology.TString} }
	o.AddConcept("C1")                      // union concept, child of C5
	o.AddConcept("C2", str("p2"))           // member
	o.AddConcept("C3", str("p3"))           // member
	o.AddConcept("C4")                      // neighbor of C5
	o.AddConcept("C5", str("p5"), str("q")) // parent, JS(C5,C1)=0 < θ2
	o.AddRelationship("unionOf", "C1", "C2", ontology.Union)
	o.AddRelationship("unionOf", "C1", "C3", ontology.Union)
	o.AddRelationship("isA", "C5", "C1", ontology.Inheritance)
	o.AddRelationship("r", "C5", "C4", ontology.OneToMany)

	res, err := NSC(o, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ddl := res.PGS.DDL()
	// C1 (union) and C5 (fully pushed parent) disappear; members connect
	// to C4 through copies of r and carry C5's properties.
	if res.PGS.Node("C1") != nil || res.PGS.Node("C5") != nil {
		t.Errorf("C1/C5 should be dissolved:\n%s", ddl)
	}
	for _, want := range []string{"(C2)-[r]->(C4)", "(C3)-[r]->(C4)"} {
		if !strings.Contains(ddl, want) {
			t.Errorf("missing %q:\n%s", want, ddl)
		}
	}
	c2 := res.PGS.Node("C2")
	hasP5 := false
	for _, p := range c2.Props {
		if p.Name == "p5" {
			hasP5 = true
		}
	}
	if !hasP5 {
		t.Errorf("member did not inherit parent props: %+v", c2.Props)
	}
}
