package ontology

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// medFixture builds the paper's Figure 2 medical ontology snippet.
func medFixture() *Ontology {
	o := New()
	o.AddConcept("Drug", Property{"name", TString}, Property{"brand", TString})
	o.AddConcept("Indication", Property{"desc", TString})
	o.AddConcept("Condition", Property{"name", TString})
	o.AddConcept("Risk")
	o.AddConcept("ContraIndication", Property{"desc", TString})
	o.AddConcept("BlackBoxWarning", Property{"note", TString}, Property{"route", TString})
	o.AddConcept("DrugInteraction", Property{"summary", TString})
	o.AddConcept("DrugFoodInteraction", Property{"risk", TString})
	o.AddConcept("DrugLabInteraction", Property{"mechanism", TString})

	o.AddRelationship("treat", "Drug", "Indication", OneToMany)
	o.AddRelationship("is", "Indication", "Condition", OneToOne)
	o.AddRelationship("cause", "Drug", "Risk", OneToMany)
	o.AddRelationship("unionOf", "Risk", "ContraIndication", Union)
	o.AddRelationship("unionOf", "Risk", "BlackBoxWarning", Union)
	o.AddRelationship("has", "Drug", "DrugInteraction", ManyToMany)
	o.AddRelationship("isA", "DrugInteraction", "DrugFoodInteraction", Inheritance)
	o.AddRelationship("isA", "DrugInteraction", "DrugLabInteraction", Inheritance)
	return o
}

func TestValidateFixture(t *testing.T) {
	o := medFixture()
	if err := o.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestConceptLookup(t *testing.T) {
	o := medFixture()
	c := o.Concept("Drug")
	if c == nil {
		t.Fatal("Concept(Drug) = nil")
	}
	if got := len(c.Props); got != 2 {
		t.Errorf("Drug has %d props, want 2", got)
	}
	if !c.HasProp("brand") || c.HasProp("nope") {
		t.Errorf("HasProp misbehaves: brand=%v nope=%v", c.HasProp("brand"), c.HasProp("nope"))
	}
	if o.Concept("Absent") != nil {
		t.Error("Concept(Absent) != nil")
	}
}

func TestInOutRels(t *testing.T) {
	o := medFixture()
	if got := len(o.Rels("Risk")); got != 3 {
		t.Errorf("Rels(Risk) = %d rels, want 3", got)
	}
	counts := o.CountByType()
	want := map[RelType]int{OneToMany: 2, OneToOne: 1, Union: 2, ManyToMany: 1, Inheritance: 2}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("CountByType[%s] = %d, want %d", k, counts[k], v)
		}
	}
}

func TestRelationshipKey(t *testing.T) {
	r := &Relationship{Name: "treat", Src: "Drug", Dst: "Indication", Type: OneToMany}
	if got, want := r.Key(), "Drug-[treat]->Indication"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

func TestValidateRejectsUnknownConcept(t *testing.T) {
	o := New()
	o.AddConcept("A")
	o.AddRelationship("r", "A", "Missing", OneToOne)
	if err := o.Validate(); err == nil {
		t.Fatal("Validate() accepted a dangling relationship")
	}
}

func TestValidateRejectsDuplicateRel(t *testing.T) {
	o := New()
	o.AddConcept("A")
	o.AddConcept("B")
	o.AddRelationship("r", "A", "B", OneToOne)
	o.AddRelationship("r", "A", "B", OneToOne)
	if err := o.Validate(); err == nil {
		t.Fatal("Validate() accepted a duplicate relationship")
	}
}

func TestValidateRejectsSelfInheritance(t *testing.T) {
	o := New()
	o.AddConcept("A")
	o.AddRelationship("isA", "A", "A", Inheritance)
	if err := o.Validate(); err == nil {
		t.Fatal("Validate() accepted self-inheritance")
	}
}

func TestValidateRejectsInheritanceCycle(t *testing.T) {
	o := New()
	o.AddConcept("A")
	o.AddConcept("B")
	o.AddConcept("C")
	o.AddRelationship("isA", "A", "B", Inheritance)
	o.AddRelationship("isA", "B", "C", Inheritance)
	o.AddRelationship("isA", "C", "A", Inheritance)
	if err := o.Validate(); err == nil {
		t.Fatal("Validate() accepted an inheritance cycle")
	}
}

func TestValidateRejectsDuplicateProperty(t *testing.T) {
	o := New()
	o.AddConcept("A", Property{"p", TString}, Property{"p", TInt})
	if err := o.Validate(); err == nil {
		t.Fatal("Validate() accepted duplicate property names")
	}
}

func TestAddConceptDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddConcept duplicate did not panic")
		}
	}()
	o := New()
	o.AddConcept("A")
	o.AddConcept("A")
}

func TestCloneIsDeep(t *testing.T) {
	o := medFixture()
	c := o.Clone()
	c.Concept("Drug").Props[0].Name = "mutated"
	c.Relationships[0].Name = "mutated"
	if o.Concept("Drug").Props[0].Name != "name" {
		t.Error("Clone shares concept property storage")
	}
	if o.Relationships[0].Name != "treat" {
		t.Error("Clone shares relationship storage")
	}
	if got, want := c.String(), o.String(); got == want {
		t.Error("mutated clone still renders identically, String() may ignore data")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	o := medFixture()
	data, err := o.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	back, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got, want := back.String(), o.String(); got != want {
		t.Errorf("round-trip mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestJSONRejectsBadType(t *testing.T) {
	in := `{"concepts":[{"name":"A","properties":[{"name":"p","type":"BLOB"}]}],"relationships":[]}`
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("Read accepted unknown data type")
	}
	in = `{"concepts":[{"name":"A"},{"name":"B"}],"relationships":[{"name":"r","src":"A","dst":"B","type":"2:2"}]}`
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("Read accepted unknown relationship type")
	}
}

func TestRelTypeAndDataTypeStrings(t *testing.T) {
	cases := map[string]string{
		OneToOne.String():    "1:1",
		OneToMany.String():   "1:M",
		ManyToMany.String():  "M:N",
		Union.String():       "union",
		Inheritance.String(): "inheritance",
		TString.String():     "STRING",
		TInt.String():        "INT",
		TFloat.String():      "DOUBLE",
		TBool.String():       "BOOLEAN",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestDefaultStatsCoversOntology(t *testing.T) {
	o := medFixture()
	s := DefaultStats(o, 100)
	if err := s.Validate(o); err != nil {
		t.Fatalf("DefaultStats incomplete: %v", err)
	}
	treat := o.Relationships[0]
	if s.EdgeCard(treat) <= s.Card("Drug") {
		t.Errorf("1:M edge card %d should exceed concept card %d", s.EdgeCard(treat), s.Card("Drug"))
	}
}

func TestStatsSizes(t *testing.T) {
	s := NewStats(20)
	if got := s.PropSize(Property{"x", TInt}); got != 8 {
		t.Errorf("PropSize(INT) = %d, want 8", got)
	}
	if got := s.PropSize(Property{"x", TString}); got != 20 {
		t.Errorf("PropSize(STRING) = %d, want 20", got)
	}
	if got := s.PropSize(Property{"x", TBool}); got != 1 {
		t.Errorf("PropSize(BOOLEAN) = %d, want 1", got)
	}
	o := New()
	o.AddConcept("A", Property{"p", TInt}, Property{"q", TString})
	s.ConceptCard["A"] = 10
	if got, want := s.ConceptSize(o, "A"), (8+20)*10; got != want {
		t.Errorf("ConceptSize = %d, want %d", got, want)
	}
}

func TestUniformAF(t *testing.T) {
	o := medFixture()
	af := UniformAF(o)
	treat := o.Relationships[0]
	if af.OfRel(treat) != 1 {
		t.Errorf("OfRel = %v, want 1", af.OfRel(treat))
	}
	if af.OfRelProp(treat, "desc") != 1 {
		t.Errorf("OfRelProp(desc) = %v, want 1", af.OfRelProp(treat, "desc"))
	}
	if af.OfConcept("Drug") != 1 {
		t.Errorf("OfConcept = %v, want 1", af.OfConcept("Drug"))
	}
	// M:N relationships expose source properties too.
	var has *Relationship
	for _, r := range o.Relationships {
		if r.Name == "has" {
			has = r
		}
	}
	if af.RelProp[has.Key()]["name"] != 1 {
		t.Error("M:N relationship should expose source concept properties")
	}
}

func TestAFAccumulation(t *testing.T) {
	o := medFixture()
	af := NewAccessFrequencies()
	treat := o.Relationships[0]
	af.AddRelProp(treat, "desc", 3)
	af.AddRelProp(treat, "desc", 2)
	af.AddConcept("Drug", 4)
	af.AddRel(treat, 1)
	if got := af.OfRelProp(treat, "desc"); got != 5 {
		t.Errorf("OfRelProp = %v, want 5", got)
	}
	if got := af.OfRel(treat); got != 6 {
		t.Errorf("OfRel = %v, want 6 (prop accesses imply rel accesses)", got)
	}
	if got := af.OfConcept("Drug"); got != 4 {
		t.Errorf("OfConcept = %v, want 4", got)
	}
}

func TestAFDefaults(t *testing.T) {
	af := NewAccessFrequencies()
	r := &Relationship{Name: "r", Src: "A", Dst: "B", Type: OneToMany}
	if af.OfRel(r) != 1 || af.OfConcept("X") != 1 || af.OfRelProp(r, "p") != 1 {
		t.Error("empty AccessFrequencies should default to 1")
	}
}

// TestCloneEquivalenceProperty checks Clone()+String() stability over
// randomized ontologies.
func TestCloneEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		o := RandomOntology(seed, 8, 12)
		return o.Clone().String() == o.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRandomOntologyValid(t *testing.T) {
	f := func(seed int64) bool {
		o := RandomOntology(seed, 10, 20)
		return o.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
