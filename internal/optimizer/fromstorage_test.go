package optimizer

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

// skewStore builds a store whose edge-type counts are deliberately
// lopsided: nTreat "treat" edges and nCause "cause" edges under the
// flip-test ontology's labels.
func skewStore(t *testing.T, nTreat, nCause int) *memstore.Store {
	t.Helper()
	var g storetest.Batch
	drug := g.Vertex("Drug")
	for i := 0; i < nTreat; i++ {
		g.Edge(drug, g.Vertex("Indication"), "treat")
	}
	for i := 0; i < nCause; i++ {
		g.Edge(drug, g.Vertex("Risk"), "cause")
	}
	mem := memstore.New()
	if err := g.Load(mem); err != nil {
		t.Fatal(err)
	}
	return mem
}

func flipOntology() *ontology.Ontology {
	o := ontology.New()
	o.AddConcept("Drug")
	o.AddConcept("Indication", ontology.Property{Name: "desc", Type: ontology.TInt})
	o.AddConcept("Risk", ontology.Property{Name: "rdesc", Type: ontology.TString})
	o.AddRelationship("treat", "Drug", "Indication", ontology.OneToMany)
	o.AddRelationship("cause", "Drug", "Risk", ontology.OneToMany)
	return o
}

// TestFromStorageCounts checks the storage→stats mapping itself: real
// per-label and per-type counts land on the matching concepts and
// relationship keys, unloaded names clamp to 1, and the result covers
// the ontology.
func TestFromStorageCounts(t *testing.T) {
	o := flipOntology()
	mem := skewStore(t, 10, 25)
	s := FromStorage(o, mem)
	if err := s.Validate(o); err != nil {
		t.Fatal(err)
	}
	if got := s.Card("Drug"); got != 1 {
		t.Errorf("Card(Drug) = %d, want 1", got)
	}
	if got := s.Card("Indication"); got != 10 {
		t.Errorf("Card(Indication) = %d, want 10", got)
	}
	if got := s.RelCard["Drug-[treat]->Indication"]; got != 10 {
		t.Errorf("RelCard[treat] = %d, want 10", got)
	}
	if got := s.RelCard["Drug-[cause]->Risk"]; got != 25 {
		t.Errorf("RelCard[cause] = %d, want 25", got)
	}

	// A concept the store never saw stays covered with cardinality 1.
	o2 := flipOntology()
	o2.AddConcept("Ghost")
	o2.AddRelationship("haunt", "Ghost", "Drug", ontology.OneToMany)
	s2 := FromStorage(o2, mem)
	if err := s2.Validate(o2); err != nil {
		t.Fatal(err)
	}
	if got := s2.Card("Ghost"); got != 1 {
		t.Errorf("Card(Ghost) = %d, want 1", got)
	}
	if got := s2.RelCard["Ghost-[haunt]->Drug"]; got < 1 {
		t.Errorf("RelCard[haunt] = %d, want >= 1", got)
	}
}

// TestFromStorageFlipsRuleChoice is the optimizer-integration regression
// test: with the same ontology, workload, and budget, the constrained
// algorithm must pick a different replication rule depending only on
// which edge type the store says is cheap — proof that real persisted
// counts (not the uniform defaults) drive Equation 5.
func TestFromStorageFlipsRuleChoice(t *testing.T) {
	o := flipOntology()
	cfg := core.DefaultConfig()
	const budget = 200.0

	plan := func(nTreat, nCause int) *Plan {
		t.Helper()
		in, err := NewInputs(o, FromStorage(o, skewStore(t, nTreat, nCause)), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RelationCentric(in, budget)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Skew A: treat is cheap (10 edges × 8-byte INT = 80 ≤ budget),
	// cause is unaffordable (1000 × 16-byte STRING = 16000).
	a := plan(10, 1000)
	if a.Cost != 80 {
		t.Fatalf("skew-A plan cost = %v, want 80 (the treat replication)", a.Cost)
	}
	// Skew B: the counts swap, and so must the chosen rule
	// (cause: 10 × 16 = 160 ≤ budget; treat: 1000 × 8 = 8000).
	b := plan(1000, 10)
	if b.Cost != 160 {
		t.Fatalf("skew-B plan cost = %v, want 160 (the cause replication)", b.Cost)
	}
	if a.Result.PGS.Fingerprint() == b.Result.PGS.Fingerprint() {
		t.Fatal("rule choice did not flip under swapped edge-type counts")
	}

	// Under uniform default statistics both rules are equally priced and
	// neither fits the budget: the store's counts are what made either
	// rule selectable at all.
	in, err := NewInputs(o, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u, err := RelationCentric(in, budget)
	if err != nil {
		t.Fatal(err)
	}
	if u.Cost != 0 {
		t.Fatalf("uniform-stats plan cost = %v, want 0 (nothing affordable)", u.Cost)
	}
}
