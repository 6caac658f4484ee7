// Quickstart: the paper's Figure 2 medical ontology end to end —
// optimize the schema with Algorithm 5, load the same data under the
// direct (DIR) and optimized (OPT) schemas, and run the two §1 motivating
// queries on both, showing the traversal savings.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/loader"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
)

func main() {
	log.SetFlags(0)

	// 1. The Figure 2 ontology.
	o := ontology.New()
	str := func(n string) ontology.Property { return ontology.Property{Name: n, Type: ontology.TString} }
	o.AddConcept("Drug", str("name"), str("brand"))
	o.AddConcept("Indication", str("desc"))
	o.AddConcept("Condition", str("condName"), str("note"))
	o.AddConcept("Risk")
	o.AddConcept("ContraIndication", str("ciDesc"))
	o.AddConcept("BlackBoxWarning", str("warnNote"), str("route"))
	o.AddConcept("DrugInteraction", str("summary"))
	o.AddConcept("DrugFoodInteraction", str("riskLevel"))
	o.AddConcept("DrugLabInteraction", str("mechanism"))
	o.AddRelationship("treat", "Drug", "Indication", ontology.OneToMany)
	o.AddRelationship("is", "Indication", "Condition", ontology.OneToOne)
	o.AddRelationship("cause", "Drug", "Risk", ontology.OneToMany)
	o.AddRelationship("unionOf", "Risk", "ContraIndication", ontology.Union)
	o.AddRelationship("unionOf", "Risk", "BlackBoxWarning", ontology.Union)
	o.AddRelationship("has", "Drug", "DrugInteraction", ontology.OneToMany)
	o.AddRelationship("isA", "DrugInteraction", "DrugFoodInteraction", ontology.Inheritance)
	o.AddRelationship("isA", "DrugInteraction", "DrugLabInteraction", ontology.Inheritance)

	// 2. Optimize without a space constraint (Algorithm 5).
	res, err := core.NSC(o, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Optimized property graph schema (Algorithm 5) ===")
	fmt.Println(res.PGS.DDL())
	fmt.Println("=== Applied transformations ===")
	for _, m := range res.Mapping.Merges {
		fmt.Printf("  merge %-14s %s\n", m.Kind, m.RelKey)
	}
	for _, lp := range res.Mapping.ListProps {
		fmt.Printf("  replicate %s.%s as %s.`%s`\n", lp.Neighbor, lp.Prop, lp.Carrier, lp.Key)
	}

	// 3. Generate data and load it under both schemas.
	ds, err := datagen.Generate(o, datagen.Options{Seed: 1, BaseCard: 500})
	if err != nil {
		log.Fatal(err)
	}
	dir, opt := memstore.New(), memstore.New()
	if _, _, err := loader.Load(dir, ds, nil); err != nil {
		log.Fatal(err)
	}
	if _, _, err := loader.Load(opt, ds, res.Mapping); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDIR graph: %d vertices, %d edges\n", dir.NumVertices(), dir.NumEdges())
	fmt.Printf("OPT graph: %d vertices, %d edges\n", opt.NumVertices(), opt.NumEdges())

	// 4. The two §1 motivating queries.
	examples := []struct {
		title string
		text  string
	}{
		{"Example 1 (pattern matching through the interaction hierarchy)",
			`MATCH (d:Drug)-[:has]->(di:DrugInteraction)<-[:isA]-(dfi:DrugFoodInteraction) RETURN d.name, dfi.riskLevel`},
		{"Example 2 (aggregation over treat)",
			`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, size(COLLECT(i.desc)) AS n`},
	}
	for _, ex := range examples {
		q := cypher.MustParse(ex.text)
		rw, notes, err := rewrite.Rewrite(q, res.Mapping, rewrite.Options{})
		if err != nil {
			log.Fatal(err)
		}
		var ds1, ds2 query.Stats
		r1 := run(dir, q, &ds1)
		r2 := run(opt, rw, &ds2)
		fmt.Printf("\n=== %s ===\n", ex.title)
		fmt.Printf("DIR query: %s\n", q)
		fmt.Printf("OPT query: %s\n", rw)
		for _, n := range notes {
			fmt.Printf("  rewrite: %s\n", n)
		}
		fmt.Printf("DIR: %4d rows, %6d edge traversals, %6d property reads\n",
			len(r1.Rows), ds1.EdgesTraversed, ds1.PropsRead)
		fmt.Printf("OPT: %4d rows, %6d edge traversals, %6d property reads\n",
			len(r2.Rows), ds2.EdgesTraversed, ds2.PropsRead)
	}
}

// run compiles q against g and executes it once, counting its work in st.
func run(g storage.Graph, q *cypher.Query, st *query.Stats) *query.Result {
	p, err := query.Prepare(g, q)
	if err != nil {
		log.Fatal(err)
	}
	res, err := query.Collect(context.Background(), p, query.ExecOptions{Stats: st})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
