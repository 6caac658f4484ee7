// Command pgsgen emits the evaluation ontologies (and optionally their
// synthetic data statistics) as JSON, for use with pgsopt or external
// tooling — or, with -store, builds the generated dataset into a
// reusable on-disk diskstore.
//
// Usage:
//
//	pgsgen -dataset MED            # ontology JSON to stdout
//	pgsgen -dataset FIN -o fin.json
//	pgsgen -dataset MED -stats -card 200
//	pgsgen -dataset MED -card 200 -store /tmp/med-store
//
// -store loads the dataset (direct schema) through the bulk-build
// pipeline into a diskstore at the given directory: adjacency comes out
// finalized into segments and the value postings and statistics are
// persisted in index.db, so a later `pgsserve -backend diskstore
// -data-dir DIR` serves it without regenerating or rescanning anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/datagen"
	"repro/internal/loader"
	"repro/internal/ontology"
	"repro/internal/storage/diskstore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgsgen: ")
	dataset := flag.String("dataset", "MED", "ontology to emit: MED or FIN")
	out := flag.String("o", "", "output file (default stdout)")
	stats := flag.Bool("stats", false, "emit generated data statistics instead of the ontology")
	card := flag.Int("card", 100, "base cardinality per concept for -stats/-store")
	seed := flag.Int64("seed", 2021, "generation seed for -stats/-store")
	storeDir := flag.String("store", "", "bulk-load the generated dataset into a diskstore at this directory")
	flag.Parse()

	var o *ontology.Ontology
	switch *dataset {
	case "MED":
		o = datagen.MED()
	case "FIN":
		o = datagen.FIN()
	default:
		log.Fatalf("unknown dataset %q (want MED or FIN)", *dataset)
	}

	if *storeDir != "" {
		buildStore(o, *storeDir, *seed, *card)
		return
	}

	var data []byte
	var err error
	if *stats {
		ds, gerr := datagen.Generate(o, datagen.Options{Seed: *seed, BaseCard: *card})
		if gerr != nil {
			log.Fatal(gerr)
		}
		data, err = json.MarshalIndent(ds.Stats, "", "  ")
	} else {
		data, err = o.MarshalJSON()
	}
	if err != nil {
		log.Fatal(err)
	}
	if *out == "" {
		fmt.Println(string(data))
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(data))
}

// buildStore generates the dataset and bulk-loads it into a diskstore at
// dir, reporting what was built.
func buildStore(o *ontology.Ontology, dir string, seed int64, card int) {
	ds, err := datagen.Generate(o, datagen.Options{Seed: seed, BaseCard: card})
	if err != nil {
		log.Fatal(err)
	}
	st, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if st.NumVertices() > 0 {
		st.Close()
		log.Fatalf("%s already holds a store with %d vertices; loading again would duplicate the dataset — pick an empty directory or delete it first", dir, st.NumVertices())
	}
	start := time.Now()
	vertices, edges, err := loader.Load(st, ds, nil)
	if err != nil {
		st.Close()
		log.Fatal(err)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	f, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	info := f.Format()
	f.Close()
	fmt.Printf("built %s in %v: %d vertices, %d edges, format v%d (persisted index=%v)\n",
		dir, time.Since(start).Round(time.Millisecond), vertices, edges,
		info.Version, info.IndexLoaded)
}
