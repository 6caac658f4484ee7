package loader_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/loader"
	"repro/internal/ontology"
	"repro/internal/optimizer"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/workload"
)

// servedMapping is the mapping the benchmark's optimized workloads serve:
// PGSG at 50 % of the NSC cost, access frequencies from the dataset's
// microbenchmark, on the dataset generated with seed 2021.
func servedMapping(t *testing.T, name string, o *ontology.Ontology, card int, budgetPct float64) (*datagen.Dataset, *core.Mapping) {
	t.Helper()
	ds, err := datagen.Generate(o, datagen.Options{Seed: 2021, BaseCard: card})
	if err != nil {
		t.Fatal(err)
	}
	af, err := workload.AFFromQueries(o, workload.MicrobenchmarkFor(name))
	if err != nil {
		t.Fatal(err)
	}
	in, err := optimizer.NewInputs(o, ds.Stats, af, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	total, err := in.NSCCost()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizer.PGSG(in, total*budgetPct/100)
	if err != nil {
		t.Fatal(err)
	}
	return ds, plan.Result.Mapping
}

// listKeyCarriers counts the vertices of g on which some scalar key's
// KeyID is above some list key's: the vertices whose property run, kept
// in key-ID order, does not start with all of its scalars.
func listKeyCarriers(g storage.Graph, m *core.Mapping) (bad, carriers int) {
	isList := map[string]bool{}
	for _, lp := range m.ListProps {
		isList[lp.Key] = true
	}
	for v := 0; v < g.NumVertices(); v++ {
		maxScalar, minList := storage.SymbolID(-1), storage.SymbolID(1<<30)
		for _, k := range g.PropKeys(storage.VID(v)) {
			id := g.KeyID(k)
			if isList[k] {
				minList = min(minList, id)
			} else {
				maxScalar = max(maxScalar, id)
			}
		}
		if minList == 1<<30 {
			continue
		}
		carriers++
		if maxScalar > minList {
			bad++
		}
	}
	return bad, carriers
}

// TestServedSchemasKeepScalarsFirst: a vertex arrives whole, so a list
// key can intern before a later vertex's scalar key. On the two mappings
// the benchmark serves (MED card 1000, FIN card 60, PGSG at 50 %), loaded
// into diskstore, no vertex may carry a scalar key whose ID is above one
// of its list keys': point lookups find the scalars at the head of the
// run.
func TestServedSchemasKeepScalarsFirst(t *testing.T) {
	for _, c := range []struct {
		name string
		o    *ontology.Ontology
		card int
	}{{"MED", datagen.MED(), 1000}, {"FIN", datagen.FIN(), 60}} {
		t.Run(c.name, func(t *testing.T) {
			ds, m := servedMapping(t, c.name, c.o, c.card, 50)
			s, err := diskstore.Open(t.TempDir(), diskstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, _, err := loader.Load(s, ds, m); err != nil {
				t.Fatal(err)
			}
			bad, carriers := listKeyCarriers(s, m)
			if carriers == 0 {
				t.Fatal("the served mapping replicates no list; the check is vacuous")
			}
			if bad > 0 {
				t.Errorf("%d of %d list carriers hold a scalar key interned after one of their list keys", bad, carriers)
			}
		})
	}
}
