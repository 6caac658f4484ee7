package loader_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/loader"
	"repro/internal/ontology"
	"repro/internal/optimizer"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
	"repro/internal/workload"
)

// goldenCard is the cardinality the committed fingerprints were taken at.
const goldenCard = 20

// goldenCase is one (dataset, mapping) row of testdata/fingerprints.txt.
type goldenCase struct {
	name string
	ds   *datagen.Dataset
	m    *core.Mapping
}

// goldenCases returns every row: for MED and FIN, the direct mapping,
// RC, CC and PGSG at 25, 50 and 100 % of the NSC cost, and NSC.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var out []goldenCase
	for _, set := range []struct {
		name string
		o    *ontology.Ontology
	}{{"MED", datagen.MED()}, {"FIN", datagen.FIN()}} {
		ds, err := datagen.Generate(set.o, datagen.Options{Seed: 7, BaseCard: goldenCard})
		if err != nil {
			t.Fatal(err)
		}
		af, err := workload.AFFromQueries(set.o, workload.MicrobenchmarkFor(set.name))
		if err != nil {
			t.Fatal(err)
		}
		in, err := optimizer.NewInputs(set.o, ds.Stats, af, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		total, err := in.NSCCost()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenCase{set.name + " DIR", ds, nil})
		for _, alg := range []struct {
			name string
			run  func(*optimizer.Inputs, float64) (*optimizer.Plan, error)
		}{{"RC", optimizer.RelationCentric}, {"CC", optimizer.ConceptCentric}, {"PGSG", optimizer.PGSG}} {
			for _, pct := range []int{25, 50, 100} {
				p, err := alg.run(in, total*float64(pct)/100)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, goldenCase{fmt.Sprintf("%s %s %d%%", set.name, alg.name, pct), ds, p.Result.Mapping})
			}
		}
		p, err := optimizer.NSC(in)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenCase{set.name + " NSC", ds, p.Result.Mapping})
	}
	return out
}

// readGolden parses testdata/fingerprints.txt: "<name>\t<sha256>" lines.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "fingerprints.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestLoadGoldenFingerprints pins the loader's output: every golden case,
// loaded into memstore and into diskstore, must hash (SHA-256 of
// storetest.Fingerprint) to its committed row. It is a change detector,
// not an oracle. A deliberate change to what the loader writes
// regenerates the file from the "got" lines this test logs on a mismatch.
func TestLoadGoldenFingerprints(t *testing.T) {
	want := readGolden(t)
	cases := goldenCases(t)
	if len(want) != len(cases) {
		t.Errorf("golden file has %d rows, the test has %d cases", len(want), len(cases))
	}
	var got []string
	for _, c := range cases {
		backends := []struct {
			name string
			open func() storage.Builder
		}{
			{"memstore", func() storage.Builder { return memstore.New() }},
			{"diskstore", func() storage.Builder {
				s, err := diskstore.Open(t.TempDir(), diskstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}},
		}
		var first string
		for _, b := range backends {
			s := b.open()
			if _, _, err := loader.Load(s, c.ds, c.m); err != nil {
				t.Fatalf("%s on %s: %v", c.name, b.name, err)
			}
			sum := fmt.Sprintf("%x", sha256.Sum256([]byte(storetest.Fingerprint(s))))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if sum != want[c.name] {
				t.Errorf("%s on %s: fingerprint %s, committed %s", c.name, b.name, sum, want[c.name])
			}
			if first == "" {
				first = sum
				got = append(got, c.name+"\t"+sum)
			}
		}
	}
	if t.Failed() {
		t.Logf("got:\n%s", strings.Join(got, "\n"))
	}
}
