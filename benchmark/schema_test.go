package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSchemaNamesAndLimits(t *testing.T) {
	if len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, at most 16", len(endToEnd))
	}
	if n := len(driverPerLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Unit == "" || m.Doc == "" {
			t.Errorf("%s: unit and doc are required", m.Name)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		for _, w := range m.On {
			found := false
			for _, name := range workloadNames() {
				found = found || name == w
			}
			if !found {
				t.Errorf("%s: defined on unknown workload %q", m.Name, w)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound == 0 && m.AbsBound == 0 {
			t.Errorf("%s: an end-to-end metric needs a bound", m.Name)
		}
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("%s: a layer metric says which end-to-end metric it should move", m.Name)
		}
	}
	for _, name := range workloadNames() {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q does not match %s", name, nameRE)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json is what the pipeline reads; the schema in this package is
// what the program prints. They must say the same thing.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}

	defs := workloadDefs(0)
	if len(f.Workloads) != len(defs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the schema", len(f.Workloads), len(defs))
	}
	for i, d := range defs {
		if f.Workloads[i].Name != d.Name || f.Workloads[i].Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the schema %q (or their why differs)", i, f.Workloads[i].Name, d.Name)
		}
		if len(d.Why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200", d.Name, len(d.Why))
		}
	}

	e2e := driverEndToEnd()
	if len(f.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d printed with --trace 0", len(f.EndToEnd), len(e2e))
	}
	hasSetup := false
	for i, m := range e2e {
		g := f.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the schema %s %s %s %v", i, g, m.Name, m.Unit, m.Better, m.Bound)
		}
		hasSetup = hasSetup || (g.Name == "setup_s" && g.Unit == "s" && g.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}

	layers := driverPerLayer()
	if len(f.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d printed with --trace 1", len(f.PerLayer), len(layers))
	}
	for i, m := range layers {
		g := f.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the schema %s %s %s", i, g, m.Name, m.Unit, m.Better)
		}
	}
}

// The pipeline's result line carries every declared metric of its kind for
// every workload; one that is not defined there reads undefinedCell.
func TestDriverLineCarriesEveryMetric(t *testing.T) {
	w := &workloadResult{Attempted: 10, EndToEnd: map[string]summary{}, PerLayer: map[string]float64{"cypher.parse_us": 3.5}}
	for _, m := range endToEnd {
		if m.definedOn(wPaperDir) {
			w.EndToEnd[m.Name] = summary{Median: 2}
		}
	}
	type line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	for _, traced := range []bool{false, true} {
		var got line
		if err := json.Unmarshal([]byte(driverLine(w, wPaperDir, traced)), &got); err != nil {
			t.Fatal(err)
		}
		want := driverEndToEnd()
		if traced {
			want = driverPerLayer()
		}
		if len(got.Metrics) != len(want) || !got.Correct || got.Attempted != 10 {
			t.Errorf("traced=%v: %d metrics, want %d: %+v", traced, len(got.Metrics), len(want), got)
		}
		for _, m := range want {
			if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s = %+v, present=%v", traced, m.Name, g, ok)
			}
		}
		if traced {
			if v := got.Metrics["restart_s"].Value; v != undefinedCell {
				t.Errorf("restart_s on paper_dir = %v, want %v", v, float64(undefinedCell))
			}
			if v := got.Metrics["cypher.parse_us"].Value; v != 3.5 {
				t.Errorf("cypher.parse_us = %v, want 3.5", v)
			}
		} else if v := got.Metrics["qps"].Value; v != 2 {
			t.Errorf("qps = %v, want 2", v)
		}
	}
}
