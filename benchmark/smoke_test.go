package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs the whole harness small: the real pgsserve child, all
// five workloads, the traced pass with its twin, and mixed_live's kill
// and restart. It checks wiring and correctness, not speed. It is what
// breaks, in tier 1, the moment the surface pinned in twin.go drifts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "report.json")
	tracePath := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	cfg := smokeConfig(3)
	cfg.Trace = !raceBuild
	code, err := runBenchmark(cfg, nil, reportPath, tracePath, &out)
	// The one timing rule in the harness — the twin must not take longer
	// than the handler it mirrors — can trip when the other packages'
	// tests are hogging the machine. That says nothing about wiring, so
	// the run is repeated without the traced pass, as under -race.
	if err != nil && strings.Contains(err.Error(), "traced pass: residuals") {
		t.Logf("machine too busy for the traced pass, repeating without it: %v", err)
		cfg.Trace = false
		out.Reset()
		code, err = runBenchmark(cfg, nil, reportPath, tracePath, &out)
	}
	traced := cfg.Trace
	if err != nil || code != 0 {
		t.Fatalf("benchmark exited %d: %v\n%s", code, err, out.String())
	}

	rep, err := readReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.GoVersion == "" || rep.Meta.NProc == 0 || rep.Meta.Seed != 3 || rep.Meta.Protocol != stampOf(&cfg) {
		t.Errorf("report is not stamped: %+v", rep.Meta)
	}
	for _, name := range workloadNames() {
		w := rep.Workloads[name]
		if w == nil {
			t.Fatalf("no %s in the report", name)
		}
		if w.Failed != 0 || len(w.Errors) > 0 || w.Requests == 0 {
			t.Errorf("%s: %d requests, %d failed, errors %v", name, w.Requests, w.Failed, w.Errors)
		}
		// Every declared metric appears where it is defined, by name, in
		// the JSON and in the table; none appears where it is not.
		for _, m := range endToEnd {
			s, ok := w.EndToEnd[m.Name]
			if ok != m.definedOn(name) {
				t.Errorf("%s: end-to-end %s present=%v, defined=%v", name, m.Name, ok, m.definedOn(name))
			}
			if ok && m.Name != "fail_frac" && s.Median <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m.Name, s.Median)
			}
		}
		if !traced {
			continue
		}
		for _, m := range perLayer {
			if _, ok := w.PerLayer[m.Name]; ok != m.definedOn(name) {
				t.Errorf("%s: per-layer %s present=%v, defined=%v", name, m.Name, ok, m.definedOn(name))
			}
		}
		// The layer times and the two residuals sum to the 1-client
		// latency; neither residual is far below zero.
		l := w.PerLayer
		sum := l["cypher.parse_us"] + l["rewrite.rewrite_us"] + l["query.plan_us"] + l["query.execute_us"] +
			l["server.overhead_us"] + l["loadgen.transport_us"]
		if whole := l["loadgen.latency_1c_us"]; whole <= 0 || sum < 0.98*whole || sum > 1.02*whole {
			t.Errorf("%s: layers sum to %.1f us, the 1-client latency is %.1f us", name, sum, whole)
		}
	}
	// One set-up and one restart on the measured server, one of each on
	// a scratch copy between the rounds.
	if s := rep.Workloads[wMixedLive].EndToEnd["restart_s"]; s.N != cfg.Setups {
		t.Errorf("restart_s rests on %d restarts, want %d", s.N, cfg.Setups)
	}
	if s := rep.Workloads[wPaperDir].EndToEnd["setup_s"]; s.N != cfg.Setups {
		t.Errorf("setup_s rests on %d set-ups, want %d", s.N, cfg.Setups)
	}
	if traced {
		for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if !strings.Contains(out.String(), m.Name) {
				t.Errorf("the table never names %s", m.Name)
			}
		}
		checkTrace(t, tracePath)
	}

	smokeCompareAndPipeline(t, rep, reportPath)
}

// smokeConfig is the protocol cut down to a few seconds: small datasets,
// two short rounds, two set-ups, a short replay and crash test.
func smokeConfig(seed int64) config {
	return config{
		Seed: seed, Clients: min(nproc(), maxClients), Rounds: 2, Window: 250 * time.Millisecond, Warmup: 100 * time.Millisecond,
		Card: 20, Setups: 2, Replay: 40, CrashBatches: 20,
	}
}

// checkTrace loads the trace file as trace-event JSON and looks for a
// span of every kind the traced pass records.
func checkTrace(t *testing.T, tracePath string) {
	t.Helper()
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, e := range trace.TraceEvents {
		names[e.Name]++
		if e.Ph == "X" && e.Dur < 0 {
			t.Errorf("span %s has negative duration", e.Name)
		}
	}
	for _, want := range []string{"client./query", "server.handler", "twin.request", "cypher.Parse", "rewrite.Rewrite",
		"query.Cache.GetWithInfo", "query.Prepared.Execute", "datagen.Generate", "loader.Load", "storage.ForEachVertex"} {
		if names[want] == 0 {
			t.Errorf("trace has no %s span", want)
		}
	}
}

func smokeCompareAndPipeline(t *testing.T, rep *report, reportPath string) {
	t.Helper()
	// compare of a run with itself: no verdict is worse, exit code 0.
	var cmp bytes.Buffer
	if code := compareMain([]string{reportPath, reportPath}, &cmp); code != 0 {
		t.Errorf("compare of a report with itself exited %d:\n%s", code, cmp.String())
	}
	// A report measured under another protocol is refused.
	other := *rep
	other.Meta.Protocol.Rounds++
	otherPath := filepath.Join(filepath.Dir(reportPath), "other.json")
	if err := writeReportJSON(otherPath, &other); err != nil {
		t.Fatal(err)
	}
	cmp.Reset()
	if code := compareMain([]string{reportPath, otherPath}, &cmp); code != 2 || !strings.Contains(cmp.String(), "another protocol") {
		t.Errorf("compare across protocols exited %d:\n%s", code, cmp.String())
	}

	// The command line is the pipeline's; a workload it does not know is
	// refused before anything is built or run.
	var out bytes.Buffer
	if code, err := benchMain([]string{"--workload", "nope", "--seed", "4", "--seconds", "1", "--trace", "0"}, &out); code != 2 || err == nil {
		t.Errorf("unknown workload: exit %d, %v", code, err)
	}
	// The pipeline's form: one workload, the result object on the last line.
	cfg := smokeConfig(4)
	cfg.Setups = 1
	code, err := runBenchmark(cfg, []string{wPointMem}, "", "", &out)
	if err != nil || code != 0 {
		t.Fatalf("single-workload run exited %d: %v\n%s", code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var result struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !result.Correct || result.Attempted < 1 || result.Failed != 0 {
		t.Errorf("result: %+v", result)
	}
	for _, m := range driverEndToEnd() {
		if got := result.Metrics[m.Name]; got.Value <= 0 || got.Unit != m.Unit {
			t.Errorf("result metric %s = %+v", m.Name, got)
		}
	}
	if len(result.Metrics) != len(driverEndToEnd()) {
		t.Errorf("result has %d metrics, want %d", len(result.Metrics), len(driverEndToEnd()))
	}
}
