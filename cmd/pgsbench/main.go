// Command pgsbench regenerates the paper's evaluation: every figure and
// table of §5 plus the §1 motivating examples, printed as text tables.
//
// Usage:
//
//	pgsbench -exp all
//	pgsbench -exp fig11 -med-card 200 -fin-card 60
//	pgsbench -exp table2
//	pgsbench -exp parallel
//	pgsbench -exp fig11,fig12 -json results.json
//
// Experiments: fig8, fig9, fig10, fig11, fig12, table2, motivating,
// parallel, all. An unknown name exits 2. Served throughput, load, open,
// restart, live writes and compaction are measured by `go run ./benchmark`
// against a real pgsserve; crash recovery by the diskstore/crashtest
// package's tests.
//
// -json writes every table's rows as one machine-readable document
// (invocation metadata plus a section per table) for CI trend tracking;
// the text tables still print.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/workload"
)

// experiments lists the -exp names in the order -exp all runs them.
var experiments = []string{"fig8", "fig9", "fig10", "fig11", "fig12", "table2", "motivating", "parallel"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgsbench: ")
	exp := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments, "|")+"|all")
	medCard := flag.Int("med-card", 120, "MED base cardinality per concept")
	finCard := flag.Int("fin-card", 40, "FIN base cardinality per concept")
	seed := flag.Int64("seed", 2021, "generation seed")
	reps := flag.Int("reps", 3, "query repetitions per measurement")
	cache := flag.Int("cache-pages", 64, "diskstore page cache size")
	tight := flag.Int("tight-pages", 16, "page budget of the disk-bound (tight-cache) variant of -exp parallel")
	queryWorkers := flag.String("query-workers", "1,2,4,8",
		"comma-separated morsel worker counts for -exp parallel")
	jsonOut := flag.String("json", "", "also write results as JSON to this file (- for stdout)")
	flag.Parse()

	want, err := parseExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	opts := bench.Options{
		MedCard: *medCard, FinCard: *finCard, Seed: *seed,
		Reps: *reps, CachePages: *cache,
	}
	// -json collects every printed table's rows into one machine-readable
	// report; a nil *Report makes every Add a no-op.
	var report *bench.Report
	if *jsonOut != "" {
		report = &bench.Report{Meta: map[string]any{
			"exp": *exp, "med_card": *medCard, "fin_card": *finCard,
			"seed": *seed, "reps": *reps, "cache_pages": *cache,
		}}
	}
	envs := map[string]*bench.Env{}
	env := func(name string) *bench.Env {
		if envs[name] == nil {
			v, err := bench.NewEnv(name, opts)
			if err != nil {
				log.Fatal(err)
			}
			envs[name] = v
			fmt.Printf("[%s] %d concepts, %d relationships; %d instances, %d links\n",
				name, len(v.Ontology.Concepts), len(v.Ontology.Relationships),
				v.Dataset.NumInstances(), v.Dataset.NumLinks())
		}
		return envs[name]
	}
	backends := []bench.Backend{bench.Memstore, bench.Diskstore}

	if want["fig8"] {
		for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
			pts, err := bench.VaryingSpace(env("MED"), dist, bench.DefaultSpacePcts)
			if err != nil {
				log.Fatal(err)
			}
			title := fmt.Sprintf("Figure 8 — varying space constraints (MED, %s workload)", dist)
			fmt.Println(bench.FormatBRTable(title, pts))
			report.Add("fig8", title, pts)
		}
	}
	if want["fig9"] {
		pcts := append([]float64{0.001}, bench.DefaultSpacePcts...)
		for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
			pts, err := bench.VaryingSpace(env("FIN"), dist, pcts)
			if err != nil {
				log.Fatal(err)
			}
			title := fmt.Sprintf("Figure 9 — varying space constraints (FIN, %s workload)", dist)
			fmt.Println(bench.FormatBRTable(title, pts))
			report.Add("fig9", title, pts)
		}
	}
	if want["fig10"] {
		for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
			pts, err := bench.VaryingThetas(env("FIN"), dist, bench.DefaultThetaPairs)
			if err != nil {
				log.Fatal(err)
			}
			title := fmt.Sprintf("Figure 10 — varying Jaccard thresholds (FIN, %s workload)", dist)
			fmt.Println(bench.FormatThetaTable(title, pts))
			report.Add("fig10", title, pts)
		}
	}
	if want["fig11"] {
		var rows []bench.MicroRow
		for _, name := range []string{"MED", "FIN"} {
			r, err := bench.Microbenchmark(env(name), backends)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, r...)
		}
		fmt.Println(bench.FormatMicroTable("Figure 11 — microbenchmark Q1-Q12 (DIR vs OPT)", rows))
		report.Add("fig11", "Figure 11 — microbenchmark Q1-Q12 (DIR vs OPT)", rows)
	}
	if want["fig12"] {
		var rows []bench.WorkloadRow
		for _, name := range []string{"MED", "FIN"} {
			r, err := bench.WorkloadLatency(env(name), backends)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, r...)
		}
		fmt.Println(bench.FormatWorkloadTable("Figure 12 — total query latency, 15-query Zipf workload", rows))
		report.Add("fig12", "Figure 12 — total query latency, 15-query Zipf workload", rows)
	}
	if want["table2"] {
		var rows []bench.EffRow
		for _, name := range []string{"MED", "FIN"} {
			r, err := bench.Efficiency(env(name), []int{25, 50, 75})
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, r...)
		}
		fmt.Println(bench.FormatEffTable("Table 2 — optimization time of RC and CC", rows))
		report.Add("table2", "Table 2 — optimization time of RC and CC", rows)
	}
	if want["motivating"] {
		rows, err := bench.Motivating(env("MED"), bench.Diskstore)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatMotivating(rows))
		report.Add("motivating", "Motivating examples (§1)", rows)
	}
	if want["parallel"] {
		// One client, morsel workers inside each execution — the "one heavy
		// traversal should saturate the machine" number. Served throughput
		// across clients is benchmark/'s job.
		workers, err := parseWorkerList(*queryWorkers)
		if err != nil {
			log.Fatal(err)
		}
		for _, b := range backends {
			pts, err := bench.IntraQueryScaling(env("MED"), b, workers, 100)
			if err != nil {
				log.Fatal(err)
			}
			title := fmt.Sprintf("Intra-query morsel workers — single client, %s (MED)", b)
			fmt.Println(bench.FormatIntraQueryTable(title, pts))
			report.Add("parallel", title, pts)
		}
		tightIntra, err := bench.IntraQueryScaling(env("MED").WithCachePages(*tight), bench.Diskstore, workers, 100)
		if err != nil {
			log.Fatal(err)
		}
		tightIntraTitle := fmt.Sprintf("Intra-query morsel workers — single client, diskstore tight cache (%d pages, MED)", *tight)
		fmt.Println(bench.FormatIntraQueryTable(tightIntraTitle, tightIntra))
		report.Add("parallel", tightIntraTitle, tightIntra)
	}
	if report != nil {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := report.WriteJSON(out); err != nil {
			log.Fatal(err)
		}
		if *jsonOut != "-" {
			log.Printf("wrote JSON results to %s", *jsonOut)
		}
	}
}

// parseExperiments parses the -exp flag: a comma-separated list of
// experiment names, "all" standing for every one. It returns the set to
// run, or an error naming the first name it does not know.
func parseExperiments(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "all":
			for _, e := range experiments {
				want[e] = true
			}
		case slices.Contains(experiments, name):
			want[name] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q (known: %s, all)", name, strings.Join(experiments, ", "))
		}
	}
	return want, nil
}

// parseWorkerList parses the -query-workers flag: a comma-separated list
// of positive worker counts.
func parseWorkerList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid -query-workers entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-query-workers lists no worker counts")
	}
	return out, nil
}
