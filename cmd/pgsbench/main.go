// Command pgsbench regenerates the paper's evaluation: every figure and
// table of §5 plus the §1 motivating examples, printed as text tables.
//
// Usage:
//
//	pgsbench -exp all
//	pgsbench -exp fig11 -med-card 200 -fin-card 60
//	pgsbench -exp table2
//	pgsbench -exp parallel
//	pgsbench -exp open,bulkload
//	pgsbench -exp fig11 -json results.json
//
// Experiments: fig8, fig9, fig10, fig11, fig12, table2, motivating,
// parallel, open, bulkload, crash, compact, all.
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
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/storage/diskstore/crashtest"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgsbench: ")
	exp := flag.String("exp", "all", "experiment: fig8|fig9|fig10|fig11|fig12|table2|motivating|parallel|open|bulkload|crash|compact|all")
	medCard := flag.Int("med-card", 120, "MED base cardinality per concept")
	finCard := flag.Int("fin-card", 40, "FIN base cardinality per concept")
	seed := flag.Int64("seed", 2021, "generation seed")
	reps := flag.Int("reps", 3, "query repetitions per measurement")
	cache := flag.Int("cache-pages", 64, "diskstore page cache size")
	mmap := flag.Bool("mmap", false, "serve diskstore vertex/edge reads from a read-only memory map instead of the page cache")
	tight := flag.Int("tight-pages", 16, "page budget of the disk-bound (tight-cache) variant of -exp parallel")
	queryWorkers := flag.String("query-workers", "1,2,4,8",
		"comma-separated morsel worker counts for -exp parallel")
	crashMuts := flag.Int("crash-muts", 60, "mutations per truncation sweep in the crash experiment")
	crashKills := flag.Int("crash-kills", 120, "minimum WAL kill points in the crash experiment")
	crashRounds := flag.Int("crash-rounds", 12, "SIGKILL rounds in the crash experiment")
	compactVerts := flag.Int("compact-verts", 20000, "base vertices in the compact experiment")
	compactReaders := flag.Int("compact-readers", 4, "concurrent readers in the compact experiment")
	jsonOut := flag.String("json", "", "also write results as JSON to this file (- for stdout)")
	flag.Parse()

	if *exp == "crash-child" {
		// Hidden mode: the crash experiment re-invokes this binary as the
		// workload child it SIGKILLs. Never returns.
		crashtest.ChildMain()
	}

	opts := bench.Options{
		MedCard: *medCard, FinCard: *finCard, Seed: *seed,
		Reps: *reps, CachePages: *cache, Mmap: *mmap,
	}
	// -json collects every printed table's rows into one machine-readable
	// report; a nil *Report makes every Add a no-op.
	var report *bench.Report
	if *jsonOut != "" {
		report = &bench.Report{Meta: map[string]any{
			"exp": *exp, "med_card": *medCard, "fin_card": *finCard,
			"seed": *seed, "reps": *reps, "cache_pages": *cache, "mmap": *mmap,
		}}
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := func(name string) bool { return all || want[name] }

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

	ran := false
	if run("fig8") {
		ran = true
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
	if run("fig9") {
		ran = true
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
	if run("fig10") {
		ran = true
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
	if run("fig11") {
		ran = true
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
	if run("fig12") {
		ran = true
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
	if run("table2") {
		ran = true
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
	if run("motivating") {
		ran = true
		rows, err := bench.Motivating(env("MED"), bench.Diskstore)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatMotivating(rows))
		report.Add("motivating", "Motivating examples (§1)", rows)
	}
	if run("parallel") {
		ran = true
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
	if run("crash") {
		ran = true
		// The crash-recovery audit: first the deterministic WAL truncation
		// sweep (every acknowledged prefix must reopen exactly), then the
		// SIGKILL loop against a real child process (this binary, re-run
		// in the hidden crash-child mode).
		scratch, err := os.MkdirTemp("", "pgs-crash-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(scratch)
		srep, err := crashtest.TruncationSweep(filepath.Join(scratch, "sweep"), *crashMuts, *crashKills)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Crash recovery — truncation sweep: %d mutations, %d WAL bytes, %d kill points, all recovered exactly\n",
			srep.Mutations, srep.WALBytes, srep.KillPoints)
		report.Add("crash", "Crash recovery — truncation sweep", srep)
		exe, err := os.Executable()
		if err != nil {
			log.Fatal(err)
		}
		krep, err := crashtest.KillLoop(crashtest.KillConfig{
			Scratch: filepath.Join(scratch, "kill"),
			Rounds:  *crashRounds,
			Child:   []string{exe, "-exp", "crash-child"},
			Seed:    time.Now().UnixNano(),
			Log:     func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) },
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Crash recovery — SIGKILL loop: %d rounds, %d killed, %d clean exits, %d mutations survive\n\n",
			krep.Rounds, krep.Kills, krep.CleanExits, krep.FinalOps)
		report.Add("crash", "Crash recovery — SIGKILL loop", krep)
	}
	if run("compact") {
		ran = true
		// Background compaction under load: read latency while a fold
		// rewrites the base generation, versus the same store quiesced,
		// plus the audit that every mutation acknowledged mid-fold is
		// visible after the swap and after a cold reopen.
		scratch, err := os.MkdirTemp("", "pgs-compact-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(scratch)
		crep, err := bench.CompactLatency(scratch, *compactVerts, *compactVerts*3, *compactReaders, *seed)
		if err != nil {
			log.Fatal(err)
		}
		title := fmt.Sprintf("Background compaction — read latency during fold vs quiesced (diskstore, %d readers)", *compactReaders)
		fmt.Println(bench.FormatCompactReport(title, crep))
		report.Add("compact", title, crep)
	}
	if run("open") {
		ran = true
		// Cold restart cost: the same diskstore reopened through its
		// persisted index versus with index.db removed (the full-vertex
		// scan an open without it pays).
		rows, err := bench.ColdOpen(env("MED"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatColdOpenTable("Cold open — persisted index vs full-vertex scan (MED, diskstore)", rows))
		report.Add("open", "Cold open — persisted index vs full-vertex scan (MED, diskstore)", rows)
	}
	if run("bulkload") {
		ran = true
		for _, b := range backends {
			rows, err := bench.BulkLoad(env("MED"), b)
			if err != nil {
				log.Fatal(err)
			}
			title := fmt.Sprintf("Dataset load — bulk pipeline (%s, MED)", b)
			fmt.Println(bench.FormatBulkLoadTable(title, rows))
			report.Add("bulkload", title, rows)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
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
