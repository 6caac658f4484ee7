// Command pgsquery runs ad-hoc Cypher queries against a generated dataset
// under both the direct and the optimized schema, showing the rewritten
// query, both result sets, and the work counters side by side — the
// fastest way to inspect what the optimizer does to a specific query.
//
// Usage:
//
//	pgsquery -dataset MED 'MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, size(COLLECT(i.desc))'
//	pgsquery -dataset FIN -budget-pct 25 -localize 'MATCH (s:Person)-[:holds]->(a:Account) RETURN a.accountId'
//	pgsquery -dataset MED -repeat 1000 -parallel 4 -stats 'MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name'
//	pgsquery -dataset MED -backend diskstore -stats 'MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name'
//
// -profile prints the executor's per-step operator trace (visited and
// produced counts per plan step) for each schema — the same trace the
// server returns for PROFILE queries.
//
// -stats prints plan-cache effectiveness after the run (hits, misses,
// singleflight shares, compiles), each backend's per-label vertex counts,
// and, on the diskstore backend, each store's pager I/O counters plus its
// format/live-write state (its generation, compressed adjacency size and
// ratio, delta segment sizes, WAL activity) — so
// -parallel runs surface how well the shared-plan path and the page cache
// actually held up.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/loader"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/workload"
)

// cleanups are run before exit, normal or fatal: temp diskstore
// directories must not outlive the process.
var cleanups []func()

func runCleanups() {
	for _, f := range cleanups {
		f()
	}
}

// fatalf is log.Fatalf preceded by the registered cleanups (log.Fatalf
// alone would os.Exit past the deferred ones).
func fatalf(format string, v ...any) {
	runCleanups()
	log.Fatalf(format, v...)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgsquery: ")
	dataset := flag.String("dataset", "MED", "dataset: MED or FIN")
	card := flag.Int("card", 60, "base cardinality per concept")
	seed := flag.Int64("seed", 2021, "data generation seed")
	budgetPct := flag.Float64("budget-pct", -1, "space budget as % of Cost(NSC); negative = unconstrained")
	localize := flag.Bool("localize", false, "also localize scalar neighbor lookups (paper's Q6 behaviour)")
	maxRows := flag.Int("rows", 10, "result rows to print per schema")
	repeat := flag.Int("repeat", 1, "execute each query this many times (compiled once) and report total latency")
	parallel := flag.Int("parallel", 1, "drive the -repeat executions from this many goroutines sharing one cached plan")
	queryWorkers := flag.Int("query-workers", 1, "morsel workers inside each query execution (intra-query parallelism)")
	backend := flag.String("backend", "memstore", "storage backend: memstore or diskstore")
	cachePages := flag.Int("cache-pages", 64, "diskstore page cache size")
	stats := flag.Bool("stats", false, "print plan-cache stats (and pager I/O on diskstore) after the run")
	profile := flag.Bool("profile", false, "print the per-step operator trace (visited/produced per plan step) for each schema")
	flag.Parse()
	if *repeat < 1 {
		*repeat = 1
	}
	if *parallel < 1 {
		*parallel = 1
	}
	if *queryWorkers < 1 {
		*queryWorkers = 1
	}

	if flag.NArg() != 1 {
		log.Fatal("usage: pgsquery [flags] 'MATCH ... RETURN ...'")
	}
	src := flag.Arg(0)
	parsed, err := cypher.Parse(src)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}

	var o = datagen.MED()
	if *dataset == "FIN" {
		o = datagen.FIN()
	} else if *dataset != "MED" {
		log.Fatalf("unknown dataset %q", *dataset)
	}
	ds, err := datagen.Generate(o, datagen.Options{Seed: *seed, BaseCard: *card})
	if err != nil {
		log.Fatal(err)
	}

	// Optimize for this query's own access pattern, like the paper's
	// workload summaries.
	af, err := workload.AFFromQueries(o, []workload.Query{{Name: "q", Text: src}})
	if err != nil {
		log.Fatal(err)
	}
	in, err := optimizer.NewInputs(o, ds.Stats, af, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	var plan *optimizer.Plan
	if *budgetPct < 0 {
		plan, err = optimizer.NSC(in)
	} else {
		total, terr := in.NSCCost()
		if terr != nil {
			log.Fatal(terr)
		}
		plan, err = optimizer.PGSG(in, total**budgetPct/100)
	}
	if err != nil {
		log.Fatal(err)
	}

	rewritten, notes, err := rewrite.Rewrite(parsed, plan.Result.Mapping, rewrite.Options{LocalizeScalarLookups: *localize})
	if err != nil {
		log.Fatal(err)
	}

	// One store per schema on the chosen backend; diskstore stores live in
	// a temp dir removed on exit (fatalf runs the cleanups before exiting,
	// since log.Fatal would skip deferred ones).
	defer runCleanups()
	newStore := func(tag string) storage.Builder {
		switch *backend {
		case "memstore":
			return memstore.New()
		case "diskstore":
			d, err := os.MkdirTemp("", "pgsquery-"+tag+"-*")
			if err != nil {
				fatalf("%v", err)
			}
			st, err := diskstore.Open(d, diskstore.Options{CachePages: *cachePages})
			if err != nil {
				os.RemoveAll(d)
				fatalf("%v", err)
			}
			cleanups = append(cleanups, func() {
				st.Close()
				os.RemoveAll(d)
			})
			return st
		default:
			log.Fatalf("unknown backend %q", *backend)
			return nil
		}
	}
	dir, opt := newStore("dir"), newStore("opt")
	if _, _, err := loader.Load(dir, ds, nil); err != nil {
		fatalf("%v", err)
	}
	if _, _, err := loader.Load(opt, ds, plan.Result.Mapping); err != nil {
		fatalf("%v", err)
	}
	// Measure from a cold page cache, like a freshly started disk system.
	for _, st := range []storage.Builder{dir, opt} {
		if d, ok := st.(*diskstore.Store); ok {
			if err := d.DropCache(); err != nil {
				fatalf("%v", err)
			}
			d.ResetStats()
		}
	}

	fmt.Printf("DIR query: %s\n", parsed)
	fmt.Printf("OPT query: %s\n", rewritten)
	for _, n := range notes {
		fmt.Printf("  rewrite: %s\n", n)
	}
	fmt.Println()
	// One shared plan cache serves both schemas: entries are keyed by
	// (query text, graph), so the DIR and OPT plans never collide.
	cache := query.NewCache(0)
	show(cache, dir, parsed, "DIR", *maxRows, *repeat, *parallel, *queryWorkers, *profile)
	fmt.Println()
	show(cache, opt, rewritten, "OPT", *maxRows, *repeat, *parallel, *queryWorkers, *profile)
	if *stats {
		cs := cache.Stats()
		fmt.Printf("\nplan cache: %d hits, %d misses (%d shared an in-flight compile, %d compiles), %d/%d plans resident\n",
			cs.Hits, cs.Misses, cs.Shared, cs.Misses-cs.Shared, cs.Size, cs.Capacity)
		for _, side := range []struct {
			tag string
			g   storage.Graph
		}{{"DIR", dir}, {"OPT", opt}} {
			if sr, ok := side.g.(storage.StatsReporter); ok {
				ps := sr.Stats()
				fmt.Printf("%s pager: %d hits, %d misses, %d page reads\n",
					side.tag, ps.PageHits, ps.PageMisses, ps.PageReads)
			}
			if d, ok := side.g.(*diskstore.Store); ok {
				f := d.Format()
				ls := d.LiveStats()
				fmt.Printf("%s store: format v%d, generation %d, delta %d vertices / %d edges\n",
					side.tag, f.Version, f.Generation, ls.DeltaVertices, ls.DeltaEdges)
				if d.NumEdges() > 0 {
					fmt.Printf("%s adjacency: %d bytes (%.2f B/edge)\n",
						side.tag, f.EdgeBytes, float64(f.EdgeBytes)/float64(d.NumEdges()))
				}
				if ls.WALAppends > 0 {
					fmt.Printf("%s wal: %d batches in %d fsyncs, %d bytes\n",
						side.tag, ls.WALAppends, ls.WALSyncs, ls.WALBytes)
				}
			}
			if sg, ok := side.g.(storage.Statistics); ok {
				labels := sg.LabelCounts()
				names := make([]string, 0, len(labels))
				for name := range labels {
					names = append(names, name)
				}
				sort.Strings(names)
				parts := make([]string, 0, len(names))
				for _, name := range names {
					parts = append(parts, fmt.Sprintf("%s=%d", name, labels[name]))
				}
				fmt.Printf("%s labels: %s\n", side.tag, strings.Join(parts, " "))
			}
		}
	}
}

func show(cache *query.Cache, g storage.Graph, q *cypher.Query, tag string, maxRows, repeat, parallel, queryWorkers int, profile bool) {
	// Compile once through the shared cache, execute -repeat times from
	// -parallel goroutines: every worker shares the same immutable plan.
	plan, err := cache.Get(g, q.String())
	if err != nil {
		fatalf("%s: %v", tag, err)
	}
	// Per-run counters: every execution does identical work — morsel
	// workers merge their counters exactly — so the printed stats describe
	// one run regardless of -repeat or -query-workers.
	var st query.Stats
	var prof *query.Profile
	if profile {
		prof = new(query.Profile)
	}
	ctx := context.Background()
	res, err := query.Collect(ctx, plan, query.ExecOptions{Workers: queryWorkers, Stats: &st, Profile: prof})
	if err != nil {
		fatalf("%s: %v", tag, err)
	}
	fmt.Printf("%s: %d rows | %d vertices scanned, %d edges traversed, %d properties read",
		tag, len(res.Rows), st.VerticesScanned, st.EdgesTraversed, st.PropsRead)
	if repeat > 1 || parallel > 1 {
		text := q.String()
		var wg sync.WaitGroup
		errs := make([]error, parallel)
		start := time.Now()
		for w := 0; w < parallel; w++ {
			// Spread the -repeat executions across workers so exactly
			// that many runs happen regardless of divisibility.
			share := repeat / parallel
			if w < repeat%parallel {
				share++
			}
			wg.Add(1)
			go func(w, share int) {
				defer wg.Done()
				for i := 0; i < share; i++ {
					// Each request re-fetches through the cache, the way an
					// ad-hoc serving path would; after the first miss these
					// are all hits on the shared plan.
					p, err := cache.Get(g, text)
					if err == nil {
						_, err = query.Collect(ctx, p, query.ExecOptions{Workers: queryWorkers})
					}
					if err != nil {
						errs[w] = err
						return
					}
				}
			}(w, share)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				fatalf("%s: %v", tag, err)
			}
		}
		fmt.Printf(" | %d runs across %d goroutines in %v (%v/run, %.0f ops/sec aggregate)",
			repeat, parallel, elapsed, elapsed/time.Duration(repeat),
			float64(repeat)/elapsed.Seconds())
	}
	fmt.Println()
	if prof != nil {
		mode := "serial"
		if prof.Parallel {
			mode = fmt.Sprintf("parallel: %d morsels on %d workers", prof.Morsels, prof.Workers)
		}
		fmt.Printf("  plan (%s):\n", mode)
		for i, s := range prof.Steps {
			target := s.Target
			if s.Bound {
				target += " (bound)"
			}
			fmt.Printf("    %d. %-10s %-16s visited %-8d produced %d\n",
				i+1, s.Op, target, s.Visited, s.Produced)
		}
	}
	fmt.Printf("  %s\n", strings.Join(res.Columns, " | "))
	for i, row := range res.Rows {
		if i == maxRows {
			fmt.Printf("  ... (%d more)\n", len(res.Rows)-maxRows)
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
			if len(parts[j]) > 40 {
				parts[j] = parts[j][:37] + "..."
			}
		}
		fmt.Printf("  %s\n", strings.Join(parts, " | "))
	}
}
