// Command pgsserve is the network-facing query service: it generates a
// dataset (MED or FIN), loads it into a backend under the direct or the
// optimized schema, and serves it over HTTP with admission control, a
// shared plan cache, per-request timeouts, and graceful shutdown.
//
// Usage:
//
//	pgsserve -dataset MED -addr 127.0.0.1:8080
//	pgsserve -dataset FIN -backend diskstore -cache-pages 64 -optimize
//	curl -s localhost:8080/query -d 'MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, COUNT(i.desc)'
//	curl -s localhost:8080/mutate -H 'Content-Type: application/json' \
//	     -d '{"vertices":[{"labels":["Drug"],"props":{"name":"Naproxen"}}],"edges":[{"src":-1,"dst":2,"type":"treat"}]}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/metrics
//
// POST /query accepts raw Cypher (or {"query": "..."} with a JSON
// content type) and answers with rows, work counters, and the executed —
// possibly rewritten — query text. With -optimize the schema is chosen by
// the paper's PGSG algorithm for the dataset's microbenchmark workload,
// and every incoming query is rewritten through the mapping exactly like
// pgsquery's OPT side.
//
// POST /mutate accepts one durable mutation batch on a diskstore backend
// (one ApplyMutations call): the batch is WAL-logged and fsynced before
// the 200, so acknowledged writes survive a crash (see the server package
// for the request shape). /metrics reports the live-write series — delta
// segment sizes, WAL fsync counts and time — next to the pager and
// admission numbers.
//
// Observability: GET /metrics serves every counter, gauge and latency
// histogram in Prometheus text exposition format; GET /stats carries only
// what an exposition cannot (the top query shapes by p99, the last fold
// error, the graph's per-label counts); every response carries an
// X-Request-Id (honored from the client or generated); a query prefixed
// with PROFILE (or sent to /query?profile=1) returns a per-phase,
// per-operator trace. -slow-query-log streams JSON lines for requests at
// or above -slow-query-threshold, and -pprof-addr serves
// net/http/pprof on a separate listener.
//
// When -data-dir points at an already-populated diskstore (e.g. written
// by `pgsgen -store` or a previous pgsserve run), the store is served
// as-is: no dataset load runs, and the store reads its label index from
// vertices.db and its value postings and statistics from index.db instead
// of scanning every vertex's properties and edges — the fast-restart path.
// A store written by an earlier release (format v2-v5) is refused; rebuild
// it with `pgsgen -store DIR`. The operator must pass the same
// -optimize/-localize flags the store was built with; pgsserve cannot
// verify the schema a store on disk was loaded under.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr registers /debug/pprof on DefaultServeMux
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/loader"
	"repro/internal/optimizer"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgsserve: ")
	// All the work happens in run so deferred cleanups (closing the
	// diskstore, removing a temp data dir) execute on error paths too.
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dataset := flag.String("dataset", "MED", "dataset: MED or FIN")
	card := flag.Int("card", 60, "base cardinality per concept")
	seed := flag.Int64("seed", 2021, "data generation seed")
	backend := flag.String("backend", "memstore", "storage backend: memstore or diskstore")
	dataDir := flag.String("data-dir", "", "diskstore directory (default: a temp dir, removed on exit)")
	cachePages := flag.Int("cache-pages", 64, "diskstore page cache size")
	optimize := flag.Bool("optimize", false, "serve the optimized schema (PGSG over the dataset's microbenchmark workload)")
	budgetPct := flag.Float64("budget-pct", 50, "space budget as % of Cost(NSC) when optimizing")
	localize := flag.Bool("localize", false, "also localize scalar neighbor lookups in rewrites")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", server.DefaultMaxConcurrent, "queries executing at once")
	maxQueued := flag.Int("max-queued", server.DefaultMaxQueued, "queries waiting for a slot before 429 shedding")
	queryWorkers := flag.Int("query-workers", server.DefaultQueryWorkers, "morsel workers per query (intra-query parallelism; total traversal goroutines <= max-concurrent * query-workers)")
	timeout := flag.Duration("timeout", server.DefaultRequestTimeout, "per-request timeout")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body limit in bytes")
	maxQueryLen := flag.Int("max-query-len", server.DefaultMaxQueryLen, "query text limit in bytes")
	autoCompact := flag.Int64("auto-compact", 0, "start a background compaction once the live delta holds this many vertices+edges (0 = manual via POST /admin/compact)")
	drainWait := flag.Duration("drain", 15*time.Second, "shutdown grace period for in-flight requests")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it off public interfaces)")
	slowThreshold := flag.Duration("slow-query-threshold", 0, "log requests at or above this latency to the slow-query log (0 with -slow-query-log = log every request)")
	slowLog := flag.String("slow-query-log", "", "slow-query log destination: a file path (appended), or - for stderr")
	flag.Parse()

	// Slow-query log destination. The server serializes writes, so an
	// O_APPEND file or stderr both yield intact JSON lines.
	var slowSink io.Writer
	if *slowLog != "" {
		if *slowLog == "-" {
			slowSink = os.Stderr
		} else {
			f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("open slow-query log: %w", err)
			}
			defer f.Close()
			slowSink = f
		}
	}

	// pprof gets its own listener so profiling endpoints never share the
	// query port: net/http/pprof registers on DefaultServeMux, which the
	// query server deliberately does not use.
	if *pprofAddr != "" {
		lis, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		log.Printf("pprof listening on %s (GET /debug/pprof/)", lis.Addr())
		go func() {
			if err := http.Serve(lis, http.DefaultServeMux); err != nil {
				log.Printf("pprof server stopped: %v", err)
			}
		}()
	}

	o := datagen.MED()
	switch *dataset {
	case "MED":
	case "FIN":
		o = datagen.FIN()
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}

	var st storage.Builder
	var dsk *diskstore.Store
	var err error
	switch *backend {
	case "memstore":
		st = memstore.New()
	case "diskstore":
		dir := *dataDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "pgsserve-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		dsk, err = diskstore.Open(dir, diskstore.Options{CachePages: *cachePages})
		if err != nil {
			return err
		}
		defer dsk.Close()
		st = dsk
	default:
		return fmt.Errorf("unknown backend %q", *backend)
	}

	// Fast restart: a -data-dir that already holds a built store is served
	// as-is — no load, and no dataset generation either unless -optimize
	// needs the generated statistics for the rewrite mapping.
	reuse := dsk != nil && dsk.NumVertices() > 0
	var ds *datagen.Dataset
	if !reuse || *optimize {
		ds, err = datagen.Generate(o, datagen.Options{Seed: *seed, BaseCard: *card})
		if err != nil {
			return err
		}
	}

	// The optimized schema targets the dataset's own microbenchmark
	// workload, the paper's stand-in for "what this service is asked".
	var mapping *core.Mapping
	if *optimize {
		af, err := workload.AFFromQueries(o, workload.MicrobenchmarkFor(*dataset))
		if err != nil {
			return err
		}
		in, err := optimizer.NewInputs(o, ds.Stats, af, core.DefaultConfig())
		if err != nil {
			return err
		}
		total, err := in.NSCCost()
		if err != nil {
			return err
		}
		plan, err := optimizer.PGSG(in, total**budgetPct/100)
		if err != nil {
			return err
		}
		mapping = plan.Result.Mapping
	}

	schema := "direct"
	if mapping != nil {
		schema = fmt.Sprintf("optimized (PGSG, %.4g%% budget)", *budgetPct)
	}
	if reuse {
		// The schema flags must match how the store was built; pgsserve
		// cannot verify that from the files alone.
		log.Printf("reusing existing store in %s: %d vertices, %d edges, %s schema (assumed from flags)",
			*dataDir, dsk.NumVertices(), dsk.NumEdges(), schema)
	} else {
		vertices, edges, err := loader.Load(st, ds, mapping)
		if err != nil {
			return err
		}
		log.Printf("loaded %s on %s: %d vertices, %d edges, %s schema", *dataset, *backend, vertices, edges, schema)
	}
	if dsk != nil {
		f := dsk.Format()
		log.Printf("diskstore format v%d (opened via persisted index: %v)", f.Version, f.IndexLoaded)
		if ls := dsk.LiveStats(); ls.Live {
			log.Printf("live writes enabled (POST /mutate): delta carries %d vertices / %d edges from the WAL",
				ls.DeltaVertices, ls.DeltaEdges)
		}
	}

	// The load leaves its scratch behind as garbage. Request garbage is
	// too scarce to trigger a GC that would return it soon, so collect it
	// once now instead of serving beside it.
	debug.FreeOSMemory()
	srv, err := server.New(server.Config{
		Graph:          storage.Graph(st),
		Mapping:        mapping,
		RewriteOpts:    rewrite.Options{LocalizeScalarLookups: *localize},
		MaxConcurrent:  *maxConcurrent,
		MaxQueued:      *maxQueued,
		QueryWorkers:   *queryWorkers,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		MaxQueryLen:    *maxQueryLen,

		AutoCompactDeltaItems: *autoCompact,
		SlowQueryThreshold:    *slowThreshold,
		SlowQueryLog:          slowSink,
	})
	if err != nil {
		return err
	}
	// Drain on SIGINT/SIGTERM: stop accepting, let in-flight requests
	// finish (each bounded by -timeout), then exit. The handler is
	// installed before the listener opens, so a signal sent the moment
	// /healthz first answers still drains (and flushes a fresh store).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s (POST /query, POST /mutate, GET /healthz, GET /stats, GET /metrics)", bound)
	<-ctx.Done()
	log.Printf("shutting down, draining in-flight requests (up to %v)", *drainWait)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	log.Print("bye")
	return nil
}
