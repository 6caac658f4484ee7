package main

// twin.go is the ONLY file of the benchmark that imports repro/internal/...
// Everything else drives the real pgsserve binary over HTTP as a black box.
//
// The twin is an in-process copy of what a pgsserve child builds and runs:
// the same dataset, schema mapping and backend, assembled by calling the
// layers' public functions directly so the traced pass can put a span
// around each call. It exists for per-layer numbers only; no end-to-end
// metric ever comes from it.
//
// Pinned surface — the entry points this benchmark holds still. A refactor
// that renames or re-shapes one of these must keep a compatible entry
// point (or the benchmark stops compiling, which is the point):
//
//	datagen.MED, datagen.FIN, datagen.Generate, datagen.Options{Seed, BaseCard}
//	workload.MicrobenchmarkFor, workload.Generate(.., workload.Zipf, ..),
//	workload.AFFromQueries, workload.Query{Text}
//	core.DefaultConfig, core.Mapping
//	optimizer.NewInputs, (*Inputs).NSCCost, (*Inputs).BenefitRatio,
//	optimizer.PGSG, Plan.Result.Mapping
//	loader.Load
//	memstore.New, diskstore.Open, diskstore.Options{CachePages},
//	storage.Builder (Close), storage.Graph (ForEachVertex, ForEachOut, Prop)
//	cypher.Parse, (*cypher.Query).String
//	rewrite.Rewrite, rewrite.Options{LocalizeScalarLookups}
//	query.NewCache, (*Cache).GetWithInfo,
//	(*Prepared).ExecuteParallelContextWithStats, query.Stats, query.Result.Rows

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/loader"
	"repro/internal/ontology"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/workload"
)

// budgetPct mirrors pgsserve's -budget-pct default; the twin must choose
// the same schema the child serves.
const budgetPct = 50

func twinOntology(dataset string) (*ontology.Ontology, error) {
	switch dataset {
	case "MED":
		return datagen.MED(), nil
	case "FIN":
		return datagen.FIN(), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", dataset)
}

// microbenchmarkTexts returns the paper's microbenchmark queries of one
// dataset, by name (Q1..Q12), as DIR-level Cypher text.
func microbenchmarkTexts(dataset string) map[string]string {
	out := map[string]string{}
	for _, q := range workload.MicrobenchmarkFor(dataset) {
		out[q.Name] = q.Text
	}
	return out
}

// zipfMixTexts returns n DIR-level query texts drawn by the repo's Zipf
// workload generator over the dataset's ontology.
func zipfMixTexts(dataset string, n int, seed int64) ([]string, error) {
	o, err := twinOntology(dataset)
	if err != nil {
		return nil, err
	}
	wl, err := workload.Generate(o, n, workload.Zipf, seed)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(wl.Queries))
	for i, q := range wl.Queries {
		out[i] = q.Text
	}
	return out, nil
}

// twinTimings are the set-up layer times of one twin build, in seconds,
// plus the loader's counts and the optimizer's predicted benefit ratio.
type twinTimings struct {
	GenerateS    float64
	PGSGS        float64
	LoadS        float64
	OpenS        float64 // diskstore only: reopen of the loaded store
	Vertices     int
	Edges        int
	BenefitRatio float64 // 0 when the schema is direct
}

// twin is one in-process replica of a served configuration.
type twin struct {
	spec    serverSpec
	graph   storage.Graph
	closer  storage.Builder
	mapping *core.Mapping
	cache   *query.Cache
	timings twinTimings
}

// buildTwin assembles the replica for spec, recording one set-up span per
// layer call into tr. dir is where a diskstore twin keeps its files.
func buildTwin(spec serverSpec, dir string, tr *tracer) (*twin, error) {
	t := &twin{spec: spec}
	o, err := twinOntology(spec.Dataset)
	if err != nil {
		return nil, err
	}

	sp := tr.begin("datagen.Generate", "", "setup")
	ds, err := datagen.Generate(o, datagen.Options{Seed: spec.Seed, BaseCard: spec.Card})
	t.timings.GenerateS = tr.end(sp).Seconds()
	if err != nil {
		return nil, err
	}

	if spec.Optimize {
		sp = tr.begin("optimizer.PGSG", "", "setup")
		af, err := workload.AFFromQueries(o, workload.MicrobenchmarkFor(spec.Dataset))
		if err != nil {
			return nil, err
		}
		in, err := optimizer.NewInputs(o, ds.Stats, af, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		total, err := in.NSCCost()
		if err != nil {
			return nil, err
		}
		plan, err := optimizer.PGSG(in, total*budgetPct/100)
		if err != nil {
			return nil, err
		}
		t.timings.PGSGS = tr.end(sp).Seconds()
		t.mapping = plan.Result.Mapping
		if t.timings.BenefitRatio, err = in.BenefitRatio(plan); err != nil {
			return nil, err
		}
	}

	var st storage.Builder
	switch spec.Backend {
	case "memstore":
		st = memstore.New()
	case "diskstore":
		// Load with the server's load-time cache, then (below) reopen at
		// the serving cache size, exactly as the child is restarted.
		dsk, err := diskstore.Open(filepath.Join(dir, "twin"), diskstore.Options{CachePages: loadCachePages})
		if err != nil {
			return nil, err
		}
		st = dsk
	default:
		return nil, fmt.Errorf("unknown backend %q", spec.Backend)
	}
	sp = tr.begin("loader.Load", "", "setup")
	t.timings.Vertices, t.timings.Edges, err = loader.Load(st, ds, t.mapping)
	t.timings.LoadS = tr.end(sp).Seconds()
	if err != nil {
		st.Close()
		return nil, err
	}
	if spec.Backend == "diskstore" {
		if err := st.Close(); err != nil {
			return nil, err
		}
		sp = tr.begin("diskstore.Open", "", "setup")
		dsk, err := diskstore.Open(filepath.Join(dir, "twin"), diskstore.Options{CachePages: spec.CachePages})
		t.timings.OpenS = tr.end(sp).Seconds()
		if err != nil {
			return nil, err
		}
		st = dsk
	}
	t.graph = storage.Graph(st)
	t.closer = st
	t.cache = query.NewCache(0) // the server's default capacity, which every workload serves with
	return t, nil
}

func (t *twin) close() error { return t.closer.Close() }

// layerSample is one request's time in each layer of the read path, as
// seen by the twin, plus the executor's work counters.
type layerSample struct {
	Parse, Rewrite, Plan, Execute time.Duration
	CacheHit                      bool
	Stats                         query.Stats
	Rows                          int
	Executed                      string // the text the plan cache was keyed by
}

// replay runs one request through the read path the server's handler
// uses — parse, rewrite (optimized schemas only), plan-cache fetch,
// execute with one worker — with a span around each layer call.
func (t *twin) replay(ctx context.Context, text, reqID string, tr *tracer) (layerSample, error) {
	var s layerSample
	root := tr.begin("twin.request", reqID, "")

	sp := tr.child(root, "cypher.Parse")
	parsed, err := cypher.Parse(text)
	s.Parse = tr.end(sp)
	if err != nil {
		return s, fmt.Errorf("parse %q: %w", text, err)
	}

	executed := parsed
	if t.mapping != nil {
		sp = tr.child(root, "rewrite.Rewrite")
		executed, _, err = rewrite.Rewrite(parsed, t.mapping, rewrite.Options{LocalizeScalarLookups: t.spec.Localize})
		s.Rewrite = tr.end(sp)
		if err != nil {
			return s, fmt.Errorf("rewrite %q: %w", text, err)
		}
	}

	sp = tr.child(root, "query.Cache.GetWithInfo")
	s.Executed = executed.String()
	plan, hit, err := t.cache.GetWithInfo(t.graph, s.Executed)
	s.Plan = tr.end(sp)
	if err != nil {
		return s, fmt.Errorf("plan %q: %w", s.Executed, err)
	}
	s.CacheHit = hit

	sp = tr.child(root, "query.Prepared.Execute")
	res, err := plan.ExecuteParallelContextWithStats(ctx, 1, &s.Stats)
	s.Execute = tr.end(sp)
	if err != nil {
		return s, fmt.Errorf("execute %q: %w", s.Executed, err)
	}
	s.Rows = len(res.Rows)
	tr.end(root)
	return s, nil
}

// replayAllocs replays texts once more, plans already cached, and
// returns heap allocations and bytes per request across the whole pass.
// It runs apart from the timed replay: reading MemStats stops the world.
func (t *twin) replayAllocs(ctx context.Context, texts []string) (allocs, bytes float64, err error) {
	var nop tracer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, text := range texts {
		if _, err := t.replay(ctx, text, "", &nop); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(texts))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}

// probeResult is the direct storage probe: nanoseconds per element of
// the three storage.Graph calls every plan is built from.
type probeResult struct {
	NsPerVertex, NsPerEdge, NsPerProp float64
	Vertices, Edges, Props            int
}

// probeVerticesPerLabel caps the edge and property probes; the vertex
// scan itself always covers the whole label.
const probeVerticesPerLabel = 2000

// probe times ForEachVertex over each root label, then ForEachOut and Prop
// over the first probeVerticesPerLabel vertices of it. labelKeys maps a
// root label to the property keys the workload reads on it.
func (t *twin) probe(labelKeys map[string][]string, tr *tracer) probeResult {
	var r probeResult
	var scanNs, edgeNs, propNs time.Duration
	for _, label := range sortedKeys(labelKeys) {
		var vids []storage.VID
		sp := tr.begin("storage.ForEachVertex", "", "probe")
		t.graph.ForEachVertex(label, func(v storage.VID) bool {
			r.Vertices++
			if len(vids) < probeVerticesPerLabel {
				vids = append(vids, v)
			}
			return true
		})
		scanNs += tr.end(sp)

		sp = tr.begin("storage.ForEachOut", "", "probe")
		for _, v := range vids {
			t.graph.ForEachOut(v, "", func(storage.EID, storage.VID) bool {
				r.Edges++
				return true
			})
		}
		edgeNs += tr.end(sp)

		sp = tr.begin("storage.Prop", "", "probe")
		for _, key := range labelKeys[label] {
			for _, v := range vids {
				t.graph.Prop(v, key)
				r.Props++
			}
		}
		propNs += tr.end(sp)
	}
	r.NsPerVertex = perElement(scanNs, r.Vertices)
	r.NsPerEdge = perElement(edgeNs, r.Edges)
	r.NsPerProp = perElement(propNs, r.Props)
	return r
}

func perElement(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
