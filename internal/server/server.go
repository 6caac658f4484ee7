// Package server is the network-facing query service: it exposes one
// loaded property graph (direct or optimized schema) over HTTP, running
// incoming Cypher through the same rewrite → plan-cache → compiled-plan
// pipeline the offline tools use, hardened for concurrent load.
//
// Endpoints:
//
//	POST /query   — Cypher in (raw text or {"query": "..."}), JSON rows,
//	                work counters, and the executed (rewritten) text out
//	POST /mutate  — one atomic, WAL-durable mutation batch (backends
//	                implementing storage.MutableGraph; others answer 501)
//	GET  /healthz — liveness: {"status":"ok"} while serving
//	GET  /metrics — every counter, gauge and latency histogram, in
//	                Prometheus text exposition
//	GET  /stats   — what an exposition cannot carry: the top-N query
//	                shapes by p99, the last fold error, and the graph's
//	                per-label and per-type counts
//
// Observability: every request carries an X-Request-Id (client-sent and
// sane, or generated), echoed in the response header and every error
// body. A query sent with ?profile=1 or a leading PROFILE keyword
// returns a per-phase trace (parse, rewrite, plan, execute) and the
// executor's per-step operator counters. Requests at or over
// Config.SlowQueryThreshold are counted and, when Config.SlowQueryLog is
// set, logged as JSON lines.
//
// Load hardening: a bounded admission semaphore (MaxConcurrent executing,
// at most MaxQueued waiting; beyond that requests shed with 429), a
// per-request timeout enforced by context cancellation inside the query
// executor, request-body and query-length limits so hostile input cannot
// balloon the plan-cache key space, and a sync.Pool-recycled JSON encoder
// that keeps the hot response path allocation-flat. Shutdown drains:
// in-flight requests finish (bounded by the request timeout), new ones
// get 503.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// Config sizes a Server. The zero value of every limit field picks the
// package default; Graph is the only mandatory field.
type Config struct {
	// Graph is the store to serve. It must be fully built (the Builder
	// contract) and safe for concurrent readers; both backends are.
	Graph storage.Graph
	// Mapping, when non-nil, is the optimizer's schema mapping: incoming
	// queries are rewritten through it before execution, exactly like
	// pgsquery's OPT side. Nil serves the direct schema.
	Mapping *core.Mapping
	// RewriteOpts tunes the rewriter (e.g. LocalizeScalarLookups).
	RewriteOpts rewrite.Options

	// MaxConcurrent bounds queries executing at once (default
	// DefaultMaxConcurrent).
	MaxConcurrent int
	// MaxQueued bounds queries waiting for an execution slot; arrivals
	// beyond it shed with 429 instead of queueing unboundedly (default
	// DefaultMaxQueued).
	MaxQueued int
	// RequestTimeout bounds one request end to end, queue wait included;
	// expiry cancels the executor mid-traversal (default
	// DefaultRequestTimeout).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds the request body (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxQueryLen bounds the query text in bytes, capping the plan-cache
	// key space a hostile client can allocate (default
	// DefaultMaxQueryLen).
	MaxQueryLen int
	// AutoCompactDeltaItems, when > 0, starts a background compaction
	// after an acknowledged /mutate batch leaves the store's delta
	// segment holding at least this many vertices + edges. Folds are
	// single-flight; 0 disables auto-compaction (POST /admin/compact
	// still works).
	AutoCompactDeltaItems int64
	// QueryWorkers caps morsel-driven intra-query parallelism: each
	// admitted query may fan its root scan out over up to this many
	// worker goroutines (plans and labels below the planner's thresholds
	// stay serial regardless). It composes with admission — total
	// traversal goroutines stay bounded by MaxConcurrent × QueryWorkers —
	// so operators size the two knobs together (default
	// DefaultQueryWorkers, i.e. serial).
	QueryWorkers int
	// SlowQueryThreshold marks /query and /mutate requests at or over
	// this end-to-end latency as slow: they increment
	// pgs_server_slow_queries_total and, when SlowQueryLog is set, emit a
	// JSON line. 0 with a SlowQueryLog set logs every request (useful in
	// tests); 0 without one disables the feature.
	SlowQueryThreshold time.Duration
	// SlowQueryLog, when non-nil, receives one JSON line per slow request
	// (see slowlog.go for the record shape). Writes are serialized by the
	// server; the writer itself need not be concurrency-safe.
	SlowQueryLog io.Writer
}

// Defaults for the Config limit fields.
const (
	DefaultMaxConcurrent  = 16
	DefaultMaxQueued      = 64
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxBodyBytes   = 1 << 20 // 1 MiB
	DefaultMaxQueryLen    = 8 << 10 // 8 KiB
	DefaultQueryWorkers   = 1
)

// /stats reports the topQueries shapes with the highest p99. The shape
// tracker follows at most maxQueryShapes distinct executed texts and
// counts the rest as dropped, so hostile traffic cannot balloon it.
const (
	topQueries     = 5
	maxQueryShapes = 256
)

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = DefaultMaxConcurrent
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = DefaultMaxQueued
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxQueryLen <= 0 {
		c.MaxQueryLen = DefaultMaxQueryLen
	}
	if c.QueryWorkers <= 0 {
		c.QueryWorkers = DefaultQueryWorkers
	}
	return c
}

// Server serves one property graph, cfg.Graph under cfg.Mapping, over
// HTTP for its whole life. Create with New, expose via Handler (tests) or
// Start/Shutdown (a real listener with draining).
type Server struct {
	cfg   Config
	cache *query.Cache
	mux   *http.ServeMux

	sem      chan struct{} // execution slots
	draining atomic.Bool
	started  time.Time
	m        metrics
	shapes   *shapeTracker
	compact  compactState
	slowMu   sync.Mutex // serializes slow-query log lines

	httpSrv *http.Server
}

// New builds a Server for cfg.Graph. It validates the config but opens no
// listener; call Start, or mount Handler yourself.
func New(cfg Config) (*Server, error) {
	if cfg.Graph == nil {
		return nil, errors.New("server: Config.Graph is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   query.NewCache(query.DefaultCacheCapacity),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		started: time.Now(),
		m:       newMetrics(),
		shapes:  newShapeTracker(maxQueryShapes),
	}
	s.registerBridges()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /mutate", s.handleMutate)
	s.mux.HandleFunc("POST /admin/compact", s.handleCompact)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the server's HTTP handler; useful for tests and for
// mounting under an outer mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine, returning the bound address. Use Shutdown to stop.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		// Bound the whole request read: without this a client that opens
		// a request and trickles its body would pin an execution slot
		// forever (io.ReadAll in readQuery is not context-aware), and
		// MaxConcurrent such sockets would shed all legitimate traffic.
		ReadTimeout: s.cfg.RequestTimeout,
	}
	go s.httpSrv.Serve(lis)
	return lis.Addr().String(), nil
}

// Shutdown drains the server: the listener closes, new requests are
// refused (in-process callers of Handler get 503), and in-flight requests
// run to completion — each bounded by the request timeout — before
// Shutdown returns. ctx bounds the total wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// A background fold started via /admin/compact (or auto-compaction)
	// must finish before the caller closes the store underneath it.
	s.compact.wg.Wait()
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// ---- admission control ----

// errSaturated is the 429 shed condition: all execution slots busy and
// the wait queue full.
var errSaturated = errors.New("server saturated: all execution slots busy and queue full")

// admit acquires an execution slot, waiting in the bounded queue if all
// slots are busy. It returns a release func on success, or the HTTP
// status and error to send: 429 when the queue is full (shedding beats
// queueing unboundedly), 503/504 when the caller's context ends first.
func (s *Server) admit(ctx context.Context) (release func(), status int, err error) {
	select {
	case s.sem <- struct{}{}:
	default:
		// No free slot: join the queue if it has room.
		if s.m.queued.Add(1) > int64(s.cfg.MaxQueued) {
			s.m.queued.Add(-1)
			s.m.shed.Add(1)
			return nil, http.StatusTooManyRequests, errSaturated
		}
		select {
		case s.sem <- struct{}{}:
			s.m.queued.Add(-1)
		case <-ctx.Done():
			s.m.queued.Add(-1)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				s.m.timeouts.Add(1)
				return nil, http.StatusGatewayTimeout, fmt.Errorf("timed out waiting for an execution slot: %w", ctx.Err())
			}
			s.m.canceled.Add(1)
			return nil, http.StatusServiceUnavailable, fmt.Errorf("request abandoned while queued: %w", ctx.Err())
		}
	}
	s.m.accepted.Add(1)
	s.m.inflight.Add(1)
	return func() {
		s.m.inflight.Add(-1)
		<-s.sem
	}, 0, nil
}

// ---- handlers ----

// tracePhase is one timed phase of a profiled request.
type tracePhase struct {
	Name string `json:"name"`
	US   int64  `json:"us"`
}

// queryTrace is the "profile" object of a profiled /query response.
type queryTrace struct {
	// Phases times the request pipeline: parse, rewrite (when a mapping
	// is configured), plan (cache fetch or compile), execute.
	Phases       []tracePhase `json:"phases"`
	PlanCacheHit bool         `json:"plan_cache_hit"`
	// SnapshotGeneration is the base file-set generation the query read
	// (live backends only).
	SnapshotGeneration int64 `json:"snapshot_generation,omitempty"`
	// Plan is the executor's per-step operator trace.
	Plan *query.Profile `json:"plan"`
}

// phase records one timed phase, from since to now; a no-op on the nil
// trace of an unprofiled request.
func (t *queryTrace) phase(name string, since time.Time) {
	if t != nil {
		t.span(name, since, time.Now())
	}
}

// now reads the clock for a profiled request; an unprofiled one times
// nothing.
func (t *queryTrace) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records one timed phase, from start to end, on a non-nil trace.
func (t *queryTrace) span(name string, start, end time.Time) {
	t.Phases = append(t.Phases, tracePhase{Name: name, US: end.Sub(start).Microseconds()})
}

// profile unwraps the executor profile from a trace that may be nil.
func (t *queryTrace) profile() *query.Profile {
	if t == nil {
		return nil
	}
	return t.Plan
}

// profileRequested detects PROFILE mode — ?profile=1 or a leading PROFILE
// keyword (case-insensitive, followed by whitespace) — and returns the
// bare query. A URL without a query string is not parsed at all.
func profileRequested(r *http.Request, src string) (string, bool) {
	profiled := false
	if r.URL.RawQuery != "" {
		v := r.URL.Query().Get("profile")
		profiled = v == "1" || v == "true"
	}
	const kw = "PROFILE"
	if len(src) > len(kw) && strings.EqualFold(src[:len(kw)], kw) {
		rest := strings.TrimLeft(src[len(kw):], " \t\r\n")
		if len(rest) < len(src)-len(kw) { // at least one space followed
			return rest, true
		}
	}
	return src, profiled
}

// planQuery is the front half of the read path. The shape pass lifts the
// request's literals out of src (cypher.Shape) and the plan cache is
// looked up by the resulting key. A hit binds the literals into the
// cached plan and splices them into the cached template of the executed
// text: no parse, no rewrite, no render, no compile. A miss parses the
// key, rewrites it through the served mapping and compiles it, once per
// shape. text is the canonical rendering of what will execute — the
// response's executed-query field and the per-shape latency key, so the
// top-N report groups requests that execute identically, whatever their
// source formatting. PROFILE's "parse" phase is the shape pass on a hit
// and the shape pass plus the key's parse on a miss. Every error is the
// client's (400).
func (s *Server) planQuery(src string, trace *queryTrace) (plan *query.Prepared, text string, err error) {
	start := trace.now()
	key, args, err := cypher.Shape(src)
	if err != nil {
		return nil, "", fmt.Errorf("parse: %v", err)
	}
	shaped := trace.now()
	g, mapping := s.cfg.Graph, s.cfg.Mapping
	compiled := false
	var parsed, rewritten time.Time
	shape, hit, err := s.cache.Lookup(g, key, func() (*query.Shape, error) {
		compiled = true
		q, err := cypher.ParseShape(key, src)
		if err != nil {
			return nil, fmt.Errorf("parse: %v", err)
		}
		parsed = trace.now()
		if mapping != nil {
			if q, _, err = rewrite.Rewrite(q, mapping, s.cfg.RewriteOpts); err != nil {
				return nil, fmt.Errorf("rewrite: %v", err)
			}
		}
		rewritten = trace.now()
		sh, err := query.NewShape(g, q)
		if err != nil {
			return nil, fmt.Errorf("compile: %v", err)
		}
		return sh, nil
	})
	if err != nil {
		return nil, "", err
	}
	plan, text = shape.Bind(args), shape.Text(args)
	if trace != nil {
		if compiled {
			trace.span("parse", start, parsed)
			if mapping != nil {
				trace.span("rewrite", parsed, rewritten)
			}
			trace.span("plan", rewritten, time.Now())
		} else {
			trace.span("parse", start, shaped)
			trace.span("plan", shaped, time.Now())
		}
		trace.PlanCacheHit = hit
		if lr, ok := g.(storage.LiveStatsReporter); ok {
			trace.SnapshotGeneration = lr.LiveStats().Generation
		}
	}
	return plan, text, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.m.query.Observe(time.Since(start)) }()
	rid := beginRequest(w, r)

	if s.draining.Load() {
		s.m.drained.Add(1)
		writeError(w, http.StatusServiceUnavailable, rid, "server is draining")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Shed before touching the body: a saturated server should spend as
	// close to zero work as possible on requests it will reject.
	release, status, err := s.admit(ctx)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, rid, err.Error())
		return
	}
	defer release()

	src, status, err := s.readQuery(w, r)
	if err != nil {
		s.m.failed.Add(1)
		writeError(w, status, rid, err.Error())
		return
	}
	var trace *queryTrace
	src, profiled := profileRequested(r, src)
	if profiled {
		trace = &queryTrace{Phases: make([]tracePhase, 0, 4), Plan: new(query.Profile)}
	}
	plan, text, err := s.planQuery(src, trace)
	if err != nil {
		s.m.failed.Add(1)
		writeError(w, http.StatusBadRequest, rid, err.Error())
		return
	}
	// Track the shape only once a plan exists: uncompilable texts must
	// not occupy the bounded tracker — top_queries reports *executed*
	// shapes (timeouts and execution failures included). The clock starts
	// here, not at handler entry: queue wait under saturation is the
	// aggressor's cost, and attributing it to whichever shape happened to
	// be waiting would finger the victims in the top-N report. (The
	// /query endpoint histogram still measures end-to-end latency.)
	execStart := time.Now()
	defer func() { s.shapes.observe(text, time.Since(execStart)) }()

	// Rows go from the executor's finisher straight into the response
	// buffer; nothing is sent until execution has succeeded, so a failure
	// mid-stream discards the buffer and answers with an error body alone.
	var st query.Stats
	enc := getEncoder()
	defer putEncoder(enc)
	enc.buf = appendQueryResponseHead(enc.buf, text, rid, plan.Columns())
	err = plan.Exec(ctx, query.ExecOptions{Workers: s.cfg.QueryWorkers, Stats: &st, Profile: trace.profile()}, enc)
	trace.phase("execute", execStart)
	s.m.qVertices.Add(st.VerticesScanned)
	s.m.qEdges.Add(st.EdgesTraversed)
	s.m.qProps.Add(st.PropsRead)
	s.m.qRows.Add(st.RowsEmitted)
	var profileJSON []byte
	if err == nil && trace != nil {
		// Cold path by definition; reflection-based marshaling is fine.
		if profileJSON, err = json.Marshal(trace); err != nil {
			err = fmt.Errorf("encode profile: %w", err)
		}
	}
	status = http.StatusOK
	switch {
	case err == nil:
		enc.buf = appendQueryResponseTail(enc.buf, &st, time.Since(start).Microseconds(), profileJSON)
		w.Header()["Content-Type"] = jsonContentType
		w.Header().Set("Content-Length", strconv.Itoa(len(enc.buf)))
		w.Write(enc.buf)
	case errors.Is(err, context.DeadlineExceeded):
		s.m.timeouts.Add(1)
		status = http.StatusGatewayTimeout
		writeError(w, status, rid, "query exceeded the request timeout")
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is written into the void but
		// keeps the connection state machine honest.
		s.m.canceled.Add(1)
		status = http.StatusServiceUnavailable
		writeError(w, status, rid, "request canceled")
	default:
		s.m.failed.Add(1)
		status = http.StatusInternalServerError
		writeError(w, status, rid, fmt.Sprintf("execute: %v", err))
	}
	s.noteSlow("/query", rid, src, text, status, time.Since(start), &st, trace.profile())
}

// readQuery extracts the Cypher text from the request body: a JSON
// {"query": "..."} document when the Content-Type says JSON, raw text
// otherwise. It enforces the body-size and query-length limits.
func (s *Server) readQuery(w http.ResponseWriter, r *http.Request) (string, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return "", http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		}
		return "", http.StatusBadRequest, fmt.Errorf("read body: %w", err)
	}
	src := string(body)
	// A raw-text body carries no Content-Type; parsing the empty string
	// would only allocate an error.
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, _, _ := mime.ParseMediaType(ct); mt == "application/json" {
			var req struct {
				Query string `json:"query"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				return "", http.StatusBadRequest, fmt.Errorf("decode JSON body: %w", err)
			}
			src = req.Query
		}
	}
	src = strings.TrimSpace(src)
	if src == "" {
		return "", http.StatusBadRequest, errors.New("empty query")
	}
	if len(src) > s.cfg.MaxQueryLen {
		return "", http.StatusRequestEntityTooLarge,
			fmt.Errorf("query length %d exceeds %d bytes", len(src), s.cfg.MaxQueryLen)
	}
	return src, 0, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.m.healthz.Observe(time.Since(start)) }()
	beginRequest(w, r)
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// StatsResponse is the GET /stats JSON document. It carries only what a
// Prometheus exposition cannot: every number with a fixed series set
// (admission, plan cache, pager, WAL, delta, compaction, latency) lives
// once, in the registry GET /metrics writes.
type StatsResponse struct {
	// TopQueries lists the executed query shapes with the highest p99
	// latency, worst first (topQueries entries at most): query text is an
	// unbounded label.
	TopQueries []QueryShapeStats `json:"top_queries"`
	// LastCompactError is the most recent background fold failure, empty
	// while folds succeed.
	LastCompactError string `json:"last_compact_error,omitempty"`
	// Graph is present only when the backend persists statistics
	// (storage.Statistics): per-label vertex counts and per-type edge
	// counts — the numbers optimizer.FromStorage turns into Equation 5's
	// cardinalities (not yet called outside tests).
	Graph *GraphStats `json:"graph,omitempty"`
}

// GraphStats is the persisted-statistics view of the served graph.
type GraphStats struct {
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// LabelCounts and EdgeTypeCounts come from storage.Statistics;
	// EdgeTypeCounts is absent when the store has no base statistics (a
	// diskstore that has written no generation yet).
	LabelCounts    map[string]int `json:"label_counts,omitempty"`
	EdgeTypeCounts map[string]int `json:"edge_type_counts,omitempty"`
}

// Stats assembles the current StatsResponse; the /stats handler serves
// it and tests read it directly.
func (s *Server) Stats() StatsResponse {
	resp := StatsResponse{
		TopQueries:       s.shapes.top(topQueries),
		LastCompactError: s.lastCompactError(),
	}
	g := s.cfg.Graph
	if st, ok := g.(storage.Statistics); ok {
		resp.Graph = &GraphStats{
			Vertices:       g.NumVertices(),
			Edges:          g.NumEdges(),
			LabelCounts:    st.LabelCounts(),
			EdgeTypeCounts: st.EdgeTypeCounts(),
		}
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.m.stats.Observe(time.Since(start)) }()
	beginRequest(w, r)
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the metric registry in Prometheus text exposition
// format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	beginRequest(w, r)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.reg.WritePrometheus(w)
}

// ---- response helpers ----

// jsonContentType is the Content-Type header value of every JSON
// response, shared: a handler sets it as the header's value slice, which
// nothing mutates, instead of allocating one per response.
var jsonContentType = []string{"application/json"}

// writeJSON marshals v on the cold paths (stats, health, errors); the hot
// /query path uses the pooled encoder instead.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(data)
}

// writeError renders one error body; every error response carries the
// request ID so a client can quote it back when reporting a failure.
func writeError(w http.ResponseWriter, status int, rid, msg string) {
	writeJSON(w, status, map[string]string{"error": msg, "request_id": rid})
}
