package server

// The server's metric set, built on the central internal/obs registry.
// Request-path counters and latency histograms are registered eagerly at
// New; subsystems that keep their own atomics (plan cache, pager, WAL,
// compaction) are bridged with func-backed series read at scrape time.
// GET /metrics writes the registry in Prometheus text format. It is the
// one read-out of every number here; GET /stats carries only what an
// exposition cannot (see StatsResponse).

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Histogram and HistogramSnapshot are the obs types, aliased for the
// shape tracker and its /stats top-N report.
type (
	Histogram         = obs.Histogram
	HistogramSnapshot = obs.HistogramSnapshot
)

// metrics is the server's registered metric set. Counters are written on
// the request path and read by /metrics scrapes.
type metrics struct {
	reg *obs.Registry

	// Admission outcomes: pgs_server_requests_total{outcome}.
	accepted *obs.Counter // requests that won an execution slot
	shed     *obs.Counter // 429s: queue full at arrival
	drained  *obs.Counter // 503s sent because the server is draining
	timeouts *obs.Counter // request deadline expired (queued or mid-query)
	canceled *obs.Counter // client went away (queued or mid-query)
	failed   *obs.Counter // 4xx/5xx other than shed/drain/timeout

	inflight *obs.Gauge // currently executing
	queued   *obs.Gauge // currently waiting for a slot

	// Per-endpoint latency: pgs_request_latency_seconds{endpoint}.
	query   *Histogram
	mutate  *Histogram
	compact *Histogram
	healthz *Histogram
	stats   *Histogram

	// Query work totals across all requests (the per-request values ride
	// in the response body): pgs_query_*_total.
	qVertices *obs.Counter
	qEdges    *obs.Counter
	qProps    *obs.Counter
	qRows     *obs.Counter

	slowQueries *obs.Counter
}

// newMetrics registers the server's own series into a fresh registry.
// Func-backed bridges to the plan cache and the served store are added
// separately (registerBridges) once the Server exists.
func newMetrics() metrics {
	reg := obs.NewRegistry()
	outcome := func(v string) *obs.Counter {
		return reg.NewCounter("pgs_server_requests_total",
			"Requests by admission outcome.", obs.L("outcome", v))
	}
	lat := func(endpoint string) *Histogram {
		return reg.NewHistogram("pgs_request_latency_seconds",
			"End-to-end request latency by endpoint.", obs.L("endpoint", endpoint))
	}
	return metrics{
		reg:      reg,
		accepted: outcome("accepted"),
		shed:     outcome("shed"),
		drained:  outcome("drained"),
		timeouts: outcome("timeout"),
		canceled: outcome("canceled"),
		failed:   outcome("failed"),
		inflight: reg.NewGauge("pgs_server_inflight", "Requests currently executing."),
		queued:   reg.NewGauge("pgs_server_queued", "Requests waiting for an execution slot."),
		query:    lat("/query"),
		mutate:   lat("/mutate"),
		compact:  lat("/admin/compact"),
		healthz:  lat("/healthz"),
		stats:    lat("/stats"),
		qVertices: reg.NewCounter("pgs_query_vertices_scanned_total",
			"Vertices scanned by all executed queries."),
		qEdges: reg.NewCounter("pgs_query_edges_traversed_total",
			"Edges traversed by all executed queries."),
		qProps: reg.NewCounter("pgs_query_props_read_total",
			"Property reads by all executed queries."),
		qRows: reg.NewCounter("pgs_query_rows_emitted_total",
			"Rows emitted by all executed queries."),
		slowQueries: reg.NewCounter("pgs_server_slow_queries_total",
			"Requests at or over the slow-query threshold."),
	}
}

// registerBridges adds the series that need the Server: its fixed
// limits, and func-backed series that read other subsystems' own
// counters at scrape time; backends without the relevant reporter
// interface read as 0.
func (s *Server) registerBridges() {
	reg := s.m.reg
	sr, _ := s.cfg.Graph.(storage.StatsReporter)
	lr, _ := s.cfg.Graph.(storage.LiveStatsReporter)

	reg.GaugeFunc("pgs_server_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })

	// Configuration, fixed at New.
	reg.NewGauge("pgs_server_max_concurrent", "Execution slots (Config.MaxConcurrent).").Set(int64(s.cfg.MaxConcurrent))
	reg.NewGauge("pgs_server_max_queued", "Admission queue bound (Config.MaxQueued).").Set(int64(s.cfg.MaxQueued))
	reg.NewGauge("pgs_server_query_workers", "Morsel workers per query (Config.QueryWorkers).").Set(int64(s.cfg.QueryWorkers))

	// Plan cache.
	reg.CounterFunc("pgs_plancache_hits_total", "Plan-cache lookups served from cache.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("pgs_plancache_misses_total", "Plan-cache lookups that found no ready plan.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("pgs_plancache_shared_total", "Cold lookups served by an in-flight compile.",
		func() float64 { return float64(s.cache.Stats().Shared) })
	reg.GaugeFunc("pgs_plancache_size", "Plans currently cached.",
		func() float64 { return float64(s.cache.Stats().Size) })
	reg.GaugeFunc("pgs_plancache_capacity", "Plan-cache capacity.",
		func() float64 { return float64(s.cache.Stats().Capacity) })

	// Query-shape tracker overflow.
	reg.CounterFunc("pgs_server_query_shapes_dropped_total",
		"Shape-latency observations dropped because the tracker was full.",
		func() float64 { return float64(s.shapes.dropped.Load()) })

	// Pager I/O (diskstore; memstore reads as 0).
	pager := func(pick func(storage.Stats) int64) func() float64 {
		return func() float64 {
			if sr != nil {
				return float64(pick(sr.Stats()))
			}
			return 0
		}
	}
	reg.CounterFunc("pgs_pager_page_hits_total", "Page-cache hits.",
		pager(func(ps storage.Stats) int64 { return ps.PageHits }))
	reg.CounterFunc("pgs_pager_page_misses_total", "Page-cache misses.",
		pager(func(ps storage.Stats) int64 { return ps.PageMisses }))
	reg.CounterFunc("pgs_pager_page_reads_total", "Pages read from disk.",
		pager(func(ps storage.Stats) int64 { return ps.PageReads }))

	// Live-write storage: WAL, delta segment, compaction.
	live := func(pick func(storage.LiveStats) float64) func() float64 {
		return func() float64 {
			if lr != nil {
				return pick(lr.LiveStats())
			}
			return 0
		}
	}
	reg.GaugeFunc("pgs_storage_live", "1 while the store accepts POST /mutate.",
		live(func(ls storage.LiveStats) float64 { return oneIf(ls.Live) }))
	reg.GaugeFunc("pgs_storage_edge_bytes", "Bytes of the base adjacency on disk.",
		live(func(ls storage.LiveStats) float64 { return float64(ls.EdgeBytes) }))
	reg.CounterFunc("pgs_wal_appends_total", "Mutation batches appended to the WAL.",
		live(func(ls storage.LiveStats) float64 { return float64(ls.WALAppends) }))
	reg.CounterFunc("pgs_wal_syncs_total", "WAL fsyncs (group commits).",
		live(func(ls storage.LiveStats) float64 { return float64(ls.WALSyncs) }))
	reg.CounterFunc("pgs_wal_bytes_total", "Bytes appended to the WAL.",
		live(func(ls storage.LiveStats) float64 { return float64(ls.WALBytes) }))
	reg.CounterFunc("pgs_wal_sync_seconds_total", "Cumulative WAL fsync time.",
		live(func(ls storage.LiveStats) float64 { return float64(ls.WALSyncNanos) / 1e9 }))
	reg.GaugeFunc("pgs_delta_vertices", "Vertices in the live delta segment.",
		live(func(ls storage.LiveStats) float64 { return float64(ls.DeltaVertices) }))
	reg.GaugeFunc("pgs_delta_edges", "Edges in the live delta segment.",
		live(func(ls storage.LiveStats) float64 { return float64(ls.DeltaEdges) }))
	reg.GaugeFunc("pgs_compact_generation", "Base file-set generation serving reads.",
		live(func(ls storage.LiveStats) float64 { return float64(ls.Generation) }))
	reg.GaugeFunc("pgs_compact_fold_running", "1 while a background fold runs.",
		live(func(ls storage.LiveStats) float64 { return oneIf(ls.FoldRunning) }))
	reg.GaugeFunc("pgs_compact_fold_progress_permille", "Background fold progress, 0-1000.",
		live(func(ls storage.LiveStats) float64 { return float64(ls.FoldProgress) }))
	reg.GaugeFunc("pgs_compact_pinned_snapshots", "Acquired-but-unreleased store snapshots.",
		live(func(ls storage.LiveStats) float64 { return float64(ls.PinnedSnapshots) }))
	reg.CounterFunc("pgs_compact_folds_total", "Folds committed since the store opened.",
		live(func(ls storage.LiveStats) float64 { return float64(ls.Compactions) }))
}

// oneIf is a boolean as a 0/1 gauge value.
func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// QueryShapeStats is one executed query text's latency summary in the
// /stats response.
type QueryShapeStats struct {
	Query string `json:"query"`
	HistogramSnapshot
}

// shapeTracker maintains one latency Histogram per executed (canonical,
// post-rewrite) query text, bounded to a fixed number of distinct shapes
// so hostile traffic cannot balloon it. The hot path is one RLock'd map
// lookup plus the histogram's atomic Observe; the write lock is taken
// only the first time a shape is seen. Shapes arriving past the capacity
// are counted in dropped rather than tracked. Shape histograms stay out
// of the Prometheus registry on purpose: an unbounded-cardinality label
// (query text) has no place in an exposition; /stats reports the top-N.
type shapeTracker struct {
	mu      sync.RWMutex
	shapes  map[string]*Histogram
	cap     int
	dropped atomic.Int64
}

func newShapeTracker(capacity int) *shapeTracker {
	return &shapeTracker{shapes: make(map[string]*Histogram), cap: capacity}
}

func (t *shapeTracker) observe(text string, d time.Duration) {
	t.mu.RLock()
	h := t.shapes[text]
	t.mu.RUnlock()
	if h == nil {
		t.mu.Lock()
		if h = t.shapes[text]; h == nil {
			if len(t.shapes) >= t.cap {
				t.mu.Unlock()
				t.dropped.Add(1)
				return
			}
			h = &Histogram{}
			t.shapes[text] = h
		}
		t.mu.Unlock()
	}
	h.Observe(d)
}

// top returns the k tracked shapes with the highest p99 latency,
// worst first (ties broken by count, then query text, for a stable
// /stats response).
func (t *shapeTracker) top(k int) []QueryShapeStats {
	t.mu.RLock()
	out := make([]QueryShapeStats, 0, len(t.shapes))
	for text, h := range t.shapes {
		out = append(out, QueryShapeStats{Query: text, HistogramSnapshot: h.Snapshot()})
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].P99US != out[j].P99US {
			return out[i].P99US > out[j].P99US
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Query < out[j].Query
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
