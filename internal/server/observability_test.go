package server

// Tests for the observability layer: request-ID propagation (headers and
// error bodies, across every endpoint and every refusal path), the
// Prometheus /metrics exposition (strict-parsed, monotonic across
// scrapes), PROFILE traces, and the structured slow-query log.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
)

func do(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRequestIDPropagation: every endpoint echoes a client-sent
// X-Request-Id; without one a non-empty ID is generated; malformed IDs
// are replaced, not echoed.
func TestRequestIDPropagation(t *testing.T) {
	s, ts, _ := newLiveServer(t)
	// /admin/compact requests below launch real background folds; they
	// must finish before the test's store closes.
	defer s.compact.wg.Wait()
	endpoints := []struct{ method, path, body string }{
		{"POST", "/query", drugQuery},
		{"POST", "/mutate", `{"vertices": [{"labels": ["Drug"]}]}`},
		{"POST", "/admin/compact", ""},
		{"GET", "/healthz", ""},
		{"GET", "/stats", ""},
		{"GET", "/metrics", ""},
	}
	for _, ep := range endpoints {
		req, _ := http.NewRequest(ep.method, ts.URL+ep.path, strings.NewReader(ep.body))
		req.Header.Set("X-Request-Id", "trace-abc.123")
		resp, _ := do(t, req)
		if got := resp.Header.Get("X-Request-Id"); got != "trace-abc.123" {
			t.Errorf("%s %s: X-Request-Id = %q, want client ID echoed", ep.method, ep.path, got)
		}

		req, _ = http.NewRequest(ep.method, ts.URL+ep.path, strings.NewReader(ep.body))
		resp, _ = do(t, req)
		if got := resp.Header.Get("X-Request-Id"); got == "" {
			t.Errorf("%s %s: no generated X-Request-Id", ep.method, ep.path)
		}

		req, _ = http.NewRequest(ep.method, ts.URL+ep.path, strings.NewReader(ep.body))
		req.Header.Set("X-Request-Id", "evil id{with spaces}")
		resp, _ = do(t, req)
		if got := resp.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, "evil") {
			t.Errorf("%s %s: malformed client ID handled as %q, want generated", ep.method, ep.path, got)
		}
	}
}

// TestRequestIDInErrorBodies: error responses carry request_id in the
// body — parse errors, the 429 shed path (with Retry-After), and the
// draining 503.
func TestRequestIDInErrorBodies(t *testing.T) {
	errBody := func(t *testing.T, data []byte) map[string]string {
		t.Helper()
		var m map[string]string
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("error body is not JSON: %v\n%s", err, data)
		}
		return m
	}

	t.Run("parse error", func(t *testing.T) {
		_, ts := newMedServer(t, Config{})
		req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader("NOT CYPHER"))
		req.Header.Set("X-Request-Id", "bad-query-1")
		resp, data := do(t, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if m := errBody(t, data); m["request_id"] != "bad-query-1" || m["error"] == "" {
			t.Errorf("error body = %v, want request_id and error", m)
		}
	})

	t.Run("shed 429", func(t *testing.T) {
		// One slot, zero queue: a request parked in the slot makes the
		// next one shed immediately.
		block := make(chan struct{})
		mem := memstore.New()
		buildMedGraph(t, mem)
		s, err := New(Config{Graph: mem, MaxConcurrent: 1, MaxQueued: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		// Occupy the slot and the queue directly through the semaphore.
		s.sem <- struct{}{}
		s.m.queued.Add(1)
		defer func() { <-s.sem; s.m.queued.Add(-1); close(block) }()

		req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(drugQuery))
		req.Header.Set("X-Request-Id", "shed-1")
		resp, data := do(t, req)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") != "1" {
			t.Errorf("Retry-After = %q", resp.Header.Get("Retry-After"))
		}
		if resp.Header.Get("X-Request-Id") != "shed-1" {
			t.Errorf("shed response lost the request ID header")
		}
		if m := errBody(t, data); m["request_id"] != "shed-1" {
			t.Errorf("shed error body = %v, want request_id", m)
		}
	})

	t.Run("draining 503", func(t *testing.T) {
		for _, path := range []string{"/query", "/mutate", "/admin/compact"} {
			s, ts := newMedServer(t, Config{})
			s.draining.Store(true)
			req, _ := http.NewRequest("POST", ts.URL+path, strings.NewReader(drugQuery))
			req.Header.Set("X-Request-Id", "drain-1")
			resp, data := do(t, req)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("%s: status = %d, want 503", path, resp.StatusCode)
			}
			if m := errBody(t, data); m["request_id"] != "drain-1" {
				t.Errorf("%s: drain error body = %v, want request_id", path, m)
			}
		}
	})
}

// scrapeMetrics fetches /metrics and strict-parses it.
func scrapeMetrics(t *testing.T, ts *httptest.Server) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	exp, err := obs.ParseExposition(data)
	if err != nil {
		t.Fatalf("scrape failed strict parse: %v\n%s", err, data)
	}
	return exp
}

// TestPagerCountersSurviveCompact: pgs_pager_*_total are counters, so a
// scrape after POST /admin/compact swapped the base generation must not
// read lower than the scrape before it — and they keep counting.
func TestPagerCountersSurviveCompact(t *testing.T) {
	s, ts, ds := newLiveServer(t)
	postMutate(t, ts, `{"vertices": [{"labels": ["Drug"], "props": {"name": "Folded"}}]}`)
	for i := 0; i < 3; i++ {
		post(t, ts, drugQuery, "text/plain")
	}
	before := scrapeMetrics(t, ts)
	if before.Samples["pgs_pager_page_hits_total{}"] == 0 {
		t.Fatal("no pager hits before the fold; the check below would be vacuous")
	}
	gen := ds.LiveStats().Generation
	resp, err := http.Post(ts.URL+"/admin/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /admin/compact: status %d", resp.StatusCode)
	}
	s.compact.wg.Wait()
	if got := ds.LiveStats().Generation; got != gen+1 {
		t.Fatalf("generation %d after the fold, want %d", got, gen+1)
	}
	folded := scrapeMetrics(t, ts)
	if err := obs.CheckCounterMonotonic(before, folded); err != nil {
		t.Errorf("across /admin/compact: %v", err)
	}
	post(t, ts, drugQuery, "text/plain")
	after := scrapeMetrics(t, ts)
	if err := obs.CheckCounterMonotonic(folded, after); err != nil {
		t.Errorf("after /admin/compact: %v", err)
	}
	if after.Samples["pgs_pager_page_reads_total{}"] <= folded.Samples["pgs_pager_page_reads_total{}"] {
		t.Error("a query over the new generation's cold pages did not advance pgs_pager_page_reads_total")
	}
}

// TestMetricsExposition: /metrics strict-parses, covers every subsystem
// the ISSUE names, and stays monotonic across scrapes with traffic in
// between.
func TestMetricsExposition(t *testing.T) {
	_, ts, _ := newLiveServer(t)
	scrape := func() *obs.Exposition { return scrapeMetrics(t, ts) }

	first := scrape()
	for _, fam := range []string{
		"pgs_server_requests_total", "pgs_server_inflight", "pgs_server_queued",
		"pgs_request_latency_seconds", "pgs_query_vertices_scanned_total",
		"pgs_plancache_hits_total", "pgs_plancache_size",
		"pgs_pager_page_reads_total",
		"pgs_wal_appends_total", "pgs_wal_sync_seconds_total",
		"pgs_delta_vertices", "pgs_compact_generation", "pgs_compact_folds_total",
		"pgs_server_slow_queries_total", "pgs_server_uptime_seconds",
		"pgs_server_max_concurrent", "pgs_server_max_queued", "pgs_server_query_workers",
		"pgs_storage_live", "pgs_storage_edge_bytes",
	} {
		if _, ok := first.Types[fam]; !ok {
			t.Errorf("family %s missing from exposition", fam)
		}
	}

	// Traffic between scrapes: queries and a mutation.
	for i := 0; i < 3; i++ {
		post(t, ts, drugQuery, "text/plain")
	}
	postMutate(t, ts, `{"vertices": [{"labels": ["Drug"], "props": {"name": "New"}}]}`)

	second := scrape()
	if err := obs.CheckCounterMonotonic(first, second); err != nil {
		t.Errorf("counters not monotonic across scrapes: %v", err)
	}
	key := `pgs_server_requests_total{outcome="accepted"}`
	if second.Samples[key] < first.Samples[key]+4 {
		t.Errorf("accepted: %v -> %v, want +4 or more", first.Samples[key], second.Samples[key])
	}
	if second.Samples["pgs_query_rows_emitted_total{}"] < 6 {
		t.Errorf("rows emitted total = %v, want >= 6", second.Samples["pgs_query_rows_emitted_total{}"])
	}
	if second.Samples["pgs_wal_appends_total{}"] < 1 {
		t.Errorf("wal appends = %v, want >= 1", second.Samples["pgs_wal_appends_total{}"])
	}
}

// profiledResponse is queryResponse plus the profile object.
type profiledResponse struct {
	queryResponse
	RequestID string `json:"request_id"`
	Profile   *struct {
		Phases []struct {
			Name string `json:"name"`
			US   int64  `json:"us"`
		} `json:"phases"`
		PlanCacheHit bool `json:"plan_cache_hit"`
		Plan         *struct {
			Steps []struct {
				Op       string `json:"op"`
				Target   string `json:"target"`
				Visited  int64  `json:"visited"`
				Produced int64  `json:"produced"`
			} `json:"steps"`
			Parallel bool `json:"parallel"`
			Workers  int  `json:"workers"`
		} `json:"plan"`
	} `json:"profile"`
}

func postProfiled(t *testing.T, ts *httptest.Server, path, body string) (int, profiledResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var pr profiledResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, data)
	}
	return resp.StatusCode, pr
}

// TestProfileMode: both spellings return a trace whose phases and
// per-step counters are consistent with the response's stats, and an
// unprofiled request carries no profile.
func TestProfileMode(t *testing.T) {
	_, ts := newMedServer(t, Config{})
	twoHop := `MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc`

	for _, tc := range []struct{ name, path, body string }{
		{"query param", "/query?profile=1", twoHop},
		{"PROFILE keyword", "/query", "PROFILE " + twoHop},
	} {
		status, pr := postProfiled(t, ts, tc.path, tc.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d (%s)", tc.name, status, pr.Error)
		}
		if pr.Profile == nil || pr.Profile.Plan == nil {
			t.Fatalf("%s: no profile in response", tc.name)
		}
		if pr.RequestID == "" {
			t.Errorf("%s: success body lacks request_id", tc.name)
		}
		phases := map[string]bool{}
		for _, ph := range pr.Profile.Phases {
			if ph.US < 0 {
				t.Errorf("%s: phase %s negative duration", tc.name, ph.Name)
			}
			phases[ph.Name] = true
		}
		for _, want := range []string{"parse", "plan", "execute"} {
			if !phases[want] {
				t.Errorf("%s: missing phase %q in %v", tc.name, want, pr.Profile.Phases)
			}
		}
		steps := pr.Profile.Plan.Steps
		if len(steps) != 3 { // scan Drug, expand treat, project
			t.Fatalf("%s: steps = %+v, want 3", tc.name, steps)
		}
		if steps[0].Op != "scan" || steps[0].Target != "Drug" {
			t.Errorf("%s: step0 = %+v", tc.name, steps[0])
		}
		// Per-step counters must sum to the response's coarse stats.
		if steps[0].Visited != pr.Stats.VerticesScanned {
			t.Errorf("%s: scan visited %d != vertices_scanned %d",
				tc.name, steps[0].Visited, pr.Stats.VerticesScanned)
		}
		if steps[1].Visited != pr.Stats.EdgesTraversed {
			t.Errorf("%s: expand visited %d != edges_traversed %d",
				tc.name, steps[1].Visited, pr.Stats.EdgesTraversed)
		}
		if steps[2].Produced != pr.Stats.RowsEmitted || steps[2].Produced != int64(len(pr.Rows)) {
			t.Errorf("%s: project produced %d, rows_emitted %d, rows %d",
				tc.name, steps[2].Produced, pr.Stats.RowsEmitted, len(pr.Rows))
		}
		// The executed text must not retain the PROFILE keyword.
		if strings.Contains(strings.ToUpper(pr.Query), "PROFILE") {
			t.Errorf("%s: executed text retains PROFILE: %q", tc.name, pr.Query)
		}
	}

	// Unprofiled requests carry no profile object.
	status, pr := postProfiled(t, ts, "/query", twoHop)
	if status != http.StatusOK || pr.Profile != nil {
		t.Errorf("unprofiled request returned a profile (status %d)", status)
	}

	// The second profiled request must see a plan-cache hit: PROFILE and
	// plain requests share the same canonical cache key.
	_, pr = postProfiled(t, ts, "/query?profile=1", twoHop)
	if pr.Profile == nil || !pr.Profile.PlanCacheHit {
		t.Error("second profiled request did not report a plan-cache hit")
	}
}

// TestProfileModeWorkers: PROFILE reports the same per-step counters and
// the same phases whether the query ran on one inline morsel or on four
// workers, and says which it was.
func TestProfileModeWorkers(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 4} {
		// The empty mapping rewrites nothing, but makes the rewrite phase run.
		_, ts := newMedServer(t, Config{Graph: buildWideGraph(t, n), Mapping: &core.Mapping{}, QueryWorkers: workers})
		status, pr := postProfiled(t, ts, "/query", "PROFILE MATCH (d:Drug) RETURN d.name")
		if status != http.StatusOK || pr.Profile == nil || pr.Profile.Plan == nil {
			t.Fatalf("workers=%d: status %d, profile %+v", workers, status, pr.Profile)
		}
		var phases []string
		for _, ph := range pr.Profile.Phases {
			phases = append(phases, ph.Name)
		}
		if fmt.Sprint(phases) != "[parse rewrite plan execute]" {
			t.Errorf("workers=%d: phases = %v", workers, phases)
		}
		plan := pr.Profile.Plan
		if plan.Parallel != (workers > 1) || (workers > 1) != (plan.Workers > 1) {
			t.Errorf("workers=%d: profile reports parallel=%v on %d workers", workers, plan.Parallel, plan.Workers)
		}
		if len(plan.Steps) != 2 || plan.Steps[0].Visited != n || plan.Steps[0].Produced != n ||
			plan.Steps[1].Visited != n || plan.Steps[1].Produced != n {
			t.Errorf("workers=%d: steps = %+v, want scan and project of %d each", workers, plan.Steps, n)
		}
		if pr.Stats.VerticesScanned != n || pr.Stats.RowsEmitted != n || len(pr.Rows) != n {
			t.Errorf("workers=%d: stats = %+v with %d rows, want %d", workers, pr.Stats, len(pr.Rows), n)
		}
	}
}

// TestSlowQueryLog: with a zero threshold and a sink every /query and
// /mutate request emits one JSON line carrying request ID, endpoint,
// latency, and (for profiled queries) the per-step trace; the counter
// tracks the log.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	mem := memstore.New()
	buildMedGraph(t, mem)
	s, err := New(Config{Graph: mem, SlowQueryLog: &buf, SlowQueryThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/query?profile=1", strings.NewReader(drugQuery))
	req.Header.Set("X-Request-Id", "slow-1")
	do(t, req)
	req, _ = http.NewRequest("POST", ts.URL+"/query", strings.NewReader("NOT CYPHER"))
	do(t, req) // parse errors do not reach the slow log

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log lines = %d, want 1:\n%s", len(lines), buf.String())
	}
	var e struct {
		TS        string `json:"ts"`
		RequestID string `json:"request_id"`
		Endpoint  string `json:"endpoint"`
		Source    string `json:"source"`
		Query     string `json:"query"`
		Status    int    `json:"status"`
		ElapsedUS int64  `json:"elapsed_us"`
		Stats     *struct {
			RowsEmitted int64 `json:"rows_emitted"`
		} `json:"stats"`
		Profile *struct {
			Steps []json.RawMessage `json:"steps"`
		} `json:"profile"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, lines[0])
	}
	if e.RequestID != "slow-1" || e.Endpoint != "/query" || e.Status != http.StatusOK {
		t.Errorf("entry = %+v", e)
	}
	if _, err := time.Parse(time.RFC3339Nano, e.TS); err != nil {
		t.Errorf("ts %q not RFC3339Nano: %v", e.TS, err)
	}
	if e.Source != drugQuery || e.Query != drugQuery || e.Stats == nil || e.Stats.RowsEmitted != 2 {
		t.Errorf("entry missing source/query/stats: %+v", e)
	}
	if e.Profile == nil || len(e.Profile.Steps) == 0 {
		t.Errorf("profiled request's log entry lacks the step trace")
	}
	if got := s.m.slowQueries.Load(); got != 1 {
		t.Errorf("slow query counter = %d, want 1", got)
	}

	// The source is the text as sent, the query the text as executed;
	// the second request of a shape (a plan-cache hit) logs both too.
	for _, lit := range []string{"Aspirin", "Ibuprofen"} {
		buf.Reset()
		src := "MATCH (d:Drug {name:'" + lit + "'})  RETURN d.name"
		if status, qr := post(t, ts, src, "text/plain"); status != http.StatusOK {
			t.Fatalf("status = %d (%s)", status, qr.Error)
		}
		e.Source, e.Query = "", ""
		if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
			t.Fatalf("slow log line is not JSON: %v\n%s", err, buf.String())
		}
		if want := `MATCH (d:Drug {name: "` + lit + `"}) RETURN d.name`; e.Source != src || e.Query != want {
			t.Errorf("source %q, query %q; want %q and %q", e.Source, e.Query, src, want)
		}
	}

	// A threshold far above any latency suppresses logging but the
	// endpoint keeps working.
	buf.Reset()
	s.cfg.SlowQueryThreshold = time.Hour
	if status, qr := post(t, ts, drugQuery, "text/plain"); status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, qr.Error)
	}
	if buf.Len() != 0 {
		t.Errorf("fast request logged as slow:\n%s", buf.String())
	}
}

// failingFoldStore is a diskstore whose every fold fails.
type failingFoldStore struct{ *diskstore.Store }

func (failingFoldStore) Compact() error { return errors.New("injected fold failure") }

// TestStatsCarriesOnlyWhatMetricsCannot: every number with a fixed series
// set lives in /metrics alone, so /stats on a diskstore whose fold failed
// holds exactly the top-N query shapes, the fold's error and the graph
// section.
func TestStatsCarriesOnlyWhatMetricsCannot(t *testing.T) {
	_, _, ds := newLiveServer(t)
	s, ts := newMedServer(t, Config{Graph: failingFoldStore{ds}})
	if status, qr := post(t, ts, drugQuery, "text/plain"); status != http.StatusOK {
		t.Fatalf("query: status %d (%s)", status, qr.Error)
	}
	resp, err := http.Post(ts.URL+"/admin/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /admin/compact: status %d", resp.StatusCode)
	}
	s.compact.wg.Wait()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	_, data := do(t, req)
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("/stats is not a JSON object: %v\n%s", err, data)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, " "); got != "graph last_compact_error top_queries" {
		t.Errorf("/stats keys = %s, want graph last_compact_error top_queries", got)
	}
	if got := doc["last_compact_error"]; got != "injected fold failure" {
		t.Errorf("last_compact_error = %v", got)
	}
}
