package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

// buildMedGraph loads the Figure 1(b)-style fixture shared with the query
// package's tests: two drugs, two indications, one treat fan-out.
func buildMedGraph(t *testing.T, b storage.Builder) {
	t.Helper()
	var g storetest.Batch
	d1, d2 := g.Vertex("Drug"), g.Vertex("Drug")
	i1, i2 := g.Vertex("Indication"), g.Vertex("Indication")
	g.Prop(d1, "name", graph.S("Aspirin"))
	g.Prop(d2, "name", graph.S("Ibuprofen"))
	g.Prop(i1, "desc", graph.S("Fever"))
	g.Prop(i2, "desc", graph.S("Headache"))
	g.Edge(d1, i1, "treat")
	g.Edge(d1, i2, "treat")
	g.Edge(d2, i1, "treat")
	mustLoad(t, b, &g)
}

// mustLoad writes g into b, a store that holds nothing, as its one bulk
// load.
func mustLoad(t *testing.T, b storage.Builder, g *storetest.Batch) {
	t.Helper()
	if err := g.Load(b); err != nil {
		t.Fatal(err)
	}
}

// drugGraph is n Drug vertices named 0..n-1.
func drugGraph(n int) *storetest.Batch {
	var g storetest.Batch
	for i := 0; i < n; i++ {
		g.Prop(g.Vertex("Drug"), "name", graph.I(int64(i)))
	}
	return &g
}

// buildWideGraph creates n Drug vertices — enough scan iterations for the
// executor's cancellation checkpoint (every 256 ticks) to fire.
func buildWideGraph(t *testing.T, n int) storage.Builder {
	t.Helper()
	mem := memstore.New()
	mustLoad(t, mem, drugGraph(n))
	return mem
}

const drugQuery = `MATCH (d:Drug) RETURN d.name ORDER BY d.name`

// queryResponse mirrors the POST /query JSON body.
type queryResponse struct {
	Query   string   `json:"query"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	Stats   struct {
		VerticesScanned int64 `json:"vertices_scanned"`
		EdgesTraversed  int64 `json:"edges_traversed"`
		PropsRead       int64 `json:"props_read"`
		RowsEmitted     int64 `json:"rows_emitted"`
	} `json:"stats"`
	ElapsedUS int64  `json:"elapsed_us"`
	Error     string `json:"error"`
}

func newMedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Graph == nil {
		mem := memstore.New()
		buildMedGraph(t, mem)
		cfg.Graph = mem
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, body, contentType string) (int, queryResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("response %d is not JSON: %v\n%s", resp.StatusCode, err, data)
	}
	return resp.StatusCode, qr
}

func TestQueryRawBody(t *testing.T) {
	_, ts := newMedServer(t, Config{})
	status, qr := post(t, ts, drugQuery, "text/plain")
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, qr.Error)
	}
	if len(qr.Columns) != 1 || qr.Columns[0] != "d.name" {
		t.Errorf("columns = %v", qr.Columns)
	}
	if len(qr.Rows) != 2 || qr.Rows[0][0] != "Aspirin" || qr.Rows[1][0] != "Ibuprofen" {
		t.Errorf("rows = %v", qr.Rows)
	}
	if qr.Stats.RowsEmitted != 2 || qr.Stats.VerticesScanned == 0 {
		t.Errorf("stats = %+v", qr.Stats)
	}
	if qr.Query == "" {
		t.Error("executed query text missing from response")
	}
}

func TestQueryJSONBody(t *testing.T) {
	_, ts := newMedServer(t, Config{})
	body, _ := json.Marshal(map[string]string{"query": drugQuery})
	status, qr := post(t, ts, string(body), "application/json")
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, qr.Error)
	}
	if len(qr.Rows) != 2 {
		t.Errorf("rows = %v", qr.Rows)
	}
	// Malformed JSON under a JSON content type is a 400, not a raw query.
	if status, qr = post(t, ts, `{"query": `, "application/json"); status != http.StatusBadRequest {
		t.Errorf("truncated JSON: status = %d (%s)", status, qr.Error)
	}
}

// TestQueryLiteralsSurviveThePlanCache: the cache compiles the rendered
// query text, so each literal must render back to itself. A control byte
// once rendered as a Go escape the lexer reads as another string (so the
// lookup found the wrong vertex), and a small or huge DOUBLE in exponent
// form the lexer rejects (a 400 for a valid query).
func TestQueryLiteralsSurviveThePlanCache(t *testing.T) {
	var g storetest.Batch
	for _, name := range []graph.Value{graph.S("a\rb"), graph.S("arb"), graph.S("a\x01b"), graph.S("ax01b"), graph.F(1e-7), graph.F(1e21)} {
		g.Prop(g.Vertex("Drug"), "name", name)
	}
	mem := memstore.New()
	mustLoad(t, mem, &g)
	_, ts := newMedServer(t, Config{Graph: mem})
	for _, c := range []struct {
		query string
		want  any
	}{
		{"MATCH (d:Drug {name: 'a\rb'}) RETURN d.name", "a\rb"},
		{"MATCH (d:Drug {name: 'a\x01b'}) RETURN d.name", "a\x01b"},
		{"MATCH (d:Drug) WHERE d.name = 0.0000001 RETURN d.name", 1e-7},
		{"MATCH (d:Drug {name: 1000000000000000000000.0}) RETURN d.name", 1e21},
	} {
		body, _ := json.Marshal(map[string]string{"query": c.query})
		status, qr := post(t, ts, string(body), "application/json")
		if status != http.StatusOK {
			t.Errorf("%q: status %d (%s)", c.query, status, qr.Error)
			continue
		}
		if len(qr.Rows) != 1 || qr.Rows[0][0] != c.want {
			t.Errorf("%q: rows %q, want one row holding %v", c.query, qr.Rows, c.want)
		}
	}
}

func TestMalformedCypher(t *testing.T) {
	_, ts := newMedServer(t, Config{})
	for _, src := range []string{"THIS IS NOT CYPHER", "MATCH (d:Drug", ""} {
		status, qr := post(t, ts, src, "text/plain")
		if status != http.StatusBadRequest {
			t.Errorf("query %q: status = %d (%s), want 400", src, status, qr.Error)
		}
		if qr.Error == "" {
			t.Errorf("query %q: no error message", src)
		}
	}
}

func TestOversizedBody(t *testing.T) {
	_, ts := newMedServer(t, Config{MaxBodyBytes: 256})
	big := drugQuery + strings.Repeat(" ", 1024)
	status, qr := post(t, ts, big, "text/plain")
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d (%s), want 413", status, qr.Error)
	}
}

func TestQueryTooLong(t *testing.T) {
	_, ts := newMedServer(t, Config{MaxQueryLen: 64})
	long := `MATCH (d:Drug) WHERE d.name = "` + strings.Repeat("x", 200) + `" RETURN d.name`
	status, qr := post(t, ts, long, "text/plain")
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("long query: status = %d (%s), want 413", status, qr.Error)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newMedServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status = %d, want 405", resp.StatusCode)
	}
}

// gatedGraph parks every ForEachVertexID call on a gate channel and counts
// how many executors are parked, making "a query is running right now"
// observable and controllable from the test body.
type gatedGraph struct {
	storage.Graph
	gate   chan struct{}
	parked atomic.Int32
}

func (g *gatedGraph) ForEachVertexID(label storage.SymbolID, fn func(storage.VID) bool) {
	g.parked.Add(1)
	<-g.gate
	g.Graph.ForEachVertexID(label, fn)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSaturationSheds429 drives the admission path to saturation
// deterministically: one request executing (parked on the gate), one
// waiting in the single queue slot, and a third arriving — which must be
// shed with 429 immediately, not queued unboundedly. Releasing the gate
// lets the first two finish with 200.
func TestSaturationSheds429(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	g := &gatedGraph{Graph: mem, gate: make(chan struct{})}
	s, ts := newMedServer(t, Config{
		Graph:          g,
		MaxConcurrent:  1,
		MaxQueued:      1,
		RequestTimeout: 30 * time.Second,
	})

	type result struct {
		status int
		err    error
	}
	results := make(chan result, 2)
	postAsync := func() {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(drugQuery))
		if err != nil {
			results <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- result{status: resp.StatusCode}
	}

	go postAsync() // request 1: takes the slot, parks on the gate
	waitFor(t, "request 1 executing", func() bool { return g.parked.Load() == 1 })
	go postAsync() // request 2: takes the queue slot
	waitFor(t, "request 2 queued", func() bool { return s.m.queued.Load() == 1 })

	// Request 3 arrives at a full queue: shed.
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(drugQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated request: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}

	close(g.gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.status != http.StatusOK {
			t.Errorf("parked request finished with %d, want 200", r.status)
		}
	}
	if shed, accepted := s.m.shed.Load(), s.m.accepted.Load(); shed != 1 || accepted != 2 {
		t.Errorf("admission: %d shed / %d accepted, want 1 / 2", shed, accepted)
	}
}

// sleeperGraph delays every vertex its label scans yield, making a label
// scan take a predictable minimum wall time so a short request timeout
// reliably expires at the executor's first cancellation checkpoint.
type sleeperGraph struct {
	storage.Graph
	delay time.Duration
}

func (g *sleeperGraph) ForEachVertexID(label storage.SymbolID, fn func(storage.VID) bool) {
	g.Graph.ForEachVertexID(label, func(v storage.VID) bool {
		time.Sleep(g.delay)
		return fn(v)
	})
}

func TestRequestTimeoutCancelsMidQuery(t *testing.T) {
	// 1000 vertices × 100µs per scanned vertex: the first checkpoint (tick 256)
	// lands ~25ms in, far past the 5ms deadline; the full scan would take
	// ~100ms, so a hung cancellation still ends quickly but visibly. The
	// projection has streamed a couple of hundred rows into the response
	// buffer by then; none of them may reach the client.
	g := &sleeperGraph{Graph: buildWideGraph(t, 1000), delay: 100 * time.Microsecond}
	s, ts := newMedServer(t, Config{Graph: g, RequestTimeout: 5 * time.Millisecond})
	for i, src := range []string{`MATCH (d:Drug) RETURN COUNT(*)`, `MATCH (d:Drug) RETURN d.name`} {
		status, qr := post(t, ts, src, "text/plain")
		if status != http.StatusGatewayTimeout {
			t.Errorf("%s: status = %d (%s), want 504", src, status, qr.Error)
		}
		if qr.Error == "" || qr.Columns != nil || qr.Rows != nil {
			t.Errorf("%s: timed-out response is not a bare error body: %+v", src, qr)
		}
		if got := s.m.timeouts.Load(); got != int64(i+1) {
			t.Errorf("timeouts = %d, want %d", got, i+1)
		}
	}
}

// cancelAfterGraph cancels a context from inside the store once its label
// scans have yielded after vertices: the request dies mid-scan,
// deterministically.
type cancelAfterGraph struct {
	storage.Graph
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (g *cancelAfterGraph) ForEachVertexID(label storage.SymbolID, fn func(storage.VID) bool) {
	g.Graph.ForEachVertexID(label, func(v storage.VID) bool {
		if g.calls.Add(1) == g.after {
			g.cancel()
		}
		return fn(v)
	})
}

// TestCancelMidStreamSendsNoRows: a request canceled after hundreds of its
// rows were encoded answers 503 with an error body and not one row. The
// handler is driven in-process so the abandoned response can be read.
func TestCancelMidStreamSendsNoRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := &cancelAfterGraph{Graph: buildWideGraph(t, 1000), cancel: cancel, after: 600}
	s, err := New(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`MATCH (d:Drug) RETURN d.name`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", rec.Code)
	}
	var qr queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if qr.Error == "" || qr.Columns != nil || qr.Rows != nil || strings.Contains(rec.Body.String(), "rows") {
		t.Errorf("canceled response is not a bare error body: %s", rec.Body.Bytes())
	}
	if got := s.m.canceled.Load(); got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
}

// TestClientCancelMidQuery covers the other cancellation path: the client
// disconnects while its query is executing. The executor must notice the
// dead request context and unwind; the server records it as canceled.
func TestClientCancelMidQuery(t *testing.T) {
	// Gate the scan start so the test controls when execution proceeds,
	// and slow each scanned vertex so the post-gate scan takes ~100ms — ample
	// time for the server to register the disconnect and for the executor
	// to pass several cancellation checkpoints before the scan could end.
	mem := buildWideGraph(t, 1000)
	g := &gatedGraph{Graph: &sleeperGraph{Graph: mem, delay: 100 * time.Microsecond}, gate: make(chan struct{})}
	s, ts := newMedServer(t, Config{Graph: g, RequestTimeout: 30 * time.Second})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query",
		strings.NewReader(`MATCH (d:Drug) RETURN COUNT(*)`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, "query executing", func() bool { return g.parked.Load() == 1 })
	cancel() // client walks away mid-query
	if err := <-done; err == nil {
		t.Error("canceled client request unexpectedly succeeded")
	}
	// The client transport has closed the connection; give the server's
	// background read a moment to notice before execution resumes.
	time.Sleep(50 * time.Millisecond)
	close(g.gate) // let the executor resume; it must notice and unwind
	waitFor(t, "server to record the cancellation", func() bool {
		return s.m.canceled.Load() == 1
	})
}

// TestConcurrentClients hammers one server from 8 concurrent clients under
// -race: on memstore, on a diskstore whose page cache is far smaller than
// what one query reads (so clients evict each other's pages), and on that
// diskstore while one more goroutine posts /mutate batches throughout.
// Every response must be a 200, every query must return the same rows, and
// the plan cache must show the compile happened once.
func TestConcurrentClients(t *testing.T) {
	const (
		clients, perClient = 8, 25
		// The drugs' names fill 12 pages of property runs (16 B each, 8
		// KiB pages), half again the cache; vertex records take no page.
		drugs, cachePages = 6000, 8
		// Reads every Drug's name and returns the lowest ten.
		lowDrugQuery = `MATCH (d:Drug) WHERE d.name < 10 RETURN d.name ORDER BY d.name`
		wantRows     = `[[0] [1] [2] [3] [4] [5] [6] [7] [8] [9]]`
		// Touches no label or edge type lowDrugQuery reads, and stays valid
		// as the graph grows (batch-relative source).
		noiseBatch = `{"vertices":[{"labels":["Noise"],"props":{"n":1}}],"edges":[{"src":-1,"dst":0,"type":"noise"}]}`
		minBatches = 20
	)
	for _, tc := range []struct {
		name         string
		disk, mutate bool
	}{
		{name: "memstore"},
		{name: "diskstore-tight", disk: true},
		{name: "diskstore-tight-mutate", disk: true, mutate: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var g storage.Builder = memstore.New()
			var ds *diskstore.Store
			if tc.disk {
				var err error
				if ds, err = diskstore.Open(t.TempDir(), diskstore.Options{CachePages: cachePages}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ds.Close() })
				g = ds
			}
			// The drugs and one edge; on diskstore the load's Finalize
			// writes them as a base generation.
			fixture := drugGraph(drugs)
			fixture.Edge(0, 1, "interacts")
			mustLoad(t, g, fixture)
			_, ts := newMedServer(t, Config{Graph: g})

			// postOK posts body and returns the 200 response's bytes.
			postOK := func(path, contentType, body string) ([]byte, error) {
				resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
				if err != nil {
					return nil, err
				}
				defer resp.Body.Close()
				data, err := io.ReadAll(resp.Body)
				if err != nil {
					return nil, err
				}
				if resp.StatusCode != http.StatusOK {
					return nil, fmt.Errorf("%s status %d: %s", path, resp.StatusCode, data)
				}
				return data, nil
			}

			var readersDone atomic.Bool
			var batches int
			var mutateErr error
			var writer sync.WaitGroup
			if tc.mutate {
				writer.Add(1)
				go func() {
					defer writer.Done()
					for batches < minBatches || !readersDone.Load() {
						if _, mutateErr = postOK("/mutate", "application/json", noiseBatch); mutateErr != nil {
							return
						}
						batches++
					}
				}()
			}

			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						data, err := postOK("/query", "text/plain", lowDrugQuery)
						if err != nil {
							errs <- err
							return
						}
						var qr queryResponse
						if err := json.Unmarshal(data, &qr); err != nil {
							errs <- err
							return
						}
						if got := fmt.Sprint(qr.Rows); got != wantRows {
							errs <- fmt.Errorf("rows = %s, want %s", got, wantRows)
							return
						}
					}
				}()
			}
			wg.Wait()
			readersDone.Store(true)
			writer.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if mutateErr != nil {
				t.Fatalf("after %d mutate batches: %v", batches, mutateErr)
			}

			m := scrapeMetrics(t, ts).Samples
			if got, want := m[`pgs_server_requests_total{outcome="accepted"}`], float64(clients*perClient+batches); got != want {
				t.Errorf("accepted = %v, want %v", got, want)
			}
			if got := m[`pgs_request_latency_seconds_count{endpoint="/query"}`]; got != clients*perClient {
				t.Errorf("/query latency count = %v, want %d", got, clients*perClient)
			}
			if got := m[`pgs_request_latency_seconds_count{endpoint="/mutate"}`]; got != float64(batches) {
				t.Errorf("/mutate latency count = %v, want %d", got, batches)
			}
			hits, misses, shared := m["pgs_plancache_hits_total{}"], m["pgs_plancache_misses_total{}"], m["pgs_plancache_shared_total{}"]
			if hits == 0 || misses-shared != 1 {
				t.Errorf("plan cache = %v hits / %v misses / %v shared, want exactly one compile and the rest hits", hits, misses, shared)
			}
			// Had the working set fit, misses would stop at its page count;
			// more than one per query means clients kept evicting pages.
			if got := m["pgs_pager_page_misses_total{}"]; tc.disk && got <= clients*perClient {
				t.Errorf("%v page misses: a %d-page cache was not tight for this query", got, cachePages)
			}
		})
	}
}

func TestHealthzAndStats(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	_, ts := newMedServer(t, Config{Graph: mem})
	post(t, ts, drugQuery, "text/plain")

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Uptime is pgs_server_uptime_seconds; /healthz carries the status alone.
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" || len(health) != 1 {
		t.Errorf("healthz = %d %v, want 200 {\"status\":\"ok\"}", resp.StatusCode, health)
	}

	m := scrapeMetrics(t, ts).Samples
	if m[`pgs_server_requests_total{outcome="accepted"}`] != 1 || m["pgs_plancache_misses_total{}"] != 1 {
		t.Errorf("metrics = %v, want 1 accepted / 1 cache miss", m)
	}
	if m["pgs_pager_page_hits_total{}"]+m["pgs_pager_page_misses_total{}"] != 0 {
		t.Error("memstore-backed server reported pager traffic")
	}
	if m[`pgs_request_latency_seconds_count{endpoint="/query"}`] != 1 {
		t.Errorf("per-endpoint histogram missing the query: %v", m)
	}
	if st := getStats(t, ts); len(st.TopQueries) != 1 || st.TopQueries[0].Query != drugQuery {
		t.Errorf("top_queries = %+v, want the one query", st.TopQueries)
	}
}

// getStats fetches and decodes GET /stats.
func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDiskstorePagerStats(t *testing.T) {
	ds, err := diskstore.Open(t.TempDir(), diskstore.Options{CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	buildMedGraph(t, ds)
	if err := ds.Finalize(); err != nil {
		t.Fatal(err)
	}
	_, ts := newMedServer(t, Config{Graph: ds})
	status, qr := post(t, ts, drugQuery, "text/plain")
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, qr.Error)
	}
	m := scrapeMetrics(t, ts).Samples
	if m["pgs_pager_page_hits_total{}"]+m["pgs_pager_page_misses_total{}"] == 0 {
		t.Error("pager counters all zero after a query")
	}

	// A freshly finalized store uses the current (v6) layout: its
	// compressed adjacency takes at most 32 bytes per edge (the edge count
	// is /stats' graph section), and /stats carries the persisted
	// per-label counts.
	st := getStats(t, ts)
	if st.Graph == nil {
		t.Fatal("diskstore-backed server reported no graph section")
	}
	if bpe := m["pgs_storage_edge_bytes{}"] / float64(st.Graph.Edges); bpe <= 0 || bpe > 32 {
		t.Errorf("bytes per edge = %v, want in (0, 32]", bpe)
	}
	if st.Graph.LabelCounts["Drug"] == 0 {
		t.Errorf("graph stats missing persisted label counts: %+v", st.Graph)
	}
	if len(st.Graph.EdgeTypeCounts) == 0 {
		t.Errorf("v6 store reported no edge-type counts: %+v", st.Graph)
	}
}

func TestDrainingRefusesNewWork(t *testing.T) {
	s, ts := newMedServer(t, Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, qr := post(t, ts, drugQuery, "text/plain")
	if status != http.StatusServiceUnavailable {
		t.Errorf("draining query: status = %d (%s), want 503", status, qr.Error)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status = %d, want 503", resp.StatusCode)
	}
}

// TestGracefulShutdownDrains starts a real listener, parks one query on
// the gate, and calls Shutdown: it must wait for the in-flight request to
// finish (with a 200) instead of killing it.
func TestGracefulShutdownDrains(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	g := &gatedGraph{Graph: mem, gate: make(chan struct{})}
	s, err := New(Config{Graph: g, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/query", "text/plain", strings.NewReader(drugQuery))
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitFor(t, "query executing", func() bool { return g.parked.Load() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Shutdown must be draining, not done, while the request is parked.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.gate)
	if got := <-status; got != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", got)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

func TestNewRequiresGraph(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a nil graph")
	}
}

func TestJSONEncoder(t *testing.T) {
	cases := []struct {
		v    graph.Value
		want string
	}{
		{graph.Null, `null`},
		{graph.S("plain"), `"plain"`},
		{graph.S("quote\" slash\\ ctrl\n\x01"), `"quote\" slash\\ ctrl\n\u0001"`},
		{graph.S("unicode ✓"), `"unicode ✓"`},
		{graph.S("bad\xffutf8"), `"bad\ufffdutf8"`},
		{graph.I(-42), `-42`},
		{graph.F(2.5), `2.5`},
		{graph.F(math.NaN()), `null`},
		{graph.B(true), `true`},
		{graph.L(graph.S("a"), graph.I(1), graph.L(graph.B(false))), `["a",1,[false]]`},
		// Runs of safe bytes between escapes, within and across words.
		{graph.S("abcdefghij\"klmnopqrstu\\vwxyz01234\n5678"), `"abcdefghij\"klmnopqrstu\\vwxyz01234\n5678"`},
		{graph.S("a\tb\tc\td"), `"a\tb\tc\td"`},
		// One short of a word, one word, one past it, two words and one.
		{graph.S("1234567"), `"1234567"`},
		{graph.S("12345678"), `"12345678"`},
		{graph.S("123456789"), `"123456789"`},
		{graph.S("12345678901234567"), `"12345678901234567"`},
		{graph.S("abcdefg\""), `"abcdefg\""`},
		{graph.S("12345678\x01"), `"12345678\u0001"`},
		{graph.S("1234567890123456\\"), `"1234567890123456\\"`},
		// Invalid UTF-8 as the last byte of a word and the first of the
		// next, and a valid rune straddling the boundary.
		{graph.S("abcdefg\xffhijklmno"), `"abcdefg\ufffdhijklmno"`},
		{graph.S("abcdefgh\xffijklmno"), `"abcdefgh\ufffdijklmno"`},
		{graph.S("abcdefg✓hijklmn"), `"abcdefg✓hijklmn"`},
		// U+2028 is valid JSON and is written as it is.
		{graph.S("line\u2028separator"), "\"line\u2028separator\""},
	}
	for _, c := range cases {
		got := string(appendJSONValue(nil, c.v))
		if got != c.want {
			t.Errorf("appendJSONValue(%v) = %s, want %s", c.v, got, c.want)
		}
		if !json.Valid([]byte(got)) {
			t.Errorf("appendJSONValue(%v) produced invalid JSON: %s", c.v, got)
		}
	}
}

// TestQueryResponseMatchesEncodingJSON cross-checks the hand-rolled
// response encoder against a stdlib re-decode.
func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	_, ts := newMedServer(t, Config{})
	resp, err := http.Post(ts.URL+"/query", "text/plain",
		bytes.NewReader([]byte(`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, COUNT(i.desc) ORDER BY d.name`)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("response is not valid JSON: %s", data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 2 || qr.Rows[0][0] != "Aspirin" || qr.Rows[0][1] != float64(2) {
		t.Errorf("rows = %v", qr.Rows)
	}
}

// TestQueryResponseGolden pins the success body byte for byte, one query
// per finisher shape plus the empty result. The bytes are what the server
// answered before rows were streamed into the encoder (elapsed_us zeroed);
// benchmark/loadgen.go scans them for `"rows":[` and `"elapsed_us":`.
func TestQueryResponseGolden(t *testing.T) {
	_, ts := newMedServer(t, Config{})
	elapsed := regexp.MustCompile(`"elapsed_us":\d+`)
	for _, tc := range []struct{ name, src, want string }{
		{"projection", `MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc`,
			`{"query":"MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc","request_id":"golden","columns":["d.name","i.desc"],"rows":[["Aspirin","Fever"],["Aspirin","Headache"],["Ibuprofen","Fever"]],"stats":{"vertices_scanned":2,"edges_traversed":3,"props_read":6,"rows_emitted":3},"elapsed_us":0}`},
		{"distinct", `MATCH (d:Drug)-[:treat]->(i:Indication) RETURN DISTINCT d.name`,
			`{"query":"MATCH (d:Drug)-[:treat]->(i:Indication) RETURN DISTINCT d.name","request_id":"golden","columns":["d.name"],"rows":[["Aspirin"],["Ibuprofen"]],"stats":{"vertices_scanned":2,"edges_traversed":3,"props_read":3,"rows_emitted":2},"elapsed_us":0}`},
		{"grouped", `MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, COUNT(*) AS n`,
			`{"query":"MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, COUNT(*) AS n","request_id":"golden","columns":["d.name","n"],"rows":[["Aspirin",2],["Ibuprofen",1]],"stats":{"vertices_scanned":2,"edges_traversed":3,"props_read":3,"rows_emitted":2},"elapsed_us":0}`},
		{"order by limit", `MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc ORDER BY i.desc DESC, d.name LIMIT 2`,
			`{"query":"MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc ORDER BY i.desc DESC, d.name LIMIT 2","request_id":"golden","columns":["d.name","i.desc"],"rows":[["Aspirin","Headache"],["Aspirin","Fever"]],"stats":{"vertices_scanned":2,"edges_traversed":3,"props_read":6,"rows_emitted":2},"elapsed_us":0}`},
		{"empty", `MATCH (d:Drug {name: 'Nope'}) RETURN d.name`,
			`{"query":"MATCH (d:Drug {name: \"Nope\"}) RETURN d.name","request_id":"golden","columns":["d.name"],"rows":[],"stats":{"vertices_scanned":0,"edges_traversed":0,"props_read":0,"rows_emitted":0},"elapsed_us":0}`},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "golden")
		resp, data := do(t, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", tc.name, resp.StatusCode, data)
		}
		if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(data)) {
			t.Errorf("%s: Content-Length = %q for a %d-byte body", tc.name, cl, len(data))
		}
		if got := string(elapsed.ReplaceAll(data, []byte(`"elapsed_us":0`))); got != tc.want {
			t.Errorf("%s: body changed\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestStatsTopQueries: /stats must report per-shape latency for the
// executed (post-rewrite, canonical) query texts, worst p99 first, with
// repeat executions of the same shape folded into one entry.
func TestStatsTopQueries(t *testing.T) {
	_, ts := newMedServer(t, Config{})
	countQuery := `MATCH (d:Drug) RETURN COUNT(*)`
	for i := 0; i < 3; i++ {
		if status, _ := post(t, ts, drugQuery, "text/plain"); status != http.StatusOK {
			t.Fatalf("query %d: status %d", i, status)
		}
	}
	if status, _ := post(t, ts, countQuery, "text/plain"); status != http.StatusOK {
		t.Fatalf("count query: status %d", status)
	}

	st := getStats(t, ts)
	if len(st.TopQueries) != 2 {
		t.Fatalf("top_queries has %d entries, want 2: %+v", len(st.TopQueries), st.TopQueries)
	}
	byText := map[string]QueryShapeStats{}
	for _, q := range st.TopQueries {
		byText[q.Query] = q
	}
	// The tracked text is the canonical rendering, which these plain
	// queries round-trip to themselves.
	if got := byText[drugQuery].Count; got != 3 {
		t.Errorf("shape %q count = %d, want 3 (tracked by canonical text)", drugQuery, got)
	}
	if got := byText[countQuery].Count; got != 1 {
		t.Errorf("shape %q count = %d, want 1", countQuery, got)
	}
	for i := 1; i < len(st.TopQueries); i++ {
		if st.TopQueries[i-1].P99US < st.TopQueries[i].P99US {
			t.Errorf("top_queries not sorted by p99 desc: %+v", st.TopQueries)
		}
	}
	if got := scrapeMetrics(t, ts).Samples["pgs_server_query_shapes_dropped_total{}"]; got != 0 {
		t.Errorf("pgs_server_query_shapes_dropped_total = %v, want 0", got)
	}

	// A backend with persisted statistics must populate the graph section
	// with real per-label counts.
	if st.Graph == nil {
		t.Fatal("stats lack the graph section on a statistics-reporting backend")
	}
	if st.Graph.Vertices <= 0 || len(st.Graph.LabelCounts) == 0 {
		t.Errorf("graph stats incomplete: %+v", st.Graph)
	}
	total := 0
	for _, n := range st.Graph.LabelCounts {
		total += n
	}
	if total < st.Graph.Vertices {
		t.Errorf("label counts sum %d < %d vertices", total, st.Graph.Vertices)
	}
}

// TestStatsTopQueriesBounded: past the tracker's capacity, new shapes are
// dropped (and counted), never tracked — the key-space bound.
func TestStatsTopQueriesBounded(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	s, err := New(Config{Graph: mem})
	if err != nil {
		t.Fatal(err)
	}
	s.shapes = newShapeTracker(2)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, q := range []string{
		`MATCH (d:Drug) RETURN d.name`,
		`MATCH (d:Drug) RETURN COUNT(*)`,
		`MATCH (d:Drug) RETURN d.name LIMIT 1`,
		`MATCH (d:Drug) RETURN d.name LIMIT 2`,
	} {
		s.shapes.observe(q, time.Millisecond)
	}
	if st := getStats(t, ts); len(st.TopQueries) != 2 {
		t.Errorf("tracked %d shapes with a capacity of 2: %+v", len(st.TopQueries), st.TopQueries)
	}
	if got := scrapeMetrics(t, ts).Samples["pgs_server_query_shapes_dropped_total{}"]; got != 2 {
		t.Errorf("pgs_server_query_shapes_dropped_total = %v, want 2", got)
	}
}

// TestQueryWorkersParallelExecution drives the -query-workers knob end to
// end: a server configured for intra-query parallelism must answer with
// exactly the rows and work counters of a serial server, and /metrics
// must report the configured worker cap next to the admission bounds.
func TestQueryWorkersParallelExecution(t *testing.T) {
	const n = 500
	_, serialTS := newMedServer(t, Config{Graph: buildWideGraph(t, n)})
	_, parallelTS := newMedServer(t, Config{Graph: buildWideGraph(t, n), QueryWorkers: 4})

	code, want := post(t, serialTS, drugQuery, "text/plain")
	if code != http.StatusOK {
		t.Fatalf("serial status = %d", code)
	}
	code, got := post(t, parallelTS, drugQuery, "text/plain")
	if code != http.StatusOK {
		t.Fatalf("parallel status = %d", code)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Errorf("parallel rows differ from serial:\n got %v\nwant %v", got.Rows, want.Rows)
	}
	if got.Stats != want.Stats {
		t.Errorf("parallel stats = %+v, want exactly serial %+v", got.Stats, want.Stats)
	}

	for _, tc := range []struct {
		name string
		ts   *httptest.Server
		want float64
	}{{"serial", serialTS, DefaultQueryWorkers}, {"parallel", parallelTS, 4}} {
		m := scrapeMetrics(t, tc.ts).Samples
		if got := m["pgs_server_query_workers{}"]; got != tc.want {
			t.Errorf("%s pgs_server_query_workers = %v, want %v", tc.name, got, tc.want)
		}
		if got := m["pgs_server_max_concurrent{}"]; got != DefaultMaxConcurrent {
			t.Errorf("%s pgs_server_max_concurrent = %v, want %d", tc.name, got, DefaultMaxConcurrent)
		}
		if got := m["pgs_server_max_queued{}"]; got != DefaultMaxQueued {
			t.Errorf("%s pgs_server_max_queued = %v, want %d", tc.name, got, DefaultMaxQueued)
		}
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so counting a handler's allocations counts the handler's alone.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestQueryAllocsIndependentOfRows: the executor lends the encoder one
// reused row, so a /query answering 500 rows allocates within a small
// constant of one answering 2 — the result rows cost the handler nothing.
func TestQueryAllocsIndependentOfRows(t *testing.T) {
	const src = `MATCH (d:Drug) RETURN d.name`
	allocs := func(n int) float64 {
		s, err := New(Config{Graph: buildWideGraph(t, n)})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(src)))
		var qr queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil || rec.Code != http.StatusOK || len(qr.Rows) != n {
			t.Fatalf("%d drugs: status %d, %d rows, err %v", n, rec.Code, len(qr.Rows), err)
		}
		h := s.Handler()
		return testing.AllocsPerRun(50, func() {
			w := &discardWriter{h: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(src)))
			if w.code != 0 && w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
		})
	}
	few, many := allocs(2), allocs(500)
	t.Logf("/query allocations: %.0f with 2 rows, %.0f with 500", few, many)
	if many > few+8 {
		t.Errorf("/query with 500 rows made %.0f allocations, with 2 rows %.0f: want within 8", many, few)
	}
}
