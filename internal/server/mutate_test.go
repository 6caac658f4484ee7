package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
)

// newLiveServer bulk-loads the med fixture into a diskstore and serves
// it.
func newLiveServer(t *testing.T) (*Server, *httptest.Server, *diskstore.Store) {
	t.Helper()
	ds, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	buildMedGraph(t, ds)
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if !ds.Live() {
		t.Fatal("med store is not live after its load's Finalize")
	}
	s, ts := newMedServer(t, Config{Graph: ds})
	return s, ts, ds
}

func postMutate(t *testing.T, ts *httptest.Server, body string) (int, mutateResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/mutate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var mr mutateResponse
	var e struct {
		Error string `json:"error"`
	}
	json.Unmarshal(data, &mr)
	json.Unmarshal(data, &e)
	return resp.StatusCode, mr, e.Error
}

// TestMutateHappyPath: one batch creates a vertex with inline props, wires
// it into the base graph through a batch-relative reference, and the write
// is immediately visible to /query.
func TestMutateHappyPath(t *testing.T) {
	_, ts, ds := newLiveServer(t)
	base := ds.NumVertices()
	status, mr, errMsg := postMutate(t, ts, `{
		"vertices": [{"labels": ["Drug"], "props": {"name": "Naproxen"}}],
		"edges":    [{"src": -1, "dst": 2, "type": "treat"}],
		"labels":   [{"v": -1, "label": "NSAID"}]
	}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, errMsg)
	}
	if len(mr.Vertices) != 1 || int64(mr.Vertices[0]) != int64(base) {
		t.Errorf("vertices = %v, want [%d]", mr.Vertices, base)
	}
	if len(mr.Edges) != 1 {
		t.Errorf("edges = %v, want one ID", mr.Edges)
	}

	status, qr := post(t, ts, drugQuery, "text/plain")
	if status != http.StatusOK {
		t.Fatalf("query status = %d (%s)", status, qr.Error)
	}
	if len(qr.Rows) != 3 || qr.Rows[2][0] != "Naproxen" {
		t.Errorf("rows after mutate = %v, want the new drug visible", qr.Rows)
	}
}

// TestMutateValueKinds exercises the JSON→graph.Value lowering end to end:
// ints stay exact, floats stay floats, lists flatten, objects are refused.
func TestMutateValueKinds(t *testing.T) {
	_, ts, ds := newLiveServer(t)
	status, mr, errMsg := postMutate(t, ts, `{
		"vertices": [{"labels": ["Drug"], "props": {
			"doses": [100, 200.5, "oral", true, null],
			"count": 9007199254740993
		}}]
	}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, errMsg)
	}
	v := mr.Vertices[0]
	if got, _ := ds.Prop(v, "count"); got.String() != "9007199254740993" {
		t.Errorf("count round-tripped to %s; large int lost precision", got)
	}
	if got, _ := ds.Prop(v, "doses"); got.String() != `[100, 200.5, "oral", true, null]` {
		t.Errorf("doses = %s", got)
	}

	status, _, errMsg = postMutate(t, ts, `{"props": [{"v": 0, "key": "bad", "value": {"nested": 1}}]}`)
	if status != http.StatusBadRequest || !strings.Contains(errMsg, "object") {
		t.Errorf("object value: status = %d (%s), want 400 mentioning objects", status, errMsg)
	}
}

func TestMutateRejectsMalformed(t *testing.T) {
	_, ts, _ := newLiveServer(t)
	cases := map[string]string{
		"truncated JSON": `{"vertices": [`,
		"empty batch":    `{}`,
		"forward ref":    `{"edges": [{"src": -1, "dst": 0, "type": "treat"}]}`,
		"unknown vertex": `{"labels": [{"v": 999, "label": "X"}]}`,
	}
	for name, body := range cases {
		status, _, errMsg := postMutate(t, ts, body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", name, status, errMsg)
		}
		if errMsg == "" {
			t.Errorf("%s: no error message", name)
		}
	}
}

// TestMutateNotLive: a diskstore with a bulk load pending refuses live
// writes with 409 and the recovery hint.
func TestMutateNotLive(t *testing.T) {
	ds, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	// A batch that is never finalized: the load stays pending.
	if _, err := ds.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"Drug"}}}); err != nil {
		t.Fatal(err)
	}
	_, ts := newMedServer(t, Config{Graph: ds})
	status, _, errMsg := postMutate(t, ts, `{"vertices": [{"labels": ["Drug"]}]}`)
	if status != http.StatusConflict {
		t.Errorf("status = %d (%s), want 409", status, errMsg)
	}
	if !strings.Contains(errMsg, "Finalize") {
		t.Errorf("409 message %q carries no recovery hint", errMsg)
	}
}

// TestMutateNotImplemented: backends without a durable write path
// (memstore) answer 501, not 500.
func TestMutateNotImplemented(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	_, ts := newMedServer(t, Config{Graph: mem})
	status, _, errMsg := postMutate(t, ts, `{"vertices": [{"labels": ["Drug"]}]}`)
	if status != http.StatusNotImplemented {
		t.Errorf("status = %d (%s), want 501", status, errMsg)
	}
}

// TestStatsStorageSection: after live writes, /metrics must expose the
// live-write series — live state, delta sizes, WAL append/sync counters —
// plus the /mutate endpoint histogram.
func TestStatsStorageSection(t *testing.T) {
	_, ts, _ := newLiveServer(t)
	for i := 0; i < 3; i++ {
		status, _, errMsg := postMutate(t, ts,
			`{"vertices": [{"labels": ["Drug"]}], "edges": [{"src": -1, "dst": 0, "type": "treat"}]}`)
		if status != http.StatusOK {
			t.Fatalf("mutate %d: status = %d (%s)", i, status, errMsg)
		}
	}
	m := scrapeMetrics(t, ts).Samples
	if m["pgs_storage_live{}"] != 1 {
		t.Errorf("pgs_storage_live = %v, want 1", m["pgs_storage_live{}"])
	}
	if m["pgs_delta_vertices{}"] != 3 || m["pgs_delta_edges{}"] != 3 {
		t.Errorf("delta = %v vertices / %v edges, want 3/3", m["pgs_delta_vertices{}"], m["pgs_delta_edges{}"])
	}
	if m["pgs_wal_appends_total{}"] != 3 || m["pgs_wal_syncs_total{}"] == 0 || m["pgs_wal_bytes_total{}"] == 0 {
		t.Errorf("wal = %v appends / %v syncs / %v bytes, want 3 appends and nonzero syncs/bytes",
			m["pgs_wal_appends_total{}"], m["pgs_wal_syncs_total{}"], m["pgs_wal_bytes_total{}"])
	}
	if got := m[`pgs_request_latency_seconds_count{endpoint="/mutate"}`]; got != 3 {
		t.Errorf("/mutate latency count = %v, want 3", got)
	}
}

// TestStatsStorageOmittedForMemstore: backend honesty — pgs_storage_live
// is present and 0 when the backend has no live-write machinery.
func TestStatsStorageOmittedForMemstore(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	_, ts := newMedServer(t, Config{Graph: mem})
	if got, ok := scrapeMetrics(t, ts).Samples["pgs_storage_live{}"]; !ok || got != 0 {
		t.Errorf("pgs_storage_live = %v (present %v), want 0 on memstore", got, ok)
	}
}

// TestMutateDraining: a draining server refuses writes like reads.
func TestMutateDraining(t *testing.T) {
	s, ts, _ := newLiveServer(t)
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	status, _, _ := postMutate(t, ts, `{"vertices": [{"labels": ["Drug"]}]}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("draining mutate: status = %d, want 503", status)
	}
}

// acceptingGraph takes every batch /mutate hands it, so FuzzMutateBody
// exercises the handler's own decoding and lowering, not a store's
// validation (or its fsyncs).
type acceptingGraph struct{ storage.Graph }

func (acceptingGraph) ApplyMutations(batch []storage.Mutation) (storage.MutationResult, error) {
	return storage.MutationResult{}, nil
}

func (acceptingGraph) Compact() error { return nil }

// FuzzMutateBody: arbitrary /mutate bodies through the JSON decode and
// toBatch never panic; each is accepted (200) or rejected with a 400
// whose JSON body carries an error and the request's ID, as does its
// X-Request-Id header.
func FuzzMutateBody(f *testing.F) {
	for _, seed := range []string{
		`{"vertices":[{"labels":["Drug"],"props":{"name":"x","n":1,"f":1.5,"b":true,"z":null,"l":[1,"a"]}}]}`,
		`{"edges":[{"src":-1,"dst":0,"type":"treat"}],"props":[{"v":0,"key":"k","value":[[1]]}],"labels":[{"v":0,"label":"L"}]}`,
		`{"props":[{"v":0,"key":"k","value":{"o":1}}]}`,
		`{"props":[{"v":0,"key":"k","value":1e999}]}`,
		`{"vertices": [`,
		`{}`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{Graph: acceptingGraph{memstore.New()}})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if int64(len(body)) > s.cfg.MaxBodyBytes {
			return
		}
		req := httptest.NewRequest(http.MethodPost, "/mutate", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", "fuzz-rid")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			var e struct {
				Error     string `json:"error"`
				RequestID string `json:"request_id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || e.RequestID != "fuzz-rid" {
				t.Fatalf("%q: 400 body %q lacks an error or the request ID", body, rec.Body.Bytes())
			}
			if got := rec.Header().Get("X-Request-Id"); got != "fuzz-rid" {
				t.Fatalf("%q: 400 carries X-Request-Id %q", body, got)
			}
		default:
			t.Fatalf("%q: status %d (%s), want 200 or 400", body, rec.Code, rec.Body.Bytes())
		}
	})
}
