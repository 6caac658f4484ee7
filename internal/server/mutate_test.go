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

// TestStatsStorageSection: after live writes, /stats must expose the
// delta/WAL gauges the satellite asks for — segmented state, delta sizes,
// WAL append/sync counters — plus the /mutate endpoint histogram.
func TestStatsStorageSection(t *testing.T) {
	_, ts, _ := newLiveServer(t)
	for i := 0; i < 3; i++ {
		status, _, errMsg := postMutate(t, ts,
			`{"vertices": [{"labels": ["Drug"]}], "edges": [{"src": -1, "dst": 0, "type": "treat"}]}`)
		if status != http.StatusOK {
			t.Fatalf("mutate %d: status = %d (%s)", i, status, errMsg)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sg := st.Storage
	if sg == nil {
		t.Fatal("diskstore-backed server reported no storage stats")
	}
	if !sg.Live {
		t.Errorf("storage = %+v, want live", sg)
	}
	if sg.DeltaVertices != 3 || sg.DeltaEdges != 3 {
		t.Errorf("delta = %d vertices / %d edges, want 3/3", sg.DeltaVertices, sg.DeltaEdges)
	}
	if sg.WALAppends != 3 || sg.WALSyncs == 0 || sg.WALBytes == 0 {
		t.Errorf("wal counters = %+v, want 3 appends and nonzero syncs/bytes", sg)
	}
	if st.Endpoints["/mutate"].Count != 3 {
		t.Errorf("/mutate latency count = %d, want 3", st.Endpoints["/mutate"].Count)
	}
}

// TestStatsStorageOmittedForMemstore: the storage section is backend
// honesty — absent when the backend has no live-write machinery.
func TestStatsStorageOmittedForMemstore(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	_, ts := newMedServer(t, Config{Graph: mem})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Storage != nil {
		t.Errorf("memstore-backed server reported storage stats: %+v", st.Storage)
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
