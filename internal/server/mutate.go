package server

// POST /mutate — the durable live-write endpoint. One request is one
// atomic mutation batch: the backend WAL-logs and fsyncs it before the
// response is written, so a 200 means the batch survives any crash.
// Requests pass through the same admission semaphore as /query, so a
// mutation storm cannot starve reads beyond the configured concurrency
// and a saturated server sheds writers with 429 exactly like readers.
//
// Request JSON:
//
//	{
//	  "vertices": [{"labels": ["L"], "props": {"k": v}}],
//	  "edges":    [{"src": -1, "dst": 7, "type": "t"}],
//	  "props":    [{"v": 7, "key": "k", "value": v}],
//	  "labels":   [{"v": -1, "label": "L"}]
//	}
//
// Vertex references >= 0 are absolute vertex IDs; negative references
// are batch-relative (-1 is the first entry of "vertices", -2 the
// second, ...), so one request can create a vertex and wire it up.
// Values may be JSON null, bool, number (integral numbers store as
// ints), string, or a flat array of those.
//
// Responses: 200 with the assigned IDs; 400 on malformed input; 409
// while a bulk load is pending (its Finalize commits it); 501 when the
// backend has no durable write path (memstore).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/graph"
	"repro/internal/storage"
)

type mutateRequest struct {
	Vertices []mutateVertex `json:"vertices"`
	Edges    []mutateEdge   `json:"edges"`
	Props    []mutateProp   `json:"props"`
	Labels   []mutateLabel  `json:"labels"`
}

type mutateVertex struct {
	Labels []string                   `json:"labels"`
	Props  map[string]json.RawMessage `json:"props,omitempty"`
}

type mutateEdge struct {
	Src  int64  `json:"src"`
	Dst  int64  `json:"dst"`
	Type string `json:"type"`
}

type mutateProp struct {
	V     int64           `json:"v"`
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

type mutateLabel struct {
	V     int64  `json:"v"`
	Label string `json:"label"`
}

// mutateResponse is the POST /mutate 200 document.
type mutateResponse struct {
	Vertices  []storage.VID `json:"vertices"`
	Edges     []storage.EID `json:"edges"`
	ElapsedUS int64         `json:"elapsed_us"`
	RequestID string        `json:"request_id"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.m.mutate.Observe(time.Since(start)) }()
	rid := beginRequest(w, r)

	if s.draining.Load() {
		s.m.drained.Add(1)
		writeError(w, http.StatusServiceUnavailable, rid, "server is draining")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	release, status, err := s.admit(ctx)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, rid, err.Error())
		return
	}
	defer release()

	mg, ok := s.data.Load().graph.(storage.MutableGraph)
	if !ok {
		writeError(w, http.StatusNotImplemented, rid, "the served backend does not support durable live writes")
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.m.failed.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, rid,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, rid, fmt.Sprintf("read body: %v", err))
		return
	}
	var req mutateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.m.failed.Add(1)
		writeError(w, http.StatusBadRequest, rid, fmt.Sprintf("decode JSON body: %v", err))
		return
	}
	batch, err := req.toBatch()
	if err != nil {
		s.m.failed.Add(1)
		writeError(w, http.StatusBadRequest, rid, err.Error())
		return
	}
	if len(batch) == 0 {
		s.m.failed.Add(1)
		writeError(w, http.StatusBadRequest, rid, "empty mutation batch")
		return
	}

	res, err := mg.ApplyMutations(batch)
	if err != nil {
		s.m.failed.Add(1)
		status := http.StatusBadRequest
		if errors.Is(err, storage.ErrNotLive) {
			status = http.StatusConflict
		}
		writeError(w, status, rid, err.Error())
		s.noteSlow("/mutate", rid, "", status, time.Since(start), nil, nil)
		return
	}
	resp := mutateResponse{
		Vertices:  res.Vertices,
		Edges:     res.Edges,
		ElapsedUS: time.Since(start).Microseconds(),
		RequestID: rid,
	}
	if resp.Vertices == nil {
		resp.Vertices = []storage.VID{}
	}
	if resp.Edges == nil {
		resp.Edges = []storage.EID{}
	}
	s.maybeAutoCompact(mg)
	writeJSON(w, http.StatusOK, resp)
	s.noteSlow("/mutate", rid, "", http.StatusOK, time.Since(start), nil, nil)
}

// toBatch lowers the JSON document into one storage.Mutation batch:
// vertices first (so every negative reference in the other sections can
// resolve), then each vertex's inline props, then edges, props, labels
// in document order.
func (r *mutateRequest) toBatch() ([]storage.Mutation, error) {
	var batch []storage.Mutation
	var inlineProps []storage.Mutation
	for i, v := range r.Vertices {
		batch = append(batch, storage.Mutation{Op: storage.MutAddVertex, Labels: v.Labels})
		for key, raw := range v.Props {
			val, err := valueFromJSON(raw)
			if err != nil {
				return nil, fmt.Errorf("vertices[%d].props[%s]: %w", i, key, err)
			}
			inlineProps = append(inlineProps, storage.Mutation{
				Op: storage.MutSetProp, V: storage.VID(-(i + 1)), Key: key, Value: val,
			})
		}
	}
	batch = append(batch, inlineProps...)
	for _, e := range r.Edges {
		batch = append(batch, storage.Mutation{
			Op: storage.MutAddEdge, Src: storage.VID(e.Src), Dst: storage.VID(e.Dst), Type: e.Type,
		})
	}
	for i, p := range r.Props {
		val, err := valueFromJSON(p.Value)
		if err != nil {
			return nil, fmt.Errorf("props[%d].value: %w", i, err)
		}
		batch = append(batch, storage.Mutation{
			Op: storage.MutSetProp, V: storage.VID(p.V), Key: p.Key, Value: val,
		})
	}
	for _, l := range r.Labels {
		batch = append(batch, storage.Mutation{Op: storage.MutAddLabel, V: storage.VID(l.V), Label: l.Label})
	}
	return batch, nil
}

// valueFromJSON converts one JSON value into a graph.Value. Numbers
// decode through json.Number so integral values stay exact int64s
// instead of rounding through float64.
func valueFromJSON(raw json.RawMessage) (graph.Value, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return graph.Null, err
	}
	return valueFromAny(v, true)
}

func valueFromAny(v any, allowList bool) (graph.Value, error) {
	switch x := v.(type) {
	case nil:
		return graph.Null, nil
	case bool:
		return graph.B(x), nil
	case string:
		return graph.S(x), nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return graph.I(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return graph.Null, fmt.Errorf("unrepresentable number %q", x.String())
		}
		return graph.F(f), nil
	case []any:
		if !allowList {
			return graph.Null, errors.New("nested lists are not storable")
		}
		els := make([]graph.Value, 0, len(x))
		for _, el := range x {
			gv, err := valueFromAny(el, false)
			if err != nil {
				return graph.Null, err
			}
			els = append(els, gv)
		}
		return graph.L(els...), nil
	default:
		return graph.Null, fmt.Errorf("unsupported JSON value type %T (objects are not storable)", v)
	}
}
