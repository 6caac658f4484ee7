package server

// POST /admin/compact — kick a background compaction of the served
// store. Compaction folds the accumulated live-write delta into a fresh
// base generation without blocking /query or /mutate traffic (the
// backend's background-fold contract), so the endpoint answers 202 as
// soon as the fold is launched rather than holding the connection for
// its duration; progress is observable through GET /metrics
// (pgs_compact_fold_running, pgs_compact_fold_progress_permille,
// pgs_compact_generation).
//
// Responses: 202 when a fold was started, 409 when one is already
// running, 501 when the backend cannot compact (memstore). A fold
// failure is recorded and surfaced as last_compact_error in /stats.
//
// The same launch path drives auto-compaction: when
// Config.AutoCompactDeltaItems > 0, every acknowledged /mutate batch
// checks the delta gauges and starts a fold once
// delta_vertices + delta_edges crosses the threshold.

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// compactState is the server-side single-flight latch around the
// backend's own (also single-flight) Compact, plus the last outcome for
// /stats.
type compactState struct {
	running atomic.Bool
	wg      sync.WaitGroup

	mu      sync.Mutex
	lastErr string
}

// startCompact launches mg.Compact in a background goroutine if no
// server-initiated compaction is running. It reports whether a new fold
// was started.
func (s *Server) startCompact(mg storage.MutableGraph) bool {
	if !s.compact.running.CompareAndSwap(false, true) {
		return false
	}
	s.compact.wg.Add(1)
	go func() {
		defer s.compact.wg.Done()
		defer s.compact.running.Store(false)
		err := mg.Compact()
		s.compact.mu.Lock()
		if err != nil && !errors.Is(err, storage.ErrCompactInProgress) {
			s.compact.lastErr = err.Error()
		} else if err == nil {
			s.compact.lastErr = ""
		}
		s.compact.mu.Unlock()
	}()
	return true
}

// lastCompactError returns the most recent background fold failure (""
// when the last fold succeeded or none ran).
func (s *Server) lastCompactError() string {
	s.compact.mu.Lock()
	defer s.compact.mu.Unlock()
	return s.compact.lastErr
}

// maybeAutoCompact runs after every acknowledged mutation batch: once the
// delta segment holds more than AutoCompactDeltaItems vertices + edges,
// it starts a background fold (at most one at a time; the gauges lag the
// fold, so subsequent batches simply find running=true until the swap).
func (s *Server) maybeAutoCompact(mg storage.MutableGraph) {
	if s.cfg.AutoCompactDeltaItems <= 0 || s.compact.running.Load() {
		return
	}
	lr, ok := mg.(storage.LiveStatsReporter)
	if !ok {
		return
	}
	ls := lr.LiveStats()
	if ls.DeltaVertices+ls.DeltaEdges >= s.cfg.AutoCompactDeltaItems {
		s.startCompact(mg)
	}
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.m.compact.Observe(time.Since(start)) }()
	rid := beginRequest(w, r)
	if s.draining.Load() {
		s.m.drained.Add(1)
		writeError(w, http.StatusServiceUnavailable, rid, "server is draining")
		return
	}
	mg, ok := s.cfg.Graph.(storage.MutableGraph)
	if !ok {
		writeError(w, http.StatusNotImplemented, rid, "the served backend does not support compaction")
		return
	}
	if !s.startCompact(mg) {
		writeError(w, http.StatusConflict, rid, storage.ErrCompactInProgress.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"status": "compaction started", "request_id": rid})
}
