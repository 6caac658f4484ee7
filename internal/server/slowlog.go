package server

// Structured slow-query log: JSON-lines records for requests whose
// end-to-end latency reaches Config.SlowQueryThreshold. One line per
// slow request, self-contained — timestamp, request ID, endpoint, the
// query text as sent and as executed, status, latency, work counters,
// and the PROFILE trace when the request ran profiled — so the log can
// be shipped and grepped without joining against anything. The encoding runs on the
// cold path only (a request already slower than the threshold).

import (
	"encoding/json"
	"time"

	"repro/internal/query"
)

// slowLogEntry is one JSON line of the slow-query log.
type slowLogEntry struct {
	TS        string `json:"ts"` // RFC3339Nano, UTC
	RequestID string `json:"request_id"`
	Endpoint  string `json:"endpoint"`
	// Source is the query text the client sent (without a PROFILE
	// prefix), and Query the executed (post-rewrite, canonical) text;
	// both are empty for non-query endpoints.
	Source    string       `json:"source,omitempty"`
	Query     string       `json:"query,omitempty"`
	Status    int          `json:"status"`
	ElapsedUS int64        `json:"elapsed_us"`
	Stats     *slowerStats `json:"stats,omitempty"`
	// Profile is present when the request ran with PROFILE enabled.
	Profile *query.Profile `json:"profile,omitempty"`
}

// slowerStats is query.Stats in the slow-log JSON shape.
type slowerStats struct {
	VerticesScanned int64 `json:"vertices_scanned"`
	EdgesTraversed  int64 `json:"edges_traversed"`
	PropsRead       int64 `json:"props_read"`
	RowsEmitted     int64 `json:"rows_emitted"`
}

// noteSlow checks one finished request against the slow-query threshold:
// at or over it, the slow-query counter increments and — when a log sink
// is configured — a JSON line is written. st and prof may be nil.
func (s *Server) noteSlow(endpoint, rid, src, text string, status int, elapsed time.Duration, st *query.Stats, prof *query.Profile) {
	if s.cfg.SlowQueryLog == nil && s.cfg.SlowQueryThreshold <= 0 {
		return
	}
	if elapsed < s.cfg.SlowQueryThreshold {
		return
	}
	s.m.slowQueries.Inc()
	if s.cfg.SlowQueryLog == nil {
		return
	}
	e := slowLogEntry{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		RequestID: rid,
		Endpoint:  endpoint,
		Source:    src,
		Query:     text,
		Status:    status,
		ElapsedUS: elapsed.Microseconds(),
		Profile:   prof,
	}
	if st != nil {
		e.Stats = &slowerStats{
			VerticesScanned: st.VerticesScanned,
			EdgesTraversed:  st.EdgesTraversed,
			PropsRead:       st.PropsRead,
			RowsEmitted:     st.RowsEmitted,
		}
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	// One writer at a time: keep each JSON line intact even when the sink
	// is a shared file.
	s.slowMu.Lock()
	s.cfg.SlowQueryLog.Write(line)
	s.slowMu.Unlock()
}
