package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the index of the span that caused this one, or -1.
type span struct {
	Name   string
	Cat    string // "setup", "probe", "http", or "" for twin request layers
	Req    string
	Parent int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer keeps spans in memory until the benchmark ends. The zero value
// times spans but records nothing, which is how the untraced paths share
// code with the traced ones.
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{on: true, epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// spanRef is an open span: its slot in the tracer (or -1), its start, and
// the request id its children inherit.
type spanRef struct {
	idx   int
	start time.Time
	req   string
}

func (t *tracer) begin(name, req, cat string) spanRef {
	return t.open(name, req, cat, -1)
}

// child opens a span caused by parent, inheriting its request id.
func (t *tracer) child(parent spanRef, name string) spanRef {
	return t.open(name, parent.req, "", parent.idx)
}

func (t *tracer) open(name, req, cat string, parent int) spanRef {
	ref := spanRef{idx: -1, start: time.Now(), req: req}
	if !t.on {
		return ref
	}
	t.mu.Lock()
	ref.idx = len(t.spans)
	t.spans = append(t.spans, span{Name: name, Cat: cat, Req: req, Parent: parent, Start: ref.start.Sub(t.epoch)})
	t.mu.Unlock()
	return ref
}

// end closes the span and returns its duration.
func (t *tracer) end(ref spanRef) time.Duration {
	now := time.Now()
	if ref.idx >= 0 {
		t.mu.Lock()
		t.spans[ref.idx].End = now.Sub(t.epoch)
		t.mu.Unlock()
	}
	return now.Sub(ref.start)
}

// add records a span whose interval was measured elsewhere (the server's
// own elapsed_us, placed inside the client span that observed it).
func (t *tracer) add(parent spanRef, name string, start, end time.Time) {
	if !t.on || parent.idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Cat: "http", Req: parent.req, Parent: parent.idx,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
	t.mu.Unlock()
}

// spanOverheadNs is the cost of one empty begin/end pair on this machine.
func spanOverheadNs() float64 {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("empty", "", ""))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// traceEvent is one Chrome trace-event ("X" = complete event); the file
// loads in Perfetto and chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every recorded span of every workload's tracer
// to path. Each workload is one "process" so its rows group together;
// HTTP spans, twin spans and set-up spans get a thread each.
func writeChromeTrace(path string, names []string, tracers map[string]*tracer) error {
	events := []traceEvent{}
	for pid, name := range names {
		t := tracers[name]
		if t == nil {
			continue
		}
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", PID: pid + 1, Args: map[string]any{"name": name},
		})
		for i, s := range t.spans {
			tid := 2 // twin request layers
			switch s.Cat {
			case "http":
				tid = 1
			case "setup", "probe":
				tid = 3
			}
			cat := s.Cat
			if cat == "" {
				cat = "twin"
			}
			events = append(events, traceEvent{
				Name: s.Name, Cat: cat, Ph: "X", PID: pid + 1, TID: tid,
				TS:   float64(s.Start.Nanoseconds()) / 1e3,
				Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
				Args: map[string]any{"span": i, "parent": s.Parent, "request_id": s.Req},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
