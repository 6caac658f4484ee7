// Package obs is the unified observability layer: a central metrics
// registry every subsystem registers into (counters, gauges, func-backed
// readings, and log2 latency histograms), exposed in Prometheus text
// format by WritePrometheus. The package also ships a strict exposition-format parser
// (ParseExposition) used by the CI metrics-smoke job and the tests.
//
// Naming scheme: every metric is `pgs_<subsystem>_<what>[_total]` —
// `pgs_server_requests_total{endpoint,outcome}`, `pgs_plancache_hits_total`,
// `pgs_pager_page_reads_total`, `pgs_wal_fsyncs_total`,
// `pgs_compact_generation`, `pgs_request_latency_seconds{endpoint}`.
// Counters are monotonic and end in `_total`; gauges carry no suffix;
// histograms are exposed in seconds with log2 `le` edges.
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair. Series within a family are
// distinguished by their full label sets.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind tags a family with its exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; the hot path is one atomic add.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic) and returns
// the new value.
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable value that may go up and down (in-flight requests,
// queue depth).
type Gauge struct{ v atomic.Int64 }

// Add adds n (negative to decrement) and returns the new value.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// series is one (family, label set) time series and its value source:
// exactly one of counter/gauge/hist/fn is non-nil.
type series struct {
	labels  []Label // sorted by name
	key     string  // canonical rendering of labels, for dup detection
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family is one named metric and its series.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry is the central metric registry. Registration happens at
// subsystem construction (server New, store open); scraping walks the
// registered families in registration order, so exposition output is
// stable across scrapes.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// register adds one series, creating the family on first sight.
// Registration errors (invalid name, kind clash, duplicate label set)
// panic: they are programming errors at startup, not runtime conditions.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, s *series) {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	key := ""
	for _, l := range ls {
		if !labelNameRe.MatchString(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Name, name))
		}
		key += l.Name + "\x00" + l.Value + "\x00"
	}
	s.labels = ls
	s.key = key

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	for _, existing := range f.series {
		if existing.key == key {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, key))
		}
	}
	f.series = append(f.series, s)
}

// NewCounter registers and returns a counter series.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, labels, &series{counter: c})
	return c
}

// NewGauge registers and returns a gauge series.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, labels, &series{gauge: g})
	return g
}

// NewHistogram registers and returns a log2 latency histogram series.
func (r *Registry) NewHistogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.register(name, help, kindHistogram, labels, &series{hist: h})
	return h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for subsystems that already keep their own atomic
// counters (pager I/O, WAL activity, plan cache). fn must be monotonic
// and safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, labels, &series{fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
// fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, &series{fn: fn})
}
