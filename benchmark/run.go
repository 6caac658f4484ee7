package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one invocation's protocol. Every workload of the invocation
// is measured under the same one.
type config struct {
	Seed    int64
	Clients int           // C: closed-loop clients, min(nproc, 4)
	Rounds  int           // R: measurement windows per workload
	Window  time.Duration // T: length of one window
	Warmup  time.Duration // per workload, before the first window
	Card    int           // 0 = the workloads' own cardinalities; the smoke test runs at 20
	// Setups set-ups are timed per workload, the first on the server that
	// is then measured and the rest on scratch copies between the rounds;
	// on mixed_live each is followed by a timed kill and restart.
	Setups int
	// Replay is how many requests of the stream the traced pass replays
	// through the twin and the 1-client HTTP windows.
	Replay int
	// CrashBatches is how many write batches mixed_live acknowledges, one
	// after another into an empty WAL, before each kill.
	CrashBatches int
	Trace        bool
	Bin          string // the pgsserve binary under test
	WorkDir      string // data dirs live here; removed at exit
}

// workloadResult is one workload's part of the report.
type workloadResult struct {
	Why         string             `json:"why"`
	ServerFlags []string           `json:"server_flags"`
	StoreMiB    float64            `json:"store_mib,omitempty"`
	CacheMiB    float64            `json:"cache_mib,omitempty"`
	Requests    int                `json:"requests"` // successful, measured windows
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	EndToEnd    map[string]summary `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Validity    []string           `json:"validity,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

// workloadRun is one workload's live state during an invocation.
type workloadRun struct {
	def workloadDef
	cfg *config
	dir string

	srv     *serverProc
	srvDir  string
	clients []*client
	one     []*client // the single client of the 1-client windows

	stream *staticStream
	// oracleRefs is what the direct-schema oracle answers; refs is what
	// the server under test itself answered at set-up, once its canonical
	// rows matched the oracle's, and what every later response is held to.
	oracleRefs map[string]reference
	refs       map[string]reference
	src        source
	mixed      *mixedSource

	ackMu sync.Mutex
	acked []string

	setups   []float64
	diskMiB  float64
	windows  []window
	steal    [2]float64 // steal and total jiffies over the windows
	before   map[string]float64
	after    map[string]float64
	peakMiB  float64
	restarts []float64
	lostAcks int
	crashN   int // write batches attempted by the kill-and-restart cycles
	tr       *tracer
	layers   map[string]float64
	errs     []string
}

func newWorkloadRun(def workloadDef, cfg *config) *workloadRun {
	return &workloadRun{
		def: def, cfg: cfg,
		dir:     filepath.Join(cfg.WorkDir, def.Name),
		clients: newClients(cfg.Clients),
		one:     newClients(1),
		layers:  map[string]float64{},
	}
}

func (w *workloadRun) fail(format string, args ...any) {
	if len(w.errs) < 20 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

// close stops the workload's child and removes its files.
func (w *workloadRun) close() {
	if w.srv != nil {
		w.srv.kill()
	}
	closeClients(w.clients)
	closeClients(w.one)
	os.RemoveAll(w.dir)
}

// prepare builds the request stream.
func (w *workloadRun) prepare() error {
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	if w.def.Name == wPointMem {
		w.stream = pointStream(w.cfg.Seed)
		return nil
	}
	var err error
	w.stream, err = paperStream(w.def.Spec.Dataset, w.cfg.Seed)
	return err
}

// takeOracleReferences takes the reference answers from a direct-schema
// memstore server over the same dataset: the paper's contract is that the
// optimized schema answers what the direct one does. Workloads over one
// dataset share one oracle, which is gone before anything is timed.
func takeOracleReferences(runs []*workloadRun, bin string) error {
	answered := map[serverSpec]map[string]reference{}
	for _, w := range runs {
		spec := w.def.Spec.direct()
		if answered[spec] == nil {
			oracle, err := startServer(bin, spec.flags("", 0, 0))
			if err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			refs := map[string]reference{}
			for _, v := range runs {
				if v.def.Spec.direct() != spec {
					continue
				}
				for _, t := range v.stream.Texts {
					if _, ok := refs[t]; ok {
						continue
					}
					if refs[t], err = w.one[0].fetchReference(oracle.base, t); err != nil {
						oracle.kill()
						return fmt.Errorf("oracle: %w", err)
					}
				}
			}
			oracle.kill()
			answered[spec] = refs
		}
		w.oracleRefs = answered[spec]
	}
	return nil
}

// errUncleanStop: pgsserve answers /healthz a moment before it installs
// its signal handler, and a SIGINT landing in between kills it without
// the drain that flushes a freshly loaded store. The store is then
// unusable; the set-up is made again.
var errUncleanStop = errors.New("the loading child did not stop cleanly")

// setupOnce is one set-up in dir: spawn, load, (restart at the serving
// cache size), healthy, and every distinct query text answered once so
// that plans are compiled and first-touch costs are paid. It returns the
// running server and how long that took.
func (w *workloadRun) setupOnce(dir string) (*serverProc, float64, error) {
	spec := w.def.Spec
	start := time.Now()
	srv, err := startServer(w.cfg.Bin, spec.flags(dir, loadCachePages, spec.AutoCompact))
	if err != nil {
		return nil, 0, err
	}
	if spec.Backend == "diskstore" {
		if !srv.stop() {
			return nil, 0, errUncleanStop
		}
		if srv, err = startServer(w.cfg.Bin, spec.flags(dir, spec.CachePages, spec.AutoCompact)); err != nil {
			return nil, 0, err
		}
	}
	c := w.one[0]
	for _, t := range w.stream.Texts {
		if status, err := c.post(srv.base+"/query", "", t, ""); err != nil || status != http.StatusOK {
			srv.kill()
			return nil, 0, fmt.Errorf("first touch: status %d, %v: %s", status, err, t)
		}
	}
	return srv, time.Since(start).Seconds(), nil
}

// timedSetup is one sample of setup_s.
func (w *workloadRun) timedSetup(dir string) (*serverProc, error) {
	srv, s, err := w.setupOnce(dir)
	for retry := 0; errors.Is(err, errUncleanStop) && retry < 3; retry++ {
		os.RemoveAll(dir)
		srv, s, err = w.setupOnce(dir)
	}
	if err != nil {
		return nil, fmt.Errorf("set-up %d: %w", len(w.setups)+1, err)
	}
	w.setups = append(w.setups, s)
	return srv, nil
}

// setup makes the first timed set-up and keeps its server for the
// measurement. Then, untimed, it compares the full row multiset of every
// distinct text against the reference.
func (w *workloadRun) setup() error {
	w.srvDir = filepath.Join(w.dir, "data")
	var err error
	if w.srv, err = w.timedSetup(w.srvDir); err != nil {
		return err
	}
	if w.def.Spec.Backend == "diskstore" {
		if w.diskMiB, err = dirMiB(w.srvDir); err != nil {
			return err
		}
	}
	w.refs = make(map[string]reference, len(w.stream.Texts))
	var differ []string
	for _, t := range w.stream.Texts {
		got, err := w.one[0].fetchReference(w.srv.base, t)
		if err != nil {
			return err
		}
		if want := w.oracleRefs[t]; got.Hash != want.Hash {
			differ = append(differ, fmt.Sprintf("%d rows, direct schema has %d rows: %s", got.Rows, want.Rows, t))
		}
		w.refs[t] = got
	}
	if len(differ) > 0 {
		return fmt.Errorf("%d of %d query texts answer differently from the direct schema:\n  %s",
			len(differ), len(w.stream.Texts), strings.Join(differ, "\n  "))
	}

	if w.def.Name != wMixedLive {
		w.src = newCycleSource(w.stream, w.refs, nil)
		return nil
	}
	reads := newCycleSource(w.stream, w.refs, touchesWritten)
	drugs, err := w.vertexIDs(writtenEdgeSrc, 256)
	if err != nil {
		return err
	}
	w.mixed = newMixedSource(reads, drugs, w.cfg.Seed, w.cfg.Clients)
	w.src = w.mixed
	return nil
}

// scratchSetup is one more sample of setup_s, taken between two rounds on
// a scratch copy while the server being measured idles, so that the
// samples see the same stretch of the machine's time as the windows do.
// On mixed_live the copy then gives one sample of restart_s.
func (w *workloadRun) scratchSetup() error {
	dir := filepath.Join(w.dir, "scratch")
	defer os.RemoveAll(dir)
	srv, err := w.timedSetup(dir)
	if err != nil {
		return err
	}
	if w.mixed != nil {
		if srv, err = w.crashRestart(srv, dir, fmt.Sprintf("s%d", len(w.restarts)), nil); err != nil {
			return err
		}
	}
	srv.kill()
	return nil
}

// vertexIDs asks the server under test for up to limit vertex ids of a
// label; a bare variable in RETURN renders as "v<id>".
func (w *workloadRun) vertexIDs(label string, limit int) ([]int64, error) {
	rows, err := w.one[0].queryRows(w.srv.base, fmt.Sprintf("MATCH (x:%s) RETURN x LIMIT %d", label, limit))
	if err != nil {
		return nil, err
	}
	var ids []int64
	for _, r := range rows {
		if len(r) != 1 {
			continue
		}
		tok := strings.Trim(string(r[0]), `"`)
		id, err := strconv.ParseInt(strings.TrimPrefix(tok, "v"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("vertex token %q: %w", tok, err)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no %s vertices to attach writes to", label)
	}
	return ids, nil
}

func (w *workloadRun) onAck(client int, r request) {
	w.mixed.acked(client, r)
	w.ackMu.Lock()
	w.acked = append(w.acked, r.Keys...)
	w.ackMu.Unlock()
}

// runOne drives one window at C clients.
func (w *workloadRun) runOne(d time.Duration) window {
	var onAck func(int, request)
	if w.mixed != nil {
		onAck = w.onAck
	}
	return runWindow(w.srv, w.src, w.clients, d, onAck)
}

// measureWindow is one measured window; the first one also takes the
// "before" scrape.
func (w *workloadRun) measureWindow() {
	if w.before == nil {
		var err error
		if w.before, err = w.srv.scrape(); err != nil {
			w.fail("scrape: %v", err)
		}
	}
	s0, t0 := cpuTotals()
	win := w.runOne(w.cfg.Window)
	s1, t1 := cpuTotals()
	w.steal[0] += s1 - s0
	w.steal[1] += t1 - t0
	w.windows = append(w.windows, win)
	for _, e := range win.Errors {
		w.fail("window %d: %s", len(w.windows), e)
	}
}

// quiesce waits until no background fold is running, so that a fold
// started in one window does not run inside another workload's window or
// beside a timed set-up.
func (w *workloadRun) quiesce() {
	if w.mixed == nil {
		return
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		m, err := w.srv.scrape()
		if err != nil || m["pgs_compact_fold_running"] == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// afterWindows takes the "after" scrape and the memory high-water mark.
func (w *workloadRun) afterWindows() {
	var err error
	if w.after, err = w.srv.scrape(); err != nil {
		w.fail("scrape: %v", err)
	}
	if w.peakMiB, err = rssMiB(w.srv.pid(), "VmHWM"); err != nil {
		w.fail("rss: %v", err)
	}
}

// epilogue is mixed_live's crash test on the server that was measured,
// outside every window: the last sample of restart_s, after which every
// key acknowledged in the windows must be readable too.
func (w *workloadRun) epilogue() error {
	var err error
	w.srv, err = w.crashRestart(w.srv, w.srvDir, "e", w.acked)
	return err
}

// crashRestart is one sample of restart_s. srv, serving dir, is restarted
// without auto-compaction and its delta folded, so that the WAL then holds
// exactly the cfg.CrashBatches batches that are written next, one after
// another; the process is killed; the time from the kill until it serves
// again is the sample. Every key in acked and every key just written must
// then be readable, or it counts as a failure. The restarted server is
// returned.
func (w *workloadRun) crashRestart(srv *serverProc, dir, tag string, acked []string) (_ *serverProc, err error) {
	spec := w.def.Spec
	flags := spec.flags(dir, spec.CachePages, 0)
	srv.stop()
	if srv, err = startServer(w.cfg.Bin, flags); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil && srv != nil {
			srv.kill()
		}
	}()
	resp, err := http.Post(srv.base+"/admin/compact", "", nil)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("/admin/compact: status %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		m, err := srv.scrape()
		if err != nil {
			return nil, err
		}
		if m["pgs_compact_fold_running"] == 0 && m["pgs_delta_vertices"]+m["pgs_delta_edges"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, errors.New("fold did not finish in 60s")
		}
	}

	c := w.one[0]
	rng := rand.New(rand.NewSource(w.cfg.Seed*7919 + int64(len(w.restarts))))
	keys := append([]string(nil), acked...)
	for i := 0; i < w.cfg.CrashBatches; i++ {
		r := buildWriteBatch(fmt.Sprintf("%s_%d_b%d", tag, w.cfg.Seed, i), w.mixed.drugs, rng)
		w.crashN++
		if s, reason := c.do(srv.base, r, ""); !s.OK {
			w.lostAcks++
			w.fail("write before the kill: %s", reason)
			continue
		}
		keys = append(keys, r.Keys...)
	}

	srv.kill()
	start := time.Now()
	if srv, err = startServer(w.cfg.Bin, flags); err != nil {
		return nil, fmt.Errorf("restart after kill: %w", err)
	}
	w.restarts = append(w.restarts, time.Since(start).Seconds())

	rows, err := c.queryRows(srv.base, fmt.Sprintf("MATCH (i:%s) RETURN i.%s", writtenLabel, writtenProp))
	if err != nil {
		return nil, err
	}
	have := make(map[string]bool, len(rows))
	for _, r := range rows {
		if len(r) == 1 {
			have[strings.Trim(string(r[0]), `"`)] = true
		}
	}
	for _, k := range keys {
		if !have[k] {
			w.lostAcks++
			w.fail("acknowledged key %s is not readable after the kill", k)
		}
	}
	return srv, nil
}

// sampler polls the child's /metrics at 20 Hz during the traced pass's
// own window of mixed_live (never during a measured one), for what a
// before/after scrape cannot see: how often a fold was running, how large
// the live delta got, and the pager's counters, which restart from zero
// whenever a fold installs a new base generation (each generation has its
// own pager).
type sampler struct {
	done chan struct{}
	wg   sync.WaitGroup

	samples  int
	busy     int
	deltaMax float64
	last     map[string]float64 // pager counters at the previous sample
	pager    map[string]float64 // their growth, summed across restarts
}

var pagerSeries = []string{"pgs_pager_page_hits_total", "pgs_pager_page_misses_total", "pgs_pager_page_reads_total"}

func startSampler(srv *serverProc, before map[string]float64) *sampler {
	s := &sampler{done: make(chan struct{}), last: before, pager: map[string]float64{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				if m, err := srv.scrape(); err == nil {
					s.observe(m)
				}
			}
		}
	}()
	return s
}

func (s *sampler) observe(m map[string]float64) {
	s.samples++
	if m["pgs_compact_fold_running"] > 0 {
		s.busy++
	}
	if d := m["pgs_delta_vertices"] + m["pgs_delta_edges"]; d > s.deltaMax {
		s.deltaMax = d
	}
	for _, name := range pagerSeries {
		if v := m[name]; v >= s.last[name] {
			s.pager[name] += v - s.last[name]
		} else {
			s.pager[name] += v // restarted from zero since the last sample
		}
	}
	s.last = m
}

// stop ends the sampling goroutine and waits for it.
func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// sampledWindow is the traced pass's own C-client window of mixed_live,
// with the sampler beside it. It feeds fold.busy_frac, delta.items_max
// and pager.* and no end-to-end number: the measured windows run without
// a sampler whatever the trace flag says.
func (w *workloadRun) sampledWindow() {
	before, err := w.srv.scrape()
	if err != nil {
		w.fail("scrape: %v", err)
		return
	}
	s := startSampler(w.srv, before)
	win := w.runOne(2 * w.cfg.Window)
	s.stop()
	if after, err := w.srv.scrape(); err == nil {
		s.observe(after)
	}
	for _, e := range win.Errors {
		w.fail("sampled window: %s", e)
	}
	if win.ok() == 0 || s.samples == 0 {
		return
	}
	l := w.layers
	l["fold.busy_frac"] = float64(s.busy) / float64(s.samples)
	l["delta.items_max"] = s.deltaMax
	hits, misses := s.pager["pgs_pager_page_hits_total"], s.pager["pgs_pager_page_misses_total"]
	if hits+misses > 0 {
		l["pager.hit_frac"] = hits / (hits + misses)
	}
	l["pager.misses_per_req"] = misses / float64(win.ok())
	l["pager.reads_per_req"] = s.pager["pgs_pager_page_reads_total"] / float64(win.ok())
}

// result reduces the run to the report's numbers.
func (w *workloadRun) result() *workloadResult {
	spec := w.def.Spec
	r := &workloadResult{
		Why:         w.def.Why,
		ServerFlags: spec.flags("<data-dir>", spec.CachePages, spec.AutoCompact),
		EndToEnd:    map[string]summary{},
		Errors:      w.errs,
	}
	if spec.Backend == "diskstore" {
		r.StoreMiB = w.diskMiB
		r.CacheMiB = float64(spec.CachePages) * pageBytes / (1 << 20)
	}
	bound := map[string]float64{}
	for _, m := range endToEnd {
		bound[m.Name] = m.Bound
	}
	put := func(name string, vals []float64) {
		if len(vals) > 0 {
			r.EndToEnd[name] = summarize(vals, bound[name])
		}
	}

	var qps, p50, p95, cpu, wp50, rss []float64
	for _, win := range w.windows {
		r.Attempted += win.Attempted
		r.Failed += win.Failed
		r.Requests += win.ok()
		if win.ok() == 0 || win.Seconds == 0 {
			continue
		}
		qps = append(qps, float64(win.ok())/win.Seconds)
		cpu = append(cpu, win.ServerCPUMs/float64(win.ok()))
		rss = append(rss, win.RSSMiB)
		if len(win.ReadMs) > 0 {
			p50 = append(p50, percentile(win.ReadMs, 50))
			p95 = append(p95, percentile(win.ReadMs, 95))
		}
		if len(win.WriteMs) > 0 {
			wp50 = append(wp50, percentile(win.WriteMs, 50))
		}
	}
	r.Attempted += w.crashN
	r.Failed += w.lostAcks
	put("setup_s", w.setups)
	put("qps", qps)
	put("read_p50_ms", p50)
	put("read_p95_ms", p95)
	put("cpu_ms_per_req", cpu)
	put("rss_mb", rss)
	if r.Attempted > 0 {
		put("fail_frac", []float64{float64(r.Failed) / float64(r.Attempted)})
	}
	if spec.Backend == "diskstore" {
		put("disk_mb", []float64{w.diskMiB})
	}
	if w.mixed != nil {
		put("write_p50_ms", wp50)
		put("restart_s", w.restarts)
	}

	w.counterLayers(r.Requests)
	r.PerLayer = w.layers
	r.Validity = w.validity(r)
	return r
}

// counterLayers fills the per-layer metrics that come from the server's
// own counters and from the generator, over the measured windows.
func (w *workloadRun) counterLayers(requests int) {
	if w.before == nil || w.after == nil || requests == 0 {
		return
	}
	delta := func(series string) float64 { return w.after[series] - w.before[series] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l := w.layers
	n := float64(requests)
	hits, misses := delta("pgs_plancache_hits_total"), delta("pgs_plancache_misses_total")
	l["query.plancache_hit_frac"] = ratio(hits, hits+misses)
	l["server.rss_peak_mb"] = w.peakMiB
	l["server.shed"] = delta(`pgs_server_requests_total{outcome="shed"}`)
	l["server.timeouts"] = delta(`pgs_server_requests_total{outcome="timeout"}`)

	// The pager's counters are per base generation, so before/after is
	// exact only where no fold can run; mixed_live's come from the traced
	// pass's sampled window.
	if w.def.Spec.Backend == "diskstore" && w.mixed == nil {
		ph, pm := delta("pgs_pager_page_hits_total"), delta("pgs_pager_page_misses_total")
		l["pager.hit_frac"] = ratio(ph, ph+pm)
		l["pager.misses_per_req"] = pm / n
		l["pager.reads_per_req"] = delta("pgs_pager_page_reads_total") / n
	}
	if w.mixed != nil {
		appends, syncs := delta("pgs_wal_appends_total"), delta("pgs_wal_syncs_total")
		l["wal.syncs_per_write"] = ratio(syncs, appends)
		l["wal.sync_ms"] = ratio(delta("pgs_wal_sync_seconds_total")*1e3, syncs)
		l["wal.bytes_per_write"] = ratio(delta("pgs_wal_bytes_total"), appends)
		l["fold.count"] = delta("pgs_compact_folds_total")
	}

	var bytes, clientCPU, wall float64
	var p99, wp95, wp99 []float64
	maxRead := 0.0
	for _, win := range w.windows {
		bytes += float64(win.RespBytes)
		clientCPU += win.ClientCPUMs / 1e3
		wall += win.Seconds
		if k := len(win.ReadMs); k > 0 {
			p99 = append(p99, percentile(win.ReadMs, 99))
			if win.ReadMs[k-1] > maxRead {
				maxRead = win.ReadMs[k-1]
			}
		}
		if len(win.WriteMs) > 0 {
			wp95 = append(wp95, percentile(win.WriteMs, 95))
			wp99 = append(wp99, percentile(win.WriteMs, 99))
		}
	}
	l["server.resp_bytes_per_req"] = bytes / n
	l["loadgen.client_cpu_frac"] = ratio(clientCPU, wall*float64(w.cfg.Clients))
	l["loadgen.read_p99_ms"] = median(p99)
	l["loadgen.read_max_ms"] = maxRead
	if w.mixed != nil {
		l["loadgen.write_p95_ms"] = median(wp95)
		l["loadgen.write_p99_ms"] = median(wp99)
	}
	l["env.steal_frac"] = ratio(w.steal[0], w.steal[1])
	l["env.nproc"] = float64(nproc())
}

// validity checks that each workload still stresses what it was built to
// stress. A line here does not fail the run — a later commit may
// legitimately move these — but it says the workload needs re-tuning.
// The thresholds assume the default cardinalities.
func (w *workloadRun) validity(r *workloadResult) []string {
	if w.cfg.Card > 0 || w.before == nil {
		return nil
	}
	var out []string
	note := func(ok bool, format string, args ...any) {
		if !ok {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	l := w.layers
	switch w.def.Name {
	case wPaperDir, wPaperOpt:
		note(l["query.plancache_hit_frac"] > 0.99, "plan-cache hit fraction %.3f, want > 0.99", l["query.plancache_hit_frac"])
	case wPointMem:
		note(l["query.plancache_hit_frac"] < 0.8, "plan-cache hit fraction %.3f, want < 0.8", l["query.plancache_hit_frac"])
	case wDiskTight:
		note(l["pager.hit_frac"] < 0.9, "pager hit fraction %.3f, want < 0.9", l["pager.hit_frac"])
		note(r.StoreMiB >= 20*r.CacheMiB, "store %.1f MiB is under 20x the %.1f MiB cache", r.StoreMiB, r.CacheMiB)
	case wMixedLive:
		if hit, ok := l["pager.hit_frac"]; ok {
			note(hit > 0.99, "pager hit fraction %.3f, want > 0.99", hit)
		}
		note(l["fold.count"] >= 4, "%.0f folds completed, want >= 4", l["fold.count"])
	}
	note(r.Requests >= 2000, "%d requests in the measured windows, want >= 2000", r.Requests)
	return out
}
