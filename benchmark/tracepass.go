package main

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"sort"
	"time"
)

// The traced pass runs after the measured windows and feeds no end-to-end
// number. It has three parts: 1-client HTTP windows against the child
// (client span and, from the elapsed_us every response carries, a
// server.handler child span), the same requests replayed through the
// in-process twin with a span around each layer call, and a direct
// storage probe. On mixed_live a C-client window with a /metrics sampler
// beside it comes first.
//
// Both sides walk the same positions — the first cfg.Replay requests of
// the workload's read cycle — again and again. Each position's time is
// the minimum over its repetitions: the host's noise only ever adds time,
// and it comes in bursts longer than a cycle, so the fastest repetition
// is the one that shows what the request costs (a median follows the
// burst, and made the residual check below fail on identical code). A
// layer's metric is the mean over positions. Means add, so
//
//	latency_1c = parse + rewrite + plan + execute + server.overhead + loadgen.transport
//
// holds exactly, with the two residuals defined as what is left. For
// mixed_live the pass covers the read cycle only; its writes are
// accounted by the wal.* counters.

// twinCycles is how many timed passes the twin makes over the positions
// (twice that if the first set disagrees with the server) after one
// untimed pass that brings its plan cache to the state the server's is in.
const twinCycles = 3

// positions is the replayed slice of the cycle, as requests.
func (w *workloadRun) positions() []request {
	reads := w.src
	if w.mixed != nil {
		reads = w.mixed.reads
	}
	c := reads.(*cycleSource)
	n := w.cfg.Replay
	out := make([]request, n)
	for i := range out {
		out[i] = c.reqs[c.seq[i%len(c.seq)]]
	}
	return out
}

// oneClient walks pos against base with a single client for at least d
// and at least one whole cycle, and returns each position's client
// latencies (ms) and server elapsed_us. tr records the spans; the zero
// tracer records none, which is the untraced window.
func (w *workloadRun) oneClient(base string, pos []request, d time.Duration, tr *tracer, tag string) (clientMs, serverUS [][]float64, seconds float64, err error) {
	c := w.one[0]
	clientMs = make([][]float64, len(pos))
	serverUS = make([][]float64, len(pos))
	start := time.Now()
	for n := 0; ; n++ {
		i := n % len(pos)
		if i == 0 && n > 0 && time.Since(start) >= d {
			break
		}
		reqID := ""
		if tr.on {
			reqID = fmt.Sprintf("%s-%s-%d", w.def.Name, tag, n)
		}
		sp := tr.begin("client./query", reqID, "http")
		t0 := time.Now()
		s, reason := c.do(base, pos[i], reqID)
		tr.end(sp)
		if !s.OK {
			return nil, nil, 0, fmt.Errorf("1-client window: %s", reason)
		}
		// The handler's interval is known by length only; it is drawn
		// centred in the client span that contains it.
		lat := time.Duration(s.LatencyMs * 1e6)
		handler := time.Duration(s.ServerUS) * time.Microsecond
		if handler < lat {
			tr.add(sp, "server.handler", t0.Add((lat-handler)/2), t0.Add((lat+handler)/2))
		}
		clientMs[i] = append(clientMs[i], s.LatencyMs)
		serverUS[i] = append(serverUS[i], float64(s.ServerUS))
	}
	return clientMs, serverUS, time.Since(start).Seconds(), nil
}

// meanOfMinima is the mean over positions of each position's fastest
// repetition.
func meanOfMinima(perPos [][]float64) float64 {
	mins := make([]float64, 0, len(perPos))
	for _, v := range perPos {
		if len(v) > 0 {
			mins = append(mins, slices.Min(v))
		}
	}
	return mean(mins)
}

func flatten(perPos [][]float64) []float64 {
	var out []float64
	for _, v := range perPos {
		out = append(out, v...)
	}
	sort.Float64s(out)
	return out
}

var (
	nodePattern = regexp.MustCompile(`\(\s*([A-Za-z_][A-Za-z0-9_]*)?\s*:\s*([A-Za-z_][A-Za-z0-9_]*)`)
	propAccess  = regexp.MustCompile(`\b([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)\b`)
)

// probeTargets reads, from the query texts the twin actually executed,
// the label each one's first pattern starts at and the property keys it
// reads on variables bound to that label.
func probeTargets(executed []string) map[string][]string {
	seen := map[string]map[string]bool{}
	for _, text := range executed {
		nodes := nodePattern.FindAllStringSubmatch(text, -1)
		if len(nodes) == 0 {
			continue
		}
		root := nodes[0][2]
		if seen[root] == nil {
			seen[root] = map[string]bool{}
		}
		labelOf := map[string]string{}
		for _, n := range nodes {
			if n[1] != "" {
				labelOf[n[1]] = n[2]
			}
		}
		for _, p := range propAccess.FindAllStringSubmatch(text, -1) {
			if labelOf[p[1]] == root {
				seen[root][p[2]] = true
			}
		}
	}
	out := map[string][]string{}
	for label, keys := range seen {
		out[label] = sortedKeys(keys)
	}
	return out
}

// tracedPass fills w.layers with everything that needs spans.
func (w *workloadRun) tracedPass() error {
	w.tr = newTracer()
	l := w.layers
	pos := w.positions()
	half := w.cfg.Window / 2
	if w.mixed != nil {
		w.sampledWindow()
		w.quiesce()
	}

	// 1. HTTP at one client: untraced, traced, and the direct-schema
	// oracle for the realized speed-up. The C-client windows left the
	// server's plan cache in some state; one untimed cycle brings it to
	// the state this cycle leaves behind, as the twin's warm pass does.
	var nop tracer
	if _, _, _, err := w.oneClient(w.srv.base, pos, 0, &nop, ""); err != nil {
		return err
	}
	plainMs, _, plainS, err := w.oneClient(w.srv.base, pos, w.cfg.Window, &nop, "")
	if err != nil {
		return err
	}
	clientMs, serverUS, _, err := w.oneClient(w.srv.base, pos, w.cfg.Window, w.tr, "http")
	if err != nil {
		return err
	}
	plain := flatten(plainMs)
	l["loadgen.qps_1c"] = float64(len(plain)) / plainS
	plainP50 := percentile(plain, 50)
	if plainP50 > 0 {
		l["trace.overhead_frac"] = percentile(flatten(clientMs), 50)/plainP50 - 1
	}
	l["trace.span_overhead_ns"] = spanOverheadNs()
	if w.def.Spec.Optimize && w.def.Spec.Backend == "memstore" {
		exact := make([]request, len(pos))
		for i, r := range pos {
			r.AtLeast = false
			r.Want = w.oracleRefs[r.Body].Rows
			exact[i] = r
		}
		oracle, err := startServer(w.cfg.Bin, w.def.Spec.direct().flags("", 0, 0))
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		oracleMs, _, _, err := w.oneClient(oracle.base, exact, half, &nop, "")
		oracle.kill()
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if plainP50 > 0 {
			l["optimizer.realized_speedup_p50"] = percentile(flatten(oracleMs), 50) / plainP50
		}
	}
	var qps []float64
	for _, win := range w.windows {
		if win.Seconds > 0 {
			qps = append(qps, float64(win.ok())/win.Seconds)
		}
	}
	if l["loadgen.qps_1c"] > 0 {
		l["loadgen.client_scaling"] = median(qps) / l["loadgen.qps_1c"]
	}

	// 2. The twin: same dataset, mapping and backend, in this process.
	spec := w.def.Spec
	tw, err := buildTwin(spec, w.dir, w.tr)
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	defer tw.close()
	tm := tw.timings
	l["datagen.generate_s"] = tm.GenerateS
	l["loader.load_s"] = tm.LoadS
	l["loader.vertices"] = float64(tm.Vertices)
	l["loader.edges"] = float64(tm.Edges)
	if spec.Optimize {
		l["optimizer.pgsg_s"] = tm.PGSGS
		l["optimizer.benefit_ratio"] = tm.BenefitRatio
	}
	if spec.Backend == "diskstore" {
		l["diskstore.open_s"] = tm.OpenS
	}

	ctx := context.Background()
	texts := make([]string, len(pos))
	for i, r := range pos {
		texts[i] = r.Body
		if _, err := tw.replay(ctx, r.Body, "", &nop); err != nil { // warm pass
			return fmt.Errorf("twin: %w", err)
		}
	}
	n := len(pos)
	parse, rewrite, plan, exec := make([][]float64, n), make([][]float64, n), make([][]float64, n), make([][]float64, n)
	var compile []float64
	var vertices, edges, props, rows int64
	executed := map[string]bool{}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	cycles := 0
	replayCycles := func() error {
		for end := cycles + twinCycles; cycles < end; cycles++ {
			for i, text := range texts {
				s, err := tw.replay(ctx, text, fmt.Sprintf("%s-twin-%d", w.def.Name, cycles*n+i), w.tr)
				if err != nil {
					return fmt.Errorf("twin: %w", err)
				}
				parse[i] = append(parse[i], us(s.Parse))
				rewrite[i] = append(rewrite[i], us(s.Rewrite))
				plan[i] = append(plan[i], us(s.Plan))
				exec[i] = append(exec[i], us(s.Execute))
				if !s.CacheHit {
					compile = append(compile, us(s.Plan))
				}
				if cycles == 0 {
					executed[s.Executed] = true
					vertices += s.Stats.VerticesScanned
					edges += s.Stats.EdgesTraversed
					props += s.Stats.PropsRead
					rows += int64(s.Rows)
				}
			}
		}
		return nil
	}

	// The decomposition and its residuals. A residual far below zero
	// means the twin took longer than the whole handler did: either it is
	// not doing what the server does, or noise covered its whole replay.
	// One more set of cycles tells the two apart before the run fails.
	latency := meanOfMinima(clientMs) * 1e3
	handler := meanOfMinima(serverUS)
	l["loadgen.latency_1c_us"] = latency
	l["server.handler_us"] = handler
	l["loadgen.transport_us"] = latency - handler
	for attempt := 0; ; attempt++ {
		if err := replayCycles(); err != nil {
			return err
		}
		l["cypher.parse_us"] = meanOfMinima(parse)
		if spec.Optimize {
			l["rewrite.rewrite_us"] = meanOfMinima(rewrite)
		}
		l["query.plan_us"] = meanOfMinima(plan)
		l["query.compile_us"] = median(compile)
		l["query.execute_us"] = meanOfMinima(exec)
		l["server.overhead_us"] = handler - (l["cypher.parse_us"] + meanOfMinima(rewrite) + l["query.plan_us"] + l["query.execute_us"])
		if l["server.overhead_us"] >= -0.10*latency && l["loadgen.transport_us"] >= -0.10*latency {
			break
		}
		if attempt == 1 {
			return fmt.Errorf("traced pass: residuals server.overhead_us = %.1f us, loadgen.transport_us = %.1f us; one is below -10%% of the %.1f us 1-client latency: the twin is not doing what the server does",
				l["server.overhead_us"], l["loadgen.transport_us"], latency)
		}
	}
	l["query.vertices_per_req"] = float64(vertices) / float64(n)
	l["query.edges_per_req"] = float64(edges) / float64(n)
	l["query.props_per_req"] = float64(props) / float64(n)
	l["query.rows_per_req"] = float64(rows) / float64(n)
	if l["query.allocs_per_req"], l["query.alloc_bytes_per_req"], err = tw.replayAllocs(ctx, texts); err != nil {
		return fmt.Errorf("twin: %w", err)
	}

	// 3. The storage probe, over what the twin executed.
	pr := tw.probe(probeTargets(sortedKeys(executed)), w.tr)
	l["storage.probe_ns_per_vertex"] = pr.NsPerVertex
	l["storage.probe_ns_per_edge"] = pr.NsPerEdge
	l["storage.probe_ns_per_prop"] = pr.NsPerProp

	// The direct-schema twin, for what the optimizer's choice realized.
	if spec.Optimize {
		dir, err := buildTwin(spec.direct(), w.dir, &nop)
		if err != nil {
			return fmt.Errorf("direct twin: %w", err)
		}
		defer dir.close()
		var dirEdges int64
		for _, text := range texts {
			s, err := dir.replay(ctx, text, "", &nop)
			if err != nil {
				return fmt.Errorf("direct twin: %w", err)
			}
			dirEdges += s.Stats.EdgesTraversed
		}
		if edges > 0 {
			l["optimizer.realized_edge_ratio"] = float64(dirEdges) / float64(edges)
		}
		l["optimizer.space_ratio"] = float64(tm.Vertices+tm.Edges) / float64(dir.timings.Vertices+dir.timings.Edges)
	}
	return nil
}
