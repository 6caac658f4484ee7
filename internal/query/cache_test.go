package query

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

func TestCacheHitsAndMisses(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	c := NewCache(8)
	const src = `MATCH (d:Drug) RETURN d.name ORDER BY d.name`

	p1, err := c.Get(mem, src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(mem, src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second Get compiled a new plan instead of hitting the cache")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
	res, err := Collect(context.Background(), p2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", rowStrings(res))
	}

	// A parsed query's rendering shares the entry with the canonical text form.
	q := cypher.MustParse(src)
	p3, err := c.Get(mem, q.String())
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 && q.String() == src {
		t.Error("the rendered query missed on the canonical text key")
	}

	if _, err := c.Get(mem, `THIS IS NOT CYPHER`); err == nil {
		t.Error("parse error not surfaced")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	c := NewCache(2)
	queries := []string{
		`MATCH (d:Drug) RETURN d.name`,
		`MATCH (i:Indication) RETURN i.desc`,
		`MATCH (r:Risk) RETURN COUNT(*)`,
	}
	plans := make([]*Prepared, len(queries))
	for i, src := range queries {
		p, err := c.Get(mem, src)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	if st := c.Stats(); st.Size != 2 {
		t.Fatalf("size after 3 inserts into capacity-2 cache = %d", st.Size)
	}
	// queries[0] was least recently used and must have been evicted …
	p, err := c.Get(mem, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if p == plans[0] {
		t.Error("LRU entry survived eviction")
	}
	// … while the evicted plan stays independently usable.
	if _, err := Collect(context.Background(), plans[0], ExecOptions{}); err != nil {
		t.Errorf("evicted plan broken: %v", err)
	}
	// queries[2] was touched most recently before the re-insert and must
	// still be cached.
	p2, err := c.Get(mem, queries[2])
	if err != nil {
		t.Fatal(err)
	}
	if p2 != plans[2] {
		t.Error("recently used entry was evicted")
	}
}

func TestCacheCrossGraphIsolation(t *testing.T) {
	g1 := memstore.New()
	buildMedGraph(t, g1)
	// g2 holds different data under the same labels, so a plan leak across
	// graphs would produce visibly wrong rows (and wrong symbol IDs).
	var g storetest.Batch
	g.Prop(g.Vertex("Drug"), "name", graph.S("OnlyInG2"))
	g2 := loadMem(t, &g)

	c := NewCache(8)
	const src = `MATCH (d:Drug) RETURN d.name ORDER BY d.name`
	p1, err := c.Get(g1, src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(g2, src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("one plan shared across two graphs")
	}
	if st := c.Stats(); st.Size != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want two independent entries", st)
	}
	r1, err := Collect(context.Background(), p1, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Collect(context.Background(), p2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 2 || len(r2.Rows) != 1 || r2.Rows[0][0].Str() != "OnlyInG2" {
		t.Errorf("cross-graph rows wrong: g1=%v g2=%v", rowStrings(r1), rowStrings(r2))
	}
}

func TestCacheConcurrentGet(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	c := NewCache(4)
	queries := []string{
		`MATCH (d:Drug) RETURN d.name`,
		`MATCH (i:Indication) RETURN i.desc`,
		`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, COUNT(i.desc)`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := queries[(seed+i)%len(queries)]
				p, err := c.Get(mem, src)
				if err != nil {
					errs <- err
					return
				}
				if _, err := Collect(context.Background(), p, ExecOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*50 {
		t.Errorf("stats = %+v, want %d lookups", st, 8*50)
	}
	if st.Size > 3 {
		t.Errorf("cache grew beyond the distinct query count: %+v", st)
	}
}

// gateGraph wraps a store and parks any Prepare against it inside
// CountLabelID (the planner's label-size lookup) until the gate is
// released. blocked counts the CountLabelID calls that found the gate
// closed — i.e. the number of
// compiles that actually started while the gate was shut — which is how
// the singleflight tests prove "exactly one compile".
type gateGraph struct {
	storage.Graph
	gate    chan struct{}
	blocked atomic.Int32
}

func (g *gateGraph) CountLabelID(label storage.SymbolID) int {
	select {
	case <-g.gate:
	default:
		g.blocked.Add(1)
		<-g.gate
	}
	return g.Graph.CountLabelID(label)
}

// waitFor polls until cond is satisfied or a deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for condition")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitForStats polls until cond is satisfied or the deadline passes.
func waitForStats(t *testing.T, c *Cache, cond func(CacheStats) bool) {
	t.Helper()
	waitFor(t, func() bool { return cond(c.Stats()) })
}

// TestCacheSingleflightColdMiss proves the singleflight contract: 8
// goroutines cold-missing the same key trigger exactly one Prepare, and
// every one of them receives the same plan. The gate graph holds the
// leader's compile open until the test has observed all 7 followers
// attached to it, so the misses are genuinely concurrent — there is no
// window in which a follower could have hit a completed entry.
func TestCacheSingleflightColdMiss(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	g := &gateGraph{Graph: mem, gate: make(chan struct{})}
	c := NewCache(8)
	const src = `MATCH (d:Drug) RETURN d.name ORDER BY d.name`

	const workers = 8
	plans := make([]*Prepared, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = c.Get(g, src)
		}(i)
	}
	// One leader is now parked inside Prepare (gate closed); wait until
	// the other 7 lookups have attached to its flight and the leader has
	// reached the gate, then let it finish.
	waitForStats(t, c, func(st CacheStats) bool { return st.Shared == workers-1 })
	waitFor(t, func() bool { return g.blocked.Load() == 1 })
	close(g.gate)
	wg.Wait()

	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if plans[i] == nil || plans[i] != plans[0] {
			t.Errorf("goroutine %d got a different plan pointer", i)
		}
	}
	if got := g.blocked.Load(); got != 1 {
		t.Errorf("%d compiles total, want exactly 1", got)
	}
	st := c.Stats()
	if st.Misses != workers || st.Shared != workers-1 || st.Hits != 0 || st.Size != 1 {
		t.Errorf("stats = %+v, want %d misses / %d shared / 0 hits / size 1", st, workers, workers-1)
	}
	// The shared plan must actually run.
	res, err := Collect(context.Background(), plans[0], ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", rowStrings(res))
	}
}

// TestCacheSingleflightPerKey checks de-duplication is per (query, graph)
// key: concurrent cold misses on two distinct queries compile twice —
// once each — and produce two distinct plans.
func TestCacheSingleflightPerKey(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	g := &gateGraph{Graph: mem, gate: make(chan struct{})}
	c := NewCache(8)
	queries := []string{
		`MATCH (d:Drug) RETURN d.name`,
		`MATCH (i:Indication) RETURN i.desc`,
	}

	const perKey = 4
	total := perKey * len(queries)
	plans := make([]*Prepared, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = c.Get(g, queries[i%len(queries)])
		}(i)
	}
	waitForStats(t, c, func(st CacheStats) bool { return st.Shared == int64(total-len(queries)) })
	waitFor(t, func() bool { return g.blocked.Load() == int32(len(queries)) })
	close(g.gate)
	wg.Wait()

	for i := 0; i < total; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if plans[i] != plans[i%len(queries)] {
			t.Errorf("goroutine %d: plan not shared within its key", i)
		}
	}
	if plans[0] == plans[1] {
		t.Error("distinct queries shared one plan")
	}
	if st := c.Stats(); st.Size != 2 || st.Shared != int64(total-len(queries)) {
		t.Errorf("stats = %+v, want size 2 / shared %d", st, total-len(queries))
	}
}

// panicGraph panics inside the first Prepare that reaches it (after the
// gate opens); later compiles pass through.
type panicGraph struct {
	storage.Graph
	gate     chan struct{}
	panicked atomic.Bool
}

func (g *panicGraph) CountLabelID(label storage.SymbolID) int {
	<-g.gate
	if g.panicked.CompareAndSwap(false, true) {
		panic("compile blew up")
	}
	return g.Graph.CountLabelID(label)
}

// TestCacheSingleflightLeaderPanic checks a panicking compile cannot
// wedge its key: the parked follower is released with an error instead of
// a nil plan, and the next Get retries the compile from scratch.
func TestCacheSingleflightLeaderPanic(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	g := &panicGraph{Graph: mem, gate: make(chan struct{})}
	c := NewCache(8)
	const src = `MATCH (d:Drug) RETURN d.name`

	// Two identical workers: whichever registers first leads (and
	// panics); the other attaches as the follower. Roles are decided by
	// the scheduler, so both recover and we sort it out afterwards.
	type result struct {
		plan     *Prepared
		err      error
		panicked bool
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					results[i].panicked = true
				}
			}()
			results[i].plan, results[i].err = c.Get(g, src)
		}(i)
	}
	waitForStats(t, c, func(st CacheStats) bool { return st.Shared == 1 })
	close(g.gate)
	wg.Wait()

	var followers []result
	for _, r := range results {
		if !r.panicked {
			followers = append(followers, r)
		}
	}
	if len(followers) != 1 {
		t.Fatalf("%d workers panicked, want exactly 1 (the leader)", 2-len(followers))
	}
	if f := followers[0]; f.err == nil || f.plan != nil {
		t.Errorf("follower after leader panic got (%v, %v), want a nil plan and an error", f.plan, f.err)
	}
	// The key must not be wedged: a fresh Get compiles successfully.
	p, err := c.Get(g, src)
	if err != nil || p == nil {
		t.Fatalf("Get after leader panic: (%v, %v)", p, err)
	}
	if st := c.Stats(); st.Size != 1 {
		t.Errorf("stats after recovery = %+v, want size 1", st)
	}
}

// TestCacheSingleflightError checks followers share the leader's error and
// that a failed compile leaves no cache entry (the next Get retries).
func TestCacheSingleflightError(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	c := NewCache(8)
	const bad = `MATCH (d:Drug) RETURN nosuchfn(d.name)`

	const workers = 4
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Get(mem, bad)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("goroutine %d: compile error not shared", i)
		}
	}
	if st := c.Stats(); st.Size != 0 {
		t.Errorf("failed compile left a cache entry: %+v", st)
	}
	if _, err := c.Get(mem, bad); err == nil {
		t.Error("retry after failed compile unexpectedly succeeded")
	}
}

// TestCacheSharesOneShapeAcrossLiterals: texts that differ only in a
// lifted literal compile once; each Get binds its own value into the
// shared plan, and a shape's plan does not run unbound.
func TestCacheSharesOneShapeAcrossLiterals(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	c := NewCache(8)
	for i, name := range []string{"Aspirin", "Ibuprofen", "Aspirin", "absent"} {
		src := `MATCH (d:Drug {name: '` + name + `'})-[:treat]->(i:Indication) WHERE i.desc <> 'Headache' RETURN d.name, i.desc`
		p, hit, err := c.GetWithInfo(mem, src)
		if err != nil {
			t.Fatal(err)
		}
		if hit != (i > 0) {
			t.Errorf("%s: hit = %v", name, hit)
		}
		got, err := Collect(context.Background(), p, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(mem, cypher.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := rowStrings(got), rowStrings(want); !reflect.DeepEqual(g, w) || (name == "Aspirin" && len(g) == 0) {
			t.Errorf("%s: rows %v, want %v", name, g, w)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 3 || st.Size != 1 {
		t.Errorf("stats = %+v, want one compile shared by four lookups", st)
	}

	key, _, err := cypher.Shape(`MATCH (d:Drug {name: 'Aspirin'}) RETURN d.name`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cypher.ParseShape(key, "")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(mem, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(context.Background(), p, ExecOptions{}); err == nil {
		t.Error("a plan with an unbound parameter slot ran")
	}
}
