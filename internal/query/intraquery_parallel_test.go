package query

// Intra-query (morsel-driven) parallelism tests: one query fanned out
// over a worker pool must be indistinguishable — rows AND work counters —
// from a serial execution, across the full shape matrix, on both
// backends, including against a diskstore live delta segment. The
// inter-query contract (many goroutines, each serial) lives in
// interquery_parallel_test.go.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

// buildPeopleGraph loads n Person vertices (every 11th also Admin) with
// unique names, small-domain age/grp properties for grouping and
// DISTINCT, and two deterministic knows edges per vertex so multi-hop
// patterns produce real fan-out.
func buildPeopleGraph(t testing.TB, b storage.Builder, n int) {
	t.Helper()
	mustLoad(t, b, peopleGraph(n))
}

// peopleGraph is the graph buildPeopleGraph loads.
func peopleGraph(n int) *storetest.Batch {
	var g storetest.Batch
	for i := 0; i < n; i++ {
		labels := []string{"Person"}
		if i%11 == 0 {
			labels = append(labels, "Admin")
		}
		v := g.Vertex(labels...)
		g.Prop(v, "name", graph.S(fmt.Sprintf("p%05d", i)))
		g.Prop(v, "age", graph.I(int64(i%13)))
		g.Prop(v, "grp", graph.S(fmt.Sprintf("g%d", i%7)))
	}
	for i := 0; i < n; i++ {
		for _, j := range []int{(i*7 + 1) % n, (i*13 + 5) % n} {
			g.Edge(storage.VID(i), storage.VID(j), "knows")
		}
	}
	return &g
}

// intraShape is one entry of the parallel-vs-serial shape matrix.
type intraShape struct {
	src string
	// ordered marks queries whose ORDER BY induces a total order, so the
	// parallel rows must match serial rows positionally, not just as a
	// multiset.
	ordered bool
}

var intraShapes = []intraShape{
	// Plain projection (the streaming pipeline path).
	{src: `MATCH (p:Person) RETURN p.name`},
	// WHERE filter over the morsel partitions.
	{src: `MATCH (p:Person) WHERE p.age > 5 RETURN p.name, p.age`},
	// Grouped aggregates: every merge rule at once.
	{src: `MATCH (p:Person) RETURN p.grp, COUNT(*), SUM(p.age), AVG(p.age), MIN(p.name), MAX(p.name)`},
	// DISTINCT aggregates (the recorded-value replay merge).
	{src: `MATCH (p:Person) RETURN p.grp, COUNT(DISTINCT p.age), SUM(DISTINCT p.age)`},
	// COLLECT via its order-insensitive size.
	{src: `MATCH (p:Person) RETURN p.grp, size(COLLECT(p.name))`},
	// DISTINCT rows through the sharded key set.
	{src: `MATCH (p:Person) RETURN DISTINCT p.age`},
	// Aggregate over zero rows must still yield its one row in parallel.
	{src: `MATCH (p:Person) WHERE p.age > 100 RETURN COUNT(*), SUM(p.age)`},
	// ORDER BY + LIMIT: per-worker top-k heaps; name is unique, so the
	// order is total and the comparison positional.
	{src: `MATCH (p:Person) RETURN p.name, p.age ORDER BY p.age DESC, p.name LIMIT 25`, ordered: true},
	// DISTINCT + ORDER BY + LIMIT: dedup must run before the top-k cut.
	{src: `MATCH (p:Person) RETURN DISTINCT p.age ORDER BY p.age LIMIT 5`, ordered: true},
	// ORDER BY without LIMIT: gathered and sorted at the sink.
	{src: `MATCH (p:Person) RETURN p.age, p.name ORDER BY p.name`, ordered: true},
	// Multi-hop with the relationship-uniqueness stack active.
	{src: `MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN a.name, c.name`},
	// Multi-hop feeding grouped aggregation.
	{src: `MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN a.grp, COUNT(*)`},
	// Grouped + ORDER BY on the aggregate + LIMIT.
	{src: `MATCH (p:Person) RETURN p.grp, COUNT(*) AS n ORDER BY n DESC, p.grp LIMIT 3`, ordered: true},
}

// checkIntraShapes runs every shape serially and at several worker
// counts on g, requiring identical rows and — satellite: exact stats —
// identical work counters.
func checkIntraShapes(t *testing.T, g storage.Graph, wantParallel bool) {
	t.Helper()
	for _, shape := range intraShapes {
		p, err := Prepare(g, cypher.MustParse(shape.src))
		if err != nil {
			t.Fatalf("Prepare(%q): %v", shape.src, err)
		}
		if wantParallel && !p.Parallelizable() {
			t.Errorf("plan for %q should be parallelizable", shape.src)
		}
		var serialStats Stats
		ref, err := collect(p, 1, &serialStats)
		if err != nil {
			t.Fatalf("serial Execute(%q): %v", shape.src, err)
		}
		wantOrdered := rowStrings(ref)
		SortRowsForComparison(ref.Rows)
		want := rowStrings(ref)

		for _, workers := range []int{2, 4, 8} {
			var pst Stats
			res, err := collect(p, workers, &pst)
			if err != nil {
				t.Fatalf("Exec(%q, %d workers): %v", shape.src, workers, err)
			}
			if shape.ordered {
				if got := rowStrings(res); !reflect.DeepEqual(got, wantOrdered) {
					t.Errorf("%q with %d workers: ordered rows = %v, want %v", shape.src, workers, got, wantOrdered)
				}
			}
			SortRowsForComparison(res.Rows)
			if got := rowStrings(res); !reflect.DeepEqual(got, want) {
				t.Errorf("%q with %d workers: rows = %v, want %v", shape.src, workers, got, want)
			}
			if pst != serialStats {
				t.Errorf("%q with %d workers: stats = %+v, want exactly serial %+v", shape.src, workers, pst, serialStats)
			}
		}
	}
}

// TestIntraQueryParallelMatchesSerial is the morsel executor's
// equivalence contract over the full shape matrix, on both backends.
func TestIntraQueryParallelMatchesSerial(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildPeopleGraph(t, b, 420)
		checkIntraShapes(t, b, true)
	})
}

// TestIntraQueryParallelLiveDelta proves morsel partitioning respects the
// live-write merge rules: a finalized diskstore takes post-Finalize
// mutations into its delta segment, and parallel execution over the
// combined base+delta vertex set stays exactly equivalent to serial.
func TestIntraQueryParallelLiveDelta(t *testing.T) {
	s, err := diskstore.Open(t.TempDir(), diskstore.Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const base, extra = 200, 140
	buildPeopleGraph(t, s, base)
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !s.Live() {
		t.Fatal("finalized non-empty diskstore should be in live mode")
	}
	var batch []storage.Mutation
	for i := 0; i < extra; i++ {
		ref := storage.VID(-(i + 1))
		labels := []string{"Person"}
		if i%11 == 0 {
			labels = append(labels, "Admin")
		}
		batch = append(batch,
			storage.Mutation{Op: storage.MutAddVertex, Labels: labels},
			storage.Mutation{Op: storage.MutSetProp, V: ref, Key: "name", Value: graph.S(fmt.Sprintf("q%05d", i))},
			storage.Mutation{Op: storage.MutSetProp, V: ref, Key: "age", Value: graph.I(int64(i % 13))},
			storage.Mutation{Op: storage.MutSetProp, V: ref, Key: "grp", Value: graph.S(fmt.Sprintf("g%d", i%7))},
			storage.Mutation{Op: storage.MutAddEdge, Src: ref, Dst: storage.VID(i % base), Type: "knows"},
			storage.Mutation{Op: storage.MutAddEdge, Src: storage.VID((i * 3) % base), Dst: ref, Type: "knows"},
		)
	}
	if _, err := s.ApplyMutations(batch); err != nil {
		t.Fatal(err)
	}
	if ls := s.LiveStats(); ls.DeltaVertices != extra {
		t.Fatalf("delta vertices = %d, want %d", ls.DeltaVertices, extra)
	}
	// The partitioned scan must cover base postings AND delta members.
	p, err := Prepare(s, cypher.MustParse(`MATCH (p:Person) RETURN COUNT(p.name)`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect(p, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowStrings(res); !reflect.DeepEqual(got, []string{fmt.Sprint([]graph.Value{graph.I(base + extra)})}) {
		t.Fatalf("COUNT over base+delta = %v, want %d", got, base+extra)
	}
	checkIntraShapes(t, s, true)
}

// TestIntraQueryParallelDuringCompact is the epoch-swap stress test:
// queries run — on one inline morsel and on 2, 4 and 8 workers — while a
// background Compact folds the live delta into a new base generation and
// swaps epochs mid-query. Every execution must stay bit-for-bit
// equivalent — rows AND work counters — to a reference taken while the
// store was quiesced, because each query pins one snapshot and reads
// nothing else, and the fold only changes the physical layout. The delta growing between rounds holds only Filler
// vertices the Person queries never touch, so the logical answer is
// fold-invariant by construction. Run under -race, the schedule itself
// is half the test.
func TestIntraQueryParallelDuringCompact(t *testing.T) {
	s, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const base = 1200
	buildPeopleGraph(t, s, base)
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !s.Live() {
		t.Fatal("finalized non-empty diskstore should be in live mode")
	}

	shapes := []intraShape{
		{src: `MATCH (p:Person) RETURN p.name`},
		{src: `MATCH (p:Person) RETURN p.grp, COUNT(*), SUM(p.age), AVG(p.age), MIN(p.name), MAX(p.name)`},
		{src: `MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN a.grp, COUNT(*)`},
		{src: `MATCH (p:Person) RETURN p.name, p.age ORDER BY p.age DESC, p.name LIMIT 25`, ordered: true},
	}
	type reference struct {
		shape       intraShape
		p           *Prepared
		want        []string
		wantOrdered []string
		st          Stats
	}

	startGen := s.LiveStats().Generation
	const rounds = 4
	for round := 0; round < rounds; round++ {
		// Grow the delta with vertices no Person query can observe, so
		// the next fold has real work without changing any answer.
		var batch []storage.Mutation
		for i := 0; i < 40; i++ {
			a, b := storage.VID(-(2*i + 1)), storage.VID(-(2*i + 2))
			batch = append(batch,
				storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"Filler"}},
				storage.Mutation{Op: storage.MutAddVertex, Labels: []string{"Filler"}},
				storage.Mutation{Op: storage.MutSetProp, V: a, Key: "pad", Value: graph.I(int64(round*100 + i))},
				storage.Mutation{Op: storage.MutAddEdge, Src: a, Dst: b, Type: "pad"},
			)
		}
		if _, err := s.ApplyMutations(batch); err != nil {
			t.Fatal(err)
		}

		// Quiesced serial references for this round's logical state.
		refs := make([]reference, 0, len(shapes))
		for _, shape := range shapes {
			p, err := Prepare(s, cypher.MustParse(shape.src))
			if err != nil {
				t.Fatalf("Prepare(%q): %v", shape.src, err)
			}
			r := reference{shape: shape, p: p}
			res, err := collect(p, 1, &r.st)
			if err != nil {
				t.Fatalf("quiesced Exec(%q): %v", shape.src, err)
			}
			r.wantOrdered = rowStrings(res)
			SortRowsForComparison(res.Rows)
			r.want = rowStrings(res)
			refs = append(refs, r)
		}

		foldDone := make(chan error, 1)
		go func() { foldDone <- s.Compact() }()

		var wg sync.WaitGroup
		for _, r := range refs {
			for _, workers := range []int{1, 2, 4, 8} {
				wg.Add(1)
				go func(r reference, workers int) {
					defer wg.Done()
					var pst Stats
					res, err := collect(r.p, workers, &pst)
					if err != nil {
						t.Errorf("round %d: Exec(%q, %d workers): %v", round, r.shape.src, workers, err)
						return
					}
					if r.shape.ordered {
						if got := rowStrings(res); !reflect.DeepEqual(got, r.wantOrdered) {
							t.Errorf("round %d: %q with %d workers mid-fold: ordered rows diverged", round, r.shape.src, workers)
						}
					}
					SortRowsForComparison(res.Rows)
					if got := rowStrings(res); !reflect.DeepEqual(got, r.want) {
						t.Errorf("round %d: %q with %d workers mid-fold: rows diverged from quiesced serial", round, r.shape.src, workers)
					}
					if pst != r.st {
						t.Errorf("round %d: %q with %d workers mid-fold: stats = %+v, want exactly serial %+v", round, r.shape.src, workers, pst, r.st)
					}
				}(r, workers)
			}
		}
		wg.Wait()
		if err := <-foldDone; err != nil {
			t.Fatalf("round %d: background fold: %v", round, err)
		}
	}
	if ls := s.LiveStats(); ls.Generation != startGen+rounds {
		t.Errorf("generation = %d after %d folds, want %d (every round must really swap epochs)",
			ls.Generation, rounds, startGen+rounds)
	}
	if ls := s.LiveStats(); ls.PinnedSnapshots != 0 {
		t.Errorf("%d snapshots still pinned after all queries returned", ls.PinnedSnapshots)
	}
}

// TestIntraQueryPlannerStaysSerial pins the planner's serial choices: a
// LIMIT without ORDER BY keeps the serial early exit, and a root label
// under the threshold falls back at runtime while still answering
// correctly.
func TestIntraQueryPlannerStaysSerial(t *testing.T) {
	b := memstore.New()
	buildPeopleGraph(t, b, 100)
	for _, src := range []string{
		`MATCH (p:Person) RETURN p.name LIMIT 1`,
		`MATCH (p:Person) WHERE p.age = 3 RETURN p.name LIMIT 5`,
	} {
		p, err := Prepare(b, cypher.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if p.Parallelizable() {
			t.Errorf("plan for %q should stay serial (LIMIT without ORDER BY)", src)
		}
	}

	// Admin appears on ~10 of 100 vertices — under MinParallelRootCount,
	// so execution falls back to serial; results must still be exact.
	src := `MATCH (a:Admin) RETURN a.name`
	p, err := Prepare(b, cypher.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Parallelizable() {
		t.Fatalf("plan for %q should be shape-eligible", src)
	}
	if n := b.CountLabel("Admin"); n >= MinParallelRootCount {
		t.Fatalf("test premise broken: Admin count %d >= threshold %d", n, MinParallelRootCount)
	}
	ref, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect(p, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	SortRowsForComparison(ref.Rows)
	SortRowsForComparison(res.Rows)
	if !reflect.DeepEqual(rowStrings(res), rowStrings(ref)) {
		t.Errorf("small-label fallback rows = %v, want %v", rowStrings(res), rowStrings(ref))
	}
}

// sinkFunc adapts a function to Sink.
type sinkFunc func(row []graph.Value) error

func (f sinkFunc) AddRow(row []graph.Value) error { return f(row) }

// TestIntraQueryStreamMatchesExecute covers row fidelity of a caller's
// own sink: rows delivered one at a time must equal the materialized
// result on both the inline (workers=1) and morsel paths.
func TestIntraQueryStreamMatchesExecute(t *testing.T) {
	b := memstore.New()
	buildPeopleGraph(t, b, 420)
	p, err := Prepare(b, cypher.MustParse(`MATCH (p:Person) WHERE p.age > 4 RETURN p.name, p.age`))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	SortRowsForComparison(ref.Rows)
	want := rowStrings(ref)
	for _, workers := range []int{1, 4} {
		var st Stats
		var got [][]graph.Value
		err := p.Exec(context.Background(), ExecOptions{Workers: workers, Stats: &st}, sinkFunc(func(row []graph.Value) error {
			got = append(got, row)
			return nil
		}))
		if err != nil {
			t.Fatalf("Stream with %d workers: %v", workers, err)
		}
		res := &Result{Columns: p.Columns(), Rows: got}
		SortRowsForComparison(res.Rows)
		if !reflect.DeepEqual(rowStrings(res), want) {
			t.Errorf("streamed rows with %d workers = %v, want %v", workers, rowStrings(res), want)
		}
		if st.RowsEmitted != int64(len(want)) {
			t.Errorf("RowsEmitted with %d workers = %d, want %d", workers, st.RowsEmitted, len(want))
		}
	}
}

// TestIntraQueryReaderErrorCancelsScan is the hung/failing-reader
// contract: a sink error is what Exec returns, and it stops the scan
// mid-flight — at that very row on one inline morsel, and on the morsel
// path by cancelling every sibling worker, bounded by the streaming
// pipeline's backpressure plus the cancellation polling window — rather
// than after the full scan.
func TestIntraQueryReaderErrorCancelsScan(t *testing.T) {
	const n = 20000
	b := memstore.New()
	buildPeopleGraph(t, b, n)
	p, err := Prepare(b, cypher.MustParse(`MATCH (p:Person) RETURN p.name`))
	if err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("reader hung up")
	for _, workers := range []int{1, 4} {
		var st Stats
		err = p.Exec(context.Background(), ExecOptions{Workers: workers, Stats: &st}, sinkFunc(func(row []graph.Value) error {
			return errBoom
		}))
		if !errors.Is(err, errBoom) {
			t.Fatalf("%d workers: error = %v, want %v", workers, err, errBoom)
		}
		if st.VerticesScanned == 0 {
			t.Fatalf("%d workers: no work recorded before the failure", workers)
		}
		if st.VerticesScanned >= n/2 {
			t.Errorf("%d workers: reader failure did not stop the scan mid-flight: scanned %d of %d vertices", workers, st.VerticesScanned, n)
		}
	}
}

// TestIntraQueryContextCancelStopsWorkers mirrors the serving path's
// request-timeout behavior: canceling the caller's context mid-stream
// stops all morsel workers promptly and surfaces context.Canceled.
func TestIntraQueryContextCancelStopsWorkers(t *testing.T) {
	const n = 20000
	b := memstore.New()
	buildPeopleGraph(t, b, n)
	p, err := Prepare(b, cypher.MustParse(`MATCH (p:Person) RETURN p.name`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var st Stats
	calls := 0
	err = p.Exec(ctx, ExecOptions{Workers: 4, Stats: &st}, sinkFunc(func(row []graph.Value) error {
		calls++
		if calls == 1 {
			cancel()
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", err)
	}
	if st.VerticesScanned == 0 || st.VerticesScanned >= n/2 {
		t.Errorf("cancel did not stop the scan mid-flight: scanned %d of %d vertices", st.VerticesScanned, n)
	}
}
