package query

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cypher"
	"repro/internal/storage"
)

// TestInterQueryParallelMatchesSerial is the *inter*-query concurrency
// contract of the compiled executor: one shared Prepared plan executed
// from many goroutines (each running its own serial query) must produce,
// on every call, exactly the rows a serial execution produces — on both
// backends. Under -race this also proves the pooled machines never share
// mutable state. The *intra*-query contract — one query fanned out over
// morsel workers — lives in intraquery_parallel_test.go.
func TestInterQueryParallelMatchesSerial(t *testing.T) {
	queries := []string{
		// Projection with ORDER BY.
		`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc ORDER BY i.desc`,
		// Implicit grouping with aggregate state and DISTINCT dedup keys.
		`MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, COUNT(DISTINCT i.desc)`,
		// Multi-hop with relationship-uniqueness stack.
		`MATCH (d:Drug)-[:cause]->(r:Risk)<-[:unionOf]-(ci:ContraIndication) RETURN d.name, ci.desc`,
		// WHERE filter plus DISTINCT rows.
		`MATCH (d:Drug)-[:treat]->(i:Indication) WHERE d.name = 'Aspirin' RETURN DISTINCT d.name`,
	}
	const goroutines = 8
	const iters = 25
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		for _, src := range queries {
			p, err := Prepare(b, cypher.MustParse(src))
			if err != nil {
				t.Fatalf("Prepare(%q): %v", src, err)
			}
			ref, err := Collect(context.Background(), p, ExecOptions{})
			if err != nil {
				t.Fatalf("serial Execute(%q): %v", src, err)
			}
			SortRowsForComparison(ref.Rows)
			want := rowStrings(ref)

			var wg sync.WaitGroup
			stats := make([]Stats, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						res, err := collect(p, 1, &stats[g])
						if err != nil {
							t.Errorf("goroutine %d: Execute(%q): %v", g, src, err)
							return
						}
						SortRowsForComparison(res.Rows)
						if got := rowStrings(res); !reflect.DeepEqual(got, want) {
							t.Errorf("goroutine %d: Execute(%q) rows = %v, want %v", g, src, got, want)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Every execution does identical work, so per-goroutine stats
			// must be exact multiples of one serial run — a cheap way to
			// catch counter cross-talk between pooled machines.
			var serial Stats
			if _, err := collect(p, 1, &serial); err != nil {
				t.Fatal(err)
			}
			for g := range stats {
				wantStats := Stats{
					VerticesScanned: serial.VerticesScanned * iters,
					EdgesTraversed:  serial.EdgesTraversed * iters,
					PropsRead:       serial.PropsRead * iters,
					RowsEmitted:     serial.RowsEmitted * iters,
				}
				if stats[g] != wantStats {
					t.Errorf("goroutine %d stats = %+v, want %+v (%q)", g, stats[g], wantStats, src)
				}
			}
		}
	})
}

// TestInterQuerySharedPlanViaCache drives the ad-hoc inter-query path end
// to end: many goroutines fetch the same query text through one Cache and
// execute whatever plan they get back, concurrently.
func TestInterQuerySharedPlanViaCache(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildMedGraph(t, b)
		c := NewCache(4)
		const src = `MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, COUNT(i.desc)`
		ref, err := Run(b, cypher.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		SortRowsForComparison(ref.Rows)
		want := rowStrings(ref)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					p, err := c.Get(b, src)
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					res, err := Collect(context.Background(), p, ExecOptions{})
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					SortRowsForComparison(res.Rows)
					if got := rowStrings(res); !reflect.DeepEqual(got, want) {
						t.Errorf("goroutine %d: rows = %v, want %v", g, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
