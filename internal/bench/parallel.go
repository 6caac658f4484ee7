package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Parallel-reader scaling: one shared plan, N concurrent executors.
// ---------------------------------------------------------------------

// ParallelPoint is one goroutine-count position of the parallel-reader
// scaling experiment: the same compiled plan executed from Goroutines
// concurrent workers, Ops executions in total.
type ParallelPoint struct {
	Goroutines  int
	Ops         int
	TotalMs     float64
	OpsPerSec   float64
	AllocsPerOp float64
	// Speedup is aggregate throughput relative to the first point of the
	// same run — the serial baseline when the goroutine counts start at 1,
	// as DefaultParallelGoroutines does.
	Speedup float64
}

// DefaultParallelGoroutines is the experiment's x-axis.
var DefaultParallelGoroutines = []int{1, 2, 4, 8}

// ParallelScaling measures how one shared Prepared plan scales across
// concurrent readers on the given backend: for each goroutine count it
// executes the plan opsPerGoroutine times per worker and reports
// aggregate throughput. The plan is fetched through a query.Cache — the
// same compile-once path ad-hoc callers use — so the experiment also
// exercises the cache under concurrency. Every execution's row count is
// checked against a serial reference; a mismatch fails the run.
//
// On a multi-core machine the memstore curve is the paper's serving-time
// claim made concrete: an immutable plan over an immutable store scales
// with readers. The diskstore curve scales too since the pager moved to a
// sharded clock cache (readers contend only on same-shard access); run it
// through Env.WithCachePages with a small budget to measure scaling in
// the disk-bound regime, where the old single pager mutex used to
// flatline the curve.
func ParallelScaling(env *Env, b Backend, goroutines []int, opsPerGoroutine int) ([]ParallelPoint, error) {
	if opsPerGoroutine <= 0 {
		opsPerGoroutine = 50
	}
	st, cleanup, err := env.load(b, "par", nil)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// A mid-weight pattern query keeps each op long enough to measure and
	// short enough to repeat thousands of times.
	q, err := parallelQuery(env)
	if err != nil {
		return nil, err
	}
	cache := query.NewCache(0)
	plan, err := cache.Get(storage.Graph(st), q)
	if err != nil {
		return nil, err
	}
	ref, err := plan.Execute()
	if err != nil {
		return nil, err
	}
	wantRows := len(ref.Rows)

	var points []ParallelPoint
	for _, n := range goroutines {
		if n <= 0 {
			return nil, fmt.Errorf("bench: invalid goroutine count %d", n)
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		var wg sync.WaitGroup
		errs := make([]error, n)
		totalMs, err := timeIt(func() error {
			for g := 0; g < n; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < opsPerGoroutine; i++ {
						// The cache is hot after the reference run; Get is
						// the path an ad-hoc caller would take per request.
						p, err := cache.Get(storage.Graph(st), q)
						if err != nil {
							errs[g] = err
							return
						}
						res, err := p.Execute()
						if err != nil {
							errs[g] = err
							return
						}
						if len(res.Rows) != wantRows {
							errs[g] = fmt.Errorf("bench: parallel run returned %d rows, serial %d", len(res.Rows), wantRows)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		runtime.ReadMemStats(&ms1)
		ops := n * opsPerGoroutine
		pt := ParallelPoint{
			Goroutines:  n,
			Ops:         ops,
			TotalMs:     totalMs,
			AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		}
		if totalMs > 0 {
			pt.OpsPerSec = float64(ops) / (totalMs / 1000)
		}
		if len(points) > 0 && points[0].OpsPerSec > 0 {
			pt.Speedup = pt.OpsPerSec / points[0].OpsPerSec
		} else if len(points) == 0 {
			pt.Speedup = 1
		}
		points = append(points, pt)
	}
	return points, nil
}

// ---------------------------------------------------------------------
// Intra-query scaling: one client, N morsel workers inside each query.
// ---------------------------------------------------------------------

// IntraQueryPoint is one worker-count position of the intra-query scaling
// experiment: the same compiled plan executed Ops times by a single
// client, each execution fanned out over Workers morsel workers.
type IntraQueryPoint struct {
	Workers   int
	Ops       int
	TotalMs   float64
	OpsPerSec float64
	// Speedup is throughput relative to the first point of the same run —
	// the serial baseline when the worker counts start at 1, as
	// DefaultQueryWorkers does.
	Speedup float64
}

// DefaultQueryWorkers is the intra-query experiment's x-axis.
var DefaultQueryWorkers = []int{1, 2, 4, 8}

// IntraQueryScaling measures morsel-driven parallelism from a single
// client: the same compiled plan executed ops times at each worker count.
// It is the complement of ParallelScaling — that experiment adds clients,
// this one adds workers inside one client's query, the "one heavy
// traversal should saturate the machine" number. Before timing each
// worker count, one execution's full row multiset is checked against the
// serial reference; during timing only row counts are re-checked.
func IntraQueryScaling(env *Env, b Backend, workers []int, ops int) ([]IntraQueryPoint, error) {
	if ops <= 0 {
		ops = 50
	}
	st, cleanup, err := env.load(b, "intra", nil)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	q, err := parallelQuery(env)
	if err != nil {
		return nil, err
	}
	cache := query.NewCache(0)
	plan, err := cache.Get(storage.Graph(st), q)
	if err != nil {
		return nil, err
	}
	ref, err := plan.Execute()
	if err != nil {
		return nil, err
	}
	query.SortRowsForComparison(ref.Rows)
	wantRows := fmt.Sprint(ref.Rows)

	ctx := context.Background()
	var points []IntraQueryPoint
	for _, w := range workers {
		if w <= 0 {
			return nil, fmt.Errorf("bench: invalid worker count %d", w)
		}
		check, err := query.Collect(ctx, plan, query.ExecOptions{Workers: w})
		if err != nil {
			return nil, err
		}
		query.SortRowsForComparison(check.Rows)
		if got := fmt.Sprint(check.Rows); got != wantRows {
			return nil, fmt.Errorf("bench: %d-worker run diverged from serial rows", w)
		}
		totalMs, err := timeIt(func() error {
			for i := 0; i < ops; i++ {
				res, err := query.Collect(ctx, plan, query.ExecOptions{Workers: w})
				if err != nil {
					return err
				}
				if len(res.Rows) != len(ref.Rows) {
					return fmt.Errorf("bench: %d-worker run returned %d rows, serial %d", w, len(res.Rows), len(ref.Rows))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		pt := IntraQueryPoint{Workers: w, Ops: ops, TotalMs: totalMs}
		if totalMs > 0 {
			pt.OpsPerSec = float64(ops) / (totalMs / 1000)
		}
		if len(points) > 0 && points[0].OpsPerSec > 0 {
			pt.Speedup = pt.OpsPerSec / points[0].OpsPerSec
		} else if len(points) == 0 {
			pt.Speedup = 1
		}
		points = append(points, pt)
	}
	return points, nil
}

// FormatIntraQueryTable renders intra-query scaling points.
func FormatIntraQueryTable(title string, pts []IntraQueryPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%10s %8s %11s %11s %9s\n",
		title, "workers", "ops", "total(ms)", "ops/sec", "speedup")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d %8d %11.3f %11.0f %8.2fx\n",
			p.Workers, p.Ops, p.TotalMs, p.OpsPerSec, p.Speedup)
	}
	return b.String()
}

// parallelQuery picks the experiment's query: the dataset's first
// pattern-matching microbenchmark entry.
func parallelQuery(env *Env) (string, error) {
	for _, q := range workload.MicrobenchmarkFor(env.Name) {
		if q.Kind == workload.Pattern {
			return q.Text, nil
		}
	}
	return "", fmt.Errorf("bench: no pattern query in %s microbenchmark", env.Name)
}

// FormatParallelTable renders parallel-scaling points.
func FormatParallelTable(title string, pts []ParallelPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%10s %8s %11s %11s %11s %9s\n",
		title, "workers", "ops", "total(ms)", "ops/sec", "allocs/op", "speedup")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d %8d %11.3f %11.0f %11.1f %8.2fx\n",
			p.Goroutines, p.Ops, p.TotalMs, p.OpsPerSec, p.AllocsPerOp, p.Speedup)
	}
	return b.String()
}
