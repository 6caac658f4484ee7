package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/workload"
)

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
// It adds workers inside one client's query — the "one heavy traversal
// should saturate the machine" number; throughput across clients is
// measured by benchmark/ against a real pgsserve. Before timing each
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
	ctx := context.Background()
	ref, err := query.Collect(ctx, plan, query.ExecOptions{})
	if err != nil {
		return nil, err
	}
	query.SortRowsForComparison(ref.Rows)
	wantRows := fmt.Sprint(ref.Rows)

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
