package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Figures 8 and 9: benefit ratio vs space constraint.
// ---------------------------------------------------------------------

// BRPoint is one x-position of Figures 8/9: benefit ratios of the two
// algorithms at a space constraint expressed as a share of Cost(NSC).
type BRPoint struct {
	Pct    float64
	RC, CC float64
}

// DefaultSpacePcts is the x-axis of Figures 8 (MED) and 9 (FIN adds
// 0.001%).
var DefaultSpacePcts = []float64{0.01, 0.1, 1, 2.5, 4, 10, 15, 20, 25, 50, 75, 100}

// VaryingSpace reproduces Figure 8 (env=MED) or Figure 9 (env=FIN): it
// derives the workload summary under the distribution, then sweeps the
// space constraint.
func VaryingSpace(env *Env, dist workload.Distribution, pcts []float64) ([]BRPoint, error) {
	wl, err := env.WorkloadAF(dist, 200)
	if err != nil {
		return nil, err
	}
	in, err := env.Inputs(wl.AF, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	total, err := in.NSCCost()
	if err != nil {
		return nil, err
	}
	var points []BRPoint
	for _, pct := range pcts {
		budget := total * pct / 100
		rc, err := optimizer.RelationCentric(in, budget)
		if err != nil {
			return nil, err
		}
		cc, err := optimizer.ConceptCentric(in, budget)
		if err != nil {
			return nil, err
		}
		rcBR, err := in.BenefitRatio(rc)
		if err != nil {
			return nil, err
		}
		ccBR, err := in.BenefitRatio(cc)
		if err != nil {
			return nil, err
		}
		points = append(points, BRPoint{Pct: pct, RC: rcBR, CC: ccBR})
	}
	return points, nil
}

// ---------------------------------------------------------------------
// Figure 10: benefit ratio vs Jaccard thresholds.
// ---------------------------------------------------------------------

// ThetaPoint is one x-position of Figure 10.
type ThetaPoint struct {
	Theta1, Theta2 float64
	RC, CC         float64
}

// DefaultThetaPairs is Figure 10's x-axis.
var DefaultThetaPairs = [][2]float64{{0.9, 0.1}, {0.66, 0.33}, {0.6, 0.4}, {0.5, 0.5}}

// VaryingThetas reproduces Figure 10: for each threshold pair the space
// constraint is half of that configuration's Cost(NSC) (§5.2: "the space
// constraint ... is set to (S_NSC - S_DIR)/2 under each specific Jaccard
// similarity threshold").
func VaryingThetas(env *Env, dist workload.Distribution, pairs [][2]float64) ([]ThetaPoint, error) {
	wl, err := env.WorkloadAF(dist, 200)
	if err != nil {
		return nil, err
	}
	var points []ThetaPoint
	for _, th := range pairs {
		cfg := core.Config{Theta1: th[0], Theta2: th[1]}
		in, err := env.Inputs(wl.AF, cfg)
		if err != nil {
			return nil, err
		}
		total, err := in.NSCCost()
		if err != nil {
			return nil, err
		}
		budget := total / 2
		rc, err := optimizer.RelationCentric(in, budget)
		if err != nil {
			return nil, err
		}
		cc, err := optimizer.ConceptCentric(in, budget)
		if err != nil {
			return nil, err
		}
		rcBR, err := in.BenefitRatio(rc)
		if err != nil {
			return nil, err
		}
		ccBR, err := in.BenefitRatio(cc)
		if err != nil {
			return nil, err
		}
		points = append(points, ThetaPoint{Theta1: th[0], Theta2: th[1], RC: rcBR, CC: ccBR})
	}
	return points, nil
}

// ---------------------------------------------------------------------
// Figure 11: microbenchmark Q1-Q12, DIR vs OPT on both backends.
// ---------------------------------------------------------------------

// MicroRow is one bar group of Figure 11.
type MicroRow struct {
	Query   string
	Dataset string
	Kind    workload.Kind
	Backend Backend
	DirMs   float64
	OptMs   float64
	Speedup float64
	// Physical work counters explain the speedups.
	DirEdges, OptEdges int64
	// Rewritten is the OPT-side query text.
	Rewritten string
}

// microSchema produces the OPT mapping with the paper's microbenchmark
// parameters: θ1=0.66, θ2=0.33, space constraint = 0.5 · Cost(NSC). The
// workload summary is derived from the microbenchmark queries themselves
// (§4.2 defines workload summaries as the access frequencies the workload
// induces).
func microSchema(env *Env) (*core.Mapping, error) {
	af, err := workload.AFFromQueries(env.Ontology, workload.MicrobenchmarkFor(env.Name))
	if err != nil {
		return nil, err
	}
	in, err := env.Inputs(af, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	total, err := in.NSCCost()
	if err != nil {
		return nil, err
	}
	plan, err := optimizer.PGSG(in, total/2)
	if err != nil {
		return nil, err
	}
	return plan.Result.Mapping, nil
}

// Microbenchmark reproduces Figure 11 for one dataset environment across
// the given backends.
func Microbenchmark(env *Env, backends []Backend) ([]MicroRow, error) {
	mapping, err := microSchema(env)
	if err != nil {
		return nil, err
	}
	queries := workload.MicrobenchmarkFor(env.Name)
	var rows []MicroRow
	for _, b := range backends {
		dir, dirClean, err := env.load(b, "dir", nil)
		if err != nil {
			return nil, err
		}
		opt, optClean, err := env.load(b, "opt", mapping)
		if err != nil {
			dirClean()
			return nil, err
		}
		for _, q := range queries {
			row, err := runComparison(env, b, q, dir, opt, mapping)
			if err != nil {
				dirClean()
				optClean()
				return nil, err
			}
			rows = append(rows, *row)
		}
		dirClean()
		optClean()
	}
	return rows, nil
}

func runComparison(env *Env, b Backend, q workload.Query, dir, opt storage.Graph, mapping *core.Mapping) (*MicroRow, error) {
	parsed, err := cypher.Parse(q.Text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.Name, err)
	}
	rewritten, _, err := rewrite.Rewrite(parsed, mapping, rewrite.Options{LocalizeScalarLookups: q.Localize})
	if err != nil {
		return nil, fmt.Errorf("%s rewrite: %w", q.Name, err)
	}
	row := &MicroRow{Query: q.Name, Dataset: env.Name, Kind: q.Kind, Backend: b, Rewritten: rewritten.String()}
	// Compile each side once; the repetition loop measures pure execution,
	// as a production system serving the same query shape repeatedly would.
	dirPlan, err := query.Prepare(dir, parsed)
	if err != nil {
		return nil, fmt.Errorf("%s DIR: %w", q.Name, err)
	}
	optPlan, err := query.Prepare(opt, rewritten)
	if err != nil {
		return nil, fmt.Errorf("%s OPT: %w", q.Name, err)
	}
	if row.DirMs, row.DirEdges, err = timePlans(env.Opts.Reps, dirPlan); err != nil {
		return nil, fmt.Errorf("%s DIR: %w", q.Name, err)
	}
	if row.OptMs, row.OptEdges, err = timePlans(env.Opts.Reps, optPlan); err != nil {
		return nil, fmt.Errorf("%s OPT: %w", q.Name, err)
	}
	if row.OptMs > 0 {
		row.Speedup = row.DirMs / row.OptMs
	}
	return row, nil
}

// timePlans runs plans in order, reps times over, each through
// query.Collect on one morsel, and returns the wall time in milliseconds
// and the edges the runs traversed in all.
func timePlans(reps int, plans ...*query.Prepared) (ms float64, edges int64, err error) {
	var st query.Stats
	ctx := context.Background()
	ms, err = timeIt(func() error {
		for i := 0; i < reps; i++ {
			for _, p := range plans {
				if _, err := query.Collect(ctx, p, query.ExecOptions{Stats: &st}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return ms, st.EdgesTraversed, err
}

// ---------------------------------------------------------------------
// Figure 12: total latency of a mixed Zipf workload.
// ---------------------------------------------------------------------

// WorkloadRow is one bar of Figure 12.
type WorkloadRow struct {
	Dataset  string
	Backend  Backend
	Queries  int
	DirMs    float64
	OptMs    float64
	Speedup  float64
	DirEdges int64
	OptEdges int64
}

// WorkloadLatency reproduces Figure 12 for one dataset: a 15-query mixed
// workload following a Zipf distribution, total sequential latency on DIR
// vs OPT.
func WorkloadLatency(env *Env, backends []Backend) ([]WorkloadRow, error) {
	wl, err := env.WorkloadAF(workload.Zipf, env.Opts.WorkloadQueries)
	if err != nil {
		return nil, err
	}
	in, err := env.Inputs(wl.AF, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	total, err := in.NSCCost()
	if err != nil {
		return nil, err
	}
	plan, err := optimizer.PGSG(in, total/2)
	if err != nil {
		return nil, err
	}
	mapping := plan.Result.Mapping

	type prepared struct {
		dir, opt *cypher.Query
	}
	var qs []prepared
	for _, q := range wl.Queries {
		parsed, err := cypher.Parse(q.Text)
		if err != nil {
			return nil, err
		}
		rw, _, err := rewrite.Rewrite(parsed, mapping, rewrite.Options{LocalizeScalarLookups: q.Localize})
		if err != nil {
			return nil, err
		}
		qs = append(qs, prepared{dir: parsed, opt: rw})
	}

	var rows []WorkloadRow
	for _, b := range backends {
		dir, dirClean, err := env.load(b, "wldir", nil)
		if err != nil {
			return nil, err
		}
		opt, optClean, err := env.load(b, "wlopt", mapping)
		if err != nil {
			dirClean()
			return nil, err
		}
		row := WorkloadRow{Dataset: env.Name, Backend: b, Queries: len(qs)}
		// Compile the whole workload once per backend; the timed loops
		// below measure execution only.
		dirPlans := make([]*query.Prepared, len(qs))
		optPlans := make([]*query.Prepared, len(qs))
		for i, p := range qs {
			if dirPlans[i], err = query.Prepare(dir, p.dir); err == nil {
				optPlans[i], err = query.Prepare(opt, p.opt)
			}
			if err != nil {
				dirClean()
				optClean()
				return nil, err
			}
		}
		if row.DirMs, row.DirEdges, err = timePlans(env.Opts.Reps, dirPlans...); err == nil {
			row.OptMs, row.OptEdges, err = timePlans(env.Opts.Reps, optPlans...)
		}
		if err != nil {
			dirClean()
			optClean()
			return nil, err
		}
		if row.OptMs > 0 {
			row.Speedup = row.DirMs / row.OptMs
		}
		rows = append(rows, row)
		dirClean()
		optClean()
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Table 2: optimizer efficiency.
// ---------------------------------------------------------------------

// EffRow is one cell pair of Table 2.
type EffRow struct {
	Dataset string
	Pct     int
	RCms    float64
	CCms    float64
}

// Efficiency reproduces Table 2: RC and CC optimization wall time at 25%,
// 50%, 75% of Cost(NSC).
func Efficiency(env *Env, pcts []int) ([]EffRow, error) {
	wl, err := env.WorkloadAF(workload.Zipf, 200)
	if err != nil {
		return nil, err
	}
	in, err := env.Inputs(wl.AF, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	total, err := in.NSCCost()
	if err != nil {
		return nil, err
	}
	var rows []EffRow
	for _, pct := range pcts {
		budget := total * float64(pct) / 100
		rc, err := optimizer.RelationCentric(in, budget)
		if err != nil {
			return nil, err
		}
		cc, err := optimizer.ConceptCentric(in, budget)
		if err != nil {
			return nil, err
		}
		rows = append(rows, EffRow{
			Dataset: env.Name,
			Pct:     pct,
			RCms:    float64(rc.Elapsed.Microseconds()) / 1000,
			CCms:    float64(cc.Elapsed.Microseconds()) / 1000,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// §1 motivating examples.
// ---------------------------------------------------------------------

// MotivatingRow compares one of the introduction's two example queries.
type MotivatingRow struct {
	Example string
	DirMs   float64
	OptMs   float64
	Speedup float64
}

// Motivating reproduces the two §1 examples on the MED dataset: a
// pattern-matching query through the interaction hierarchy (Example 1)
// and a COUNT aggregation over treat (Example 2). The schema is optimized
// for exactly these two queries, as in the introduction's narrative.
func Motivating(env *Env, backend Backend) ([]MotivatingRow, error) {
	if env.Name != "MED" {
		return nil, fmt.Errorf("bench: motivating examples use MED")
	}
	examples := []workload.Query{
		{Name: "Example1", Kind: workload.Pattern,
			Text: `MATCH (d:Drug)-[:has]->(di:DrugInteraction)<-[:isA]-(dfi:DrugFoodInteraction) RETURN d.name, dfi.riskLevel`},
		{Name: "Example2", Kind: workload.Aggregation,
			Text: `MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, size(COLLECT(i.desc)) AS n`},
	}
	af, err := workload.AFFromQueries(env.Ontology, examples)
	if err != nil {
		return nil, err
	}
	in, err := env.Inputs(af, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	total, err := in.NSCCost()
	if err != nil {
		return nil, err
	}
	plan, err := optimizer.PGSG(in, total/2)
	if err != nil {
		return nil, err
	}
	res := plan.Result
	dir, dirClean, err := env.load(backend, "motdir", nil)
	if err != nil {
		return nil, err
	}
	defer dirClean()
	opt, optClean, err := env.load(backend, "motopt", res.Mapping)
	if err != nil {
		return nil, err
	}
	defer optClean()
	var rows []MotivatingRow
	for _, q := range examples {
		row, err := runComparison(env, backend, q, dir, opt, res.Mapping)
		if err != nil {
			return nil, err
		}
		rows = append(rows, MotivatingRow{Example: q.Name, DirMs: row.DirMs, OptMs: row.OptMs, Speedup: row.Speedup})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Formatting helpers.
// ---------------------------------------------------------------------

// FormatBRTable renders Figure 8/9-style points.
func FormatBRTable(title string, pts []BRPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%10s %8s %8s\n", title, "space", "RC", "CC")
	for _, p := range pts {
		fmt.Fprintf(&b, "%9.3g%% %8.3f %8.3f\n", p.Pct, p.RC, p.CC)
	}
	return b.String()
}

// FormatThetaTable renders Figure 10-style points.
func FormatThetaTable(title string, pts []ThetaPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%14s %8s %8s\n", title, "(θ1,θ2)", "RC", "CC")
	for _, p := range pts {
		fmt.Fprintf(&b, "  (%.2f,%.2f) %8.3f %8.3f\n", p.Theta1, p.Theta2, p.RC, p.CC)
	}
	return b.String()
}

// FormatMicroTable renders Figure 11-style rows.
func FormatMicroTable(title string, rows []MicroRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-5s %-4s %-12s %-10s %11s %11s %9s %12s %12s\n",
		title, "query", "set", "kind", "backend", "DIR(ms)", "OPT(ms)", "speedup", "DIR edges", "OPT edges")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-4s %-12s %-10s %11.3f %11.3f %8.1fx %12d %12d\n",
			r.Query, r.Dataset, r.Kind, r.Backend, r.DirMs, r.OptMs, r.Speedup, r.DirEdges, r.OptEdges)
	}
	return b.String()
}

// FormatWorkloadTable renders Figure 12-style rows.
func FormatWorkloadTable(title string, rows []WorkloadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-4s %-10s %8s %11s %11s %9s\n", title, "set", "backend", "queries", "DIR(ms)", "OPT(ms)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %-10s %8d %11.3f %11.3f %8.1fx\n",
			r.Dataset, r.Backend, r.Queries, r.DirMs, r.OptMs, r.Speedup)
	}
	return b.String()
}

// FormatEffTable renders Table 2-style rows.
func FormatEffTable(title string, rows []EffRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-4s %8s %10s %10s\n", title, "set", "space", "RC(ms)", "CC(ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %7d%% %10.2f %10.2f\n", r.Dataset, r.Pct, r.RCms, r.CCms)
	}
	return b.String()
}

// FormatMotivating renders the §1 example comparison.
func FormatMotivating(rows []MotivatingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Motivating examples (§1)\n%-9s %11s %11s %9s\n", "example", "DIR(ms)", "OPT(ms)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %11.3f %11.3f %8.1fx\n", r.Example, r.DirMs, r.OptMs, r.Speedup)
	}
	return b.String()
}
