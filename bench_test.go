// Benchmarks regenerating each table and figure of the paper's
// evaluation (§5). Run all of them with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the paper's metric as custom units alongside
// ns/op: benefit ratios for Figures 8-10 (BR_RC/BR_CC), DIR vs OPT
// latency for Figures 11-12 (dir_ms/opt_ms/speedup), and optimizer wall
// time for Table 2 (rc_ms/cc_ms).
package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/loader"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage/memstore"
	"repro/internal/workload"
)

// Thin indirections keep the benchmark bodies readable.
var (
	coreDefaultConfig        = core.DefaultConfig
	optimizerRelationCentric = optimizer.RelationCentric
	optimizerGreedy          = optimizer.RelationCentricGreedy
)

// benchOpts keeps benchmark datasets small enough for iteration while
// preserving every effect the paper reports (fanouts, facet hierarchies,
// disk-bound cache ratios).
func benchOpts() bench.Options {
	return bench.Options{MedCard: 60, FinCard: 20, Seed: 2021, Reps: 1, CachePages: 64}
}

func newBenchEnv(b *testing.B, name string) *bench.Env {
	b.Helper()
	env, err := bench.NewEnv(name, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkFigure8 regenerates Figure 8: benefit ratio vs space
// constraint on MED for uniform and Zipf workloads.
func BenchmarkFigure8(b *testing.B) {
	benchVaryingSpace(b, "MED", bench.DefaultSpacePcts)
}

// BenchmarkFigure9 regenerates Figure 9: benefit ratio vs space
// constraint on FIN.
func BenchmarkFigure9(b *testing.B) {
	benchVaryingSpace(b, "FIN", append([]float64{0.001}, bench.DefaultSpacePcts...))
}

func benchVaryingSpace(b *testing.B, dataset string, pcts []float64) {
	env := newBenchEnv(b, dataset)
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
		for _, pct := range pcts {
			b.Run(fmt.Sprintf("%s/space=%g%%", dist, pct), func(b *testing.B) {
				var pts []bench.BRPoint
				var err error
				for i := 0; i < b.N; i++ {
					pts, err = bench.VaryingSpace(env, dist, []float64{pct})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(pts[0].RC, "BR_RC")
				b.ReportMetric(pts[0].CC, "BR_CC")
			})
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10: benefit ratio vs Jaccard
// thresholds on FIN at a 50% space constraint.
func BenchmarkFigure10(b *testing.B) {
	env := newBenchEnv(b, "FIN")
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
		for _, th := range bench.DefaultThetaPairs {
			b.Run(fmt.Sprintf("%s/theta=%g_%g", dist, th[0], th[1]), func(b *testing.B) {
				var pts []bench.ThetaPoint
				var err error
				for i := 0; i < b.N; i++ {
					pts, err = bench.VaryingThetas(env, dist, [][2]float64{th})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(pts[0].RC, "BR_RC")
				b.ReportMetric(pts[0].CC, "BR_CC")
			})
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11: the Q1-Q12 microbenchmark on
// both backends, reporting DIR and OPT latency per query.
func BenchmarkFigure11(b *testing.B) {
	for _, dataset := range []string{"MED", "FIN"} {
		env := newBenchEnv(b, dataset)
		for _, backend := range []bench.Backend{bench.Memstore, bench.Diskstore} {
			b.Run(fmt.Sprintf("%s/%s", dataset, backend), func(b *testing.B) {
				var rows []bench.MicroRow
				var err error
				for i := 0; i < b.N; i++ {
					rows, err = bench.Microbenchmark(env, []bench.Backend{backend})
					if err != nil {
						b.Fatal(err)
					}
				}
				var dir, opt float64
				for _, r := range rows {
					dir += r.DirMs
					opt += r.OptMs
				}
				b.ReportMetric(dir, "dir_ms")
				b.ReportMetric(opt, "opt_ms")
				if opt > 0 {
					b.ReportMetric(dir/opt, "speedup")
				}
			})
		}
	}
}

// BenchmarkFigure12 regenerates Figure 12: total latency of the 15-query
// Zipf workload, DIR vs OPT per backend.
func BenchmarkFigure12(b *testing.B) {
	for _, dataset := range []string{"MED", "FIN"} {
		env := newBenchEnv(b, dataset)
		for _, backend := range []bench.Backend{bench.Memstore, bench.Diskstore} {
			b.Run(fmt.Sprintf("%s/%s", dataset, backend), func(b *testing.B) {
				var rows []bench.WorkloadRow
				var err error
				for i := 0; i < b.N; i++ {
					rows, err = bench.WorkloadLatency(env, []bench.Backend{backend})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rows[0].DirMs, "dir_ms")
				b.ReportMetric(rows[0].OptMs, "opt_ms")
				b.ReportMetric(rows[0].Speedup, "speedup")
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2: RC and CC optimization time at
// 25/50/75% space constraints.
func BenchmarkTable2(b *testing.B) {
	for _, dataset := range []string{"MED", "FIN"} {
		env := newBenchEnv(b, dataset)
		for _, pct := range []int{25, 50, 75} {
			b.Run(fmt.Sprintf("%s/space=%d%%", dataset, pct), func(b *testing.B) {
				var rows []bench.EffRow
				var err error
				for i := 0; i < b.N; i++ {
					rows, err = bench.Efficiency(env, []int{pct})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rows[0].RCms, "rc_ms")
				b.ReportMetric(rows[0].CCms, "cc_ms")
			})
		}
	}
}

// BenchmarkAblationKnapsack quantifies what the FPTAS knapsack buys over
// greedy benefit/cost selection at a 25% budget (ablation of DESIGN.md
// item 7 / Algorithm 8's design choice).
func BenchmarkAblationKnapsack(b *testing.B) {
	for _, dataset := range []string{"MED", "FIN"} {
		env := newBenchEnv(b, dataset)
		b.Run(dataset, func(b *testing.B) {
			var fptas, greedy float64
			for i := 0; i < b.N; i++ {
				in, err := env.Inputs(nil, coreDefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				total, err := in.NSCCost()
				if err != nil {
					b.Fatal(err)
				}
				rc, err := optimizerRelationCentric(in, total/4)
				if err != nil {
					b.Fatal(err)
				}
				gr, err := optimizerGreedy(in, total/4)
				if err != nil {
					b.Fatal(err)
				}
				fb, err := in.BenefitRatio(rc)
				if err != nil {
					b.Fatal(err)
				}
				gb, err := in.BenefitRatio(gr)
				if err != nil {
					b.Fatal(err)
				}
				fptas, greedy = fb, gb
			}
			b.ReportMetric(fptas, "BR_fptas")
			b.ReportMetric(greedy, "BR_greedy")
		})
	}
}

// BenchmarkIntraQueryScaling measures a single client fanning each
// execution of one compiled plan over 1/2/4/8 morsel workers, per backend,
// as intra_ops/s_<n>w metrics. The "diskstore-tight" variant constrains
// the page budget to 16 pages so the workload is genuinely disk-bound;
// its curve rising with workers is the morsel-parallelism acceptance
// check. Throughput across clients is benchmark/'s job.
func BenchmarkIntraQueryScaling(b *testing.B) {
	env := newBenchEnv(b, "MED")
	variants := []struct {
		name string
		env  *bench.Env
		back bench.Backend
	}{
		{"memstore", env, bench.Memstore},
		{"diskstore", env, bench.Diskstore},
		{"diskstore-tight", env.WithCachePages(16), bench.Diskstore},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var ipts []bench.IntraQueryPoint
			var err error
			for i := 0; i < b.N; i++ {
				ipts, err = bench.IntraQueryScaling(v.env, v.back, bench.DefaultQueryWorkers, 20)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range ipts {
				b.ReportMetric(p.OpsPerSec, fmt.Sprintf("intra_ops/s_%dw", p.Workers))
			}
			itop := ipts[len(ipts)-1]
			b.ReportMetric(itop.Speedup, fmt.Sprintf("intra_speedup_%dw", itop.Workers))
		})
	}
}

// BenchmarkMotivating regenerates the §1 examples on the disk backend.
func BenchmarkMotivating(b *testing.B) {
	env := newBenchEnv(b, "MED")
	for i := 0; i < b.N; i++ {
		rows, err := bench.Motivating(env, bench.Diskstore)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Speedup, r.Example+"_speedup")
			}
		}
	}
}

// BenchmarkExecuteMicrobench times execution alone, in process: the 12
// MED microbenchmark queries at card 1000 on memstore, under the direct
// schema (DIR) and under the optimized one pgsserve -optimize -localize
// serves (OPT: PGSG at 50 % of Cost(NSC) over the microbenchmark's access
// frequencies, scalar lookups localized). Each plan is prepared once; an
// op is one query, round-robin, run through query.Collect with one
// worker. It reports us/query and allocs/op per schema. Both stores are
// loaded, and the generated dataset dropped and collected, before any
// timing starts, so the heap the collector marks is the stores' and the
// executor's alone.
func BenchmarkExecuteMicrobench(b *testing.B) {
	schemas := microbenchPlans(b)
	runtime.GC()
	for _, schema := range schemas {
		b.Run(schema.name, func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := query.Collect(ctx, schema.plans[i%len(schema.plans)], query.ExecOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/query")
		})
	}
}

// schemaPlans is one schema's prepared microbenchmark queries.
type schemaPlans struct {
	name  string
	plans []*query.Prepared
}

// microbenchPlans loads the DIR and OPT memstores of
// BenchmarkExecuteMicrobench and prepares its queries on each. What it
// returns reaches the stores but not the generated dataset.
func microbenchPlans(b *testing.B) []schemaPlans {
	env, err := bench.NewEnv("MED", bench.Options{MedCard: 1000})
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.MicrobenchmarkFor(env.Name)
	af, err := workload.AFFromQueries(env.Ontology, queries)
	if err != nil {
		b.Fatal(err)
	}
	in, err := env.Inputs(af, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	total, err := in.NSCCost()
	if err != nil {
		b.Fatal(err)
	}
	plan, err := optimizer.PGSG(in, total/2)
	if err != nil {
		b.Fatal(err)
	}
	var schemas []schemaPlans
	for _, schema := range []struct {
		name    string
		mapping *core.Mapping
	}{{"DIR", nil}, {"OPT", plan.Result.Mapping}} {
		st := memstore.New()
		if _, _, err := loader.Load(st, env.Dataset, schema.mapping); err != nil {
			b.Fatal(err)
		}
		sp := schemaPlans{name: schema.name}
		for _, q := range queries {
			parsed, err := cypher.Parse(q.Text)
			if err != nil {
				b.Fatal(err)
			}
			if schema.mapping != nil {
				if parsed, _, err = rewrite.Rewrite(parsed, schema.mapping, rewrite.Options{LocalizeScalarLookups: true}); err != nil {
					b.Fatal(err)
				}
			}
			p, err := query.Prepare(st, parsed)
			if err != nil {
				b.Fatalf("%s %s: %v", schema.name, q.Name, err)
			}
			sp.plans = append(sp.plans, p)
		}
		schemas = append(schemas, sp)
	}
	return schemas
}
