// Workload: demonstrates workload-aware optimization — the same MED
// ontology optimized under the same space budget picks different rule
// applications for a uniform workload than for a Zipf workload, and each
// schema serves its own workload faster than the other's.
package main

import (
	"context"
	"fmt"
	"log"

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

func main() {
	log.SetFlags(0)
	env, err := bench.NewEnv("MED", bench.Options{MedCard: 80, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	plans := map[workload.Distribution]*optimizer.Plan{}
	workloads := map[workload.Distribution]*workload.Workload{}
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
		wl, err := env.WorkloadAF(dist, 30)
		if err != nil {
			log.Fatal(err)
		}
		in, err := env.Inputs(wl.AF, core.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		total, err := in.NSCCost()
		if err != nil {
			log.Fatal(err)
		}
		plan, err := optimizer.PGSG(in, total/5) // 20% budget
		if err != nil {
			log.Fatal(err)
		}
		plans[dist] = plan
		workloads[dist] = wl
		fmt.Printf("%s workload -> %s schema: %d merges, %d replications, benefit %.1f\n",
			dist, plan.Algorithm, len(plan.Result.Mapping.Merges),
			len(plan.Result.Mapping.ListProps), plan.Benefit)
	}

	// Compare selected rule applications.
	u, z := ruleSet(plans[workload.Uniform]), ruleSet(plans[workload.Zipf])
	onlyU, onlyZ := diff(u, z), diff(z, u)
	fmt.Printf("\nrule applications only in the uniform schema: %d\n", len(onlyU))
	for i, s := range onlyU {
		if i == 4 {
			fmt.Println("  ...")
			break
		}
		fmt.Println("  " + s)
	}
	fmt.Printf("rule applications only in the Zipf schema: %d\n", len(onlyZ))
	for i, s := range onlyZ {
		if i == 4 {
			fmt.Println("  ...")
			break
		}
		fmt.Println("  " + s)
	}

	// Cross-evaluation: each schema runs both workloads.
	fmt.Printf("\n%-18s %16s %16s\n", "total traversals", "uniform schema", "zipf schema")
	for _, wdist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
		fmt.Printf("%-18s", wdist.String()+" workload")
		for _, sdist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
			n, err := traversals(env, plans[sdist], workloads[wdist])
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %16d", n)
		}
		fmt.Println()
	}
}

func ruleSet(p *optimizer.Plan) map[string]bool {
	out := map[string]bool{}
	for _, a := range p.Result.Rules.Apps() {
		out[a.String()] = true
	}
	return out
}

func diff(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	return out
}

// traversals loads the OPT graph for the plan and totals edge traversals
// of the workload's rewritten queries. Sampled workloads repeat the same
// query templates, so plans come from a query.Cache: each distinct
// rewritten text compiles once and repeats hit the shared plan.
func traversals(env *bench.Env, plan *optimizer.Plan, wl *workload.Workload) (int64, error) {
	st := memstore.New()
	if _, _, err := loader.Load(st, env.Dataset, plan.Result.Mapping); err != nil {
		return 0, err
	}
	cache := query.NewCache(0)
	var stats query.Stats
	for _, q := range wl.Queries {
		parsed, err := cypher.Parse(q.Text)
		if err != nil {
			return 0, err
		}
		rw, _, err := rewrite.Rewrite(parsed, plan.Result.Mapping, rewrite.Options{LocalizeScalarLookups: q.Localize})
		if err != nil {
			return 0, err
		}
		p, err := cache.Get(st, rw.String())
		if err != nil {
			return 0, err
		}
		if _, err := query.Collect(context.Background(), p, query.ExecOptions{Stats: &stats}); err != nil {
			return 0, err
		}
	}
	return stats.EdgesTraversed, nil
}
