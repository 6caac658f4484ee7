package query

// PROFILE trace tests: per-step operator counters must be exact, agree
// between serial and morsel-parallel execution, and sum consistently
// with the coarse work counters in Stats.

import (
	"context"
	"testing"

	"repro/internal/cypher"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
)

// profiled runs p once with a Profile and Stats attached.
func profiled(t *testing.T, p *Prepared, workers int) (*Result, *Profile, Stats) {
	t.Helper()
	var st Stats
	var prof Profile
	res, err := Collect(context.Background(), p, ExecOptions{Workers: workers, Stats: &st, Profile: &prof})
	if err != nil {
		t.Fatalf("profiled run with %d workers: %v", workers, err)
	}
	return res, &prof, st
}

func profilePlan(t *testing.T, src string) *Prepared {
	t.Helper()
	b := memstore.New()
	buildPeopleGraph(t, b, 300)
	p, err := Prepare(b, cypher.MustParse(src))
	if err != nil {
		t.Fatalf("Prepare(%q): %v", src, err)
	}
	return p
}

// TestProfileTwoHopStepCounts: a two-hop expansion's per-step counters
// must chain (each step's visited reflects its upstream's produced via
// the graph's fan-out) and match the coarse Stats totals exactly.
func TestProfileTwoHopStepCounts(t *testing.T) {
	p := profilePlan(t,
		`MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN a.name, c.name`)

	res, prof, st := profiled(t, p, 1)
	if prof.Parallel || prof.Workers != 1 {
		t.Errorf("serial profile claims parallel=%v workers=%d", prof.Parallel, prof.Workers)
	}
	if len(prof.Steps) != 4 { // scan + expand + expand + project
		t.Fatalf("steps = %d, want 4: %+v", len(prof.Steps), prof.Steps)
	}
	scan, hop1, hop2, project := prof.Steps[0], prof.Steps[1], prof.Steps[2], prof.Steps[3]
	if scan.Op != "scan" || scan.Target != "Person" {
		t.Errorf("step 0 = %+v, want scan of Person", scan)
	}
	if hop1.Op != "expand_out" || hop1.Target != "knows" || hop2.Op != "expand_out" {
		t.Errorf("expansions = %+v / %+v, want expand_out of knows", hop1, hop2)
	}
	if project.Op != "project" {
		t.Errorf("terminal step = %+v, want project", project)
	}

	// Exact consistency with the coarse counters.
	if scan.Visited != st.VerticesScanned {
		t.Errorf("scan visited %d != VerticesScanned %d", scan.Visited, st.VerticesScanned)
	}
	if got := hop1.Visited + hop2.Visited; got != st.EdgesTraversed {
		t.Errorf("expansion visited %d != EdgesTraversed %d", got, st.EdgesTraversed)
	}
	if project.Produced != int64(len(res.Rows)) || project.Produced != st.RowsEmitted {
		t.Errorf("project produced %d, rows %d, RowsEmitted %d — must agree",
			project.Produced, len(res.Rows), st.RowsEmitted)
	}
	// Each produced binding becomes exactly one downstream activation:
	// produced[i] == visited[i+1] holds up to fan-out (2 knows edges per
	// vertex, uniqueness can only discard at the visited step).
	if scan.Produced != 300 {
		t.Errorf("scan produced %d, want all 300 Person vertices", scan.Produced)
	}
	if hop1.Visited != 2*scan.Produced {
		t.Errorf("hop1 visited %d, want fan-out 2 x %d", hop1.Visited, scan.Produced)
	}
	if hop2.Visited != 2*hop1.Produced {
		t.Errorf("hop2 visited %d, want fan-out 2 x %d", hop2.Visited, hop1.Produced)
	}
	if project.Visited != hop2.Produced {
		t.Errorf("project visited %d != hop2 produced %d", project.Visited, hop2.Produced)
	}
}

// TestProfileLookupStep: a root with inline properties reports a lookup
// on its first constraint (keys in name order), visiting only what the
// store yields for it; checkNode then applies the rest.
func TestProfileLookupStep(t *testing.T) {
	p := profilePlan(t, `MATCH (p:Person {grp: 'g3', age: 5}) RETURN p.name`)
	res, prof, st := profiled(t, p, 4)
	root := prof.Steps[0]
	if root.Op != "lookup" || root.Target != "Person.age" || prof.Parallel {
		t.Errorf("step 0 = %+v (parallel %v), want a serial lookup of Person.age", root, prof.Parallel)
	}
	// age = i % 13 over 300 people: 23 have age 5, 3 of those grp g3.
	if root.Visited != 23 || root.Visited != st.VerticesScanned {
		t.Errorf("lookup visited %d, VerticesScanned %d, want 23 each", root.Visited, st.VerticesScanned)
	}
	if root.Produced != 3 || len(res.Rows) != 3 {
		t.Errorf("lookup produced %d, %d rows, want 3", root.Produced, len(res.Rows))
	}
}

// TestProfileParallelMatchesSerial: the morsel-parallel profile must
// merge per-worker counters into exactly the serial totals, and report
// the fan-out shape.
func TestProfileParallelMatchesSerial(t *testing.T) {
	for _, src := range []string{
		`MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN a.name, c.name`,
		`MATCH (p:Person) WHERE p.age > 5 RETURN p.name, p.age`,
		`MATCH (p:Person) RETURN p.grp, COUNT(*)`,
	} {
		p := profilePlan(t, src)
		_, serial, serialSt := profiled(t, p, 1)
		_, par, parSt := profiled(t, p, 4)
		if !par.Parallel || par.Workers < 2 || par.Morsels < 2 {
			t.Errorf("%q: parallel profile did not fan out: %+v", src, par)
		}
		if len(par.Steps) != len(serial.Steps) {
			t.Fatalf("%q: step count %d != serial %d", src, len(par.Steps), len(serial.Steps))
		}
		for i := range par.Steps {
			if par.Steps[i].Visited != serial.Steps[i].Visited ||
				par.Steps[i].Produced != serial.Steps[i].Produced {
				t.Errorf("%q step %d: parallel %+v != serial %+v",
					src, i, par.Steps[i], serial.Steps[i])
			}
			if par.Steps[i].Op != serial.Steps[i].Op || par.Steps[i].Target != serial.Steps[i].Target {
				t.Errorf("%q step %d: shape mismatch %+v vs %+v", src, i, par.Steps[i], serial.Steps[i])
			}
		}
		if parSt != serialSt {
			t.Errorf("%q: parallel Stats %+v != serial %+v", src, parSt, serialSt)
		}
	}
}

// TestProfileOffLeavesNoCounters: profiled and unprofiled executions
// share the pool's machines, whose step counters outlive each execution,
// so begin must zero them. Interleaved runs on one plan must each report
// exactly one execution's work — in Stats and in the profile — not a sum
// over the runs before it.
func TestProfileOffLeavesNoCounters(t *testing.T) {
	p := profilePlan(t, `MATCH (p:Person) WHERE p.age > 5 RETURN p.name`)
	_, prof1, st1 := profiled(t, p, 1)
	// Unprofiled run on the same pooled machine.
	var st Stats
	if _, err := collect(p, 1, &st); err != nil {
		t.Fatal(err)
	}
	if st != st1 {
		t.Errorf("unprofiled Stats %+v after a profiled run, want %+v", st, st1)
	}
	// A second profiled run must report identical counters, not doubled
	// ones, proving no counter state survives across executions.
	_, prof2, st2 := profiled(t, p, 1)
	for i := range prof1.Steps {
		if prof1.Steps[i] != prof2.Steps[i] {
			t.Errorf("step %d drifted across runs: %+v vs %+v", i, prof1.Steps[i], prof2.Steps[i])
		}
	}
	if st2 != st1 {
		t.Errorf("profiled Stats drifted across runs: %+v vs %+v", st2, st1)
	}
}

// TestProfileStepSumsAreStats: Stats are folded from the step counters,
// so VerticesScanned is the visited total of the scan and lookup steps
// and EdgesTraversed that of the expand steps — over the whole
// intra-query shape matrix, on one morsel and on four workers, on
// memstore and on a diskstore reading through a live delta.
func TestProfileStepSumsAreStats(t *testing.T) {
	mem := memstore.New()
	buildPeopleGraph(t, mem, 420)
	for _, g := range []struct {
		name string
		g    storage.Graph
	}{{"memstore", mem}, {"diskstore live delta", liveDeltaPeople(t, 200, 140)}} {
		for _, shape := range intraShapes {
			p, err := Prepare(g.g, cypher.MustParse(shape.src))
			if err != nil {
				t.Fatalf("Prepare(%q): %v", shape.src, err)
			}
			for _, workers := range []int{1, 4} {
				_, prof, st := profiled(t, p, workers)
				var scanned, traversed int64
				for _, sp := range prof.Steps {
					switch sp.Op {
					case "scan", "lookup":
						scanned += sp.Visited
					case "expand_out", "expand_in":
						traversed += sp.Visited
					}
				}
				if scanned != st.VerticesScanned || traversed != st.EdgesTraversed {
					t.Errorf("%s %q with %d workers: steps visited %d vertices and %d edges, Stats %+v",
						g.name, shape.src, workers, scanned, traversed, st)
				}
				if st.VerticesScanned == 0 {
					t.Errorf("%s %q with %d workers: no vertex scanned", g.name, shape.src, workers)
				}
			}
		}
	}
}

// TestProfileWarmPlanAllocs: profiling reads the counters every execution
// keeps, so a profiled run of a warm plan runs on a pooled machine like
// any other and allocates only its Profile.Steps on top.
func TestProfileWarmPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts jitter under the race detector (see raceEnabled)")
	}
	for _, src := range []string{
		`MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) RETURN a.name, c.name`,
		`MATCH (p:Person) RETURN p.grp, COUNT(*)`,
	} {
		p := profilePlan(t, src)
		var st Stats
		var prof Profile
		allocs := func(o ExecOptions) float64 {
			return testing.AllocsPerRun(50, func() {
				if _, err := Collect(context.Background(), p, o); err != nil {
					t.Fatal(err)
				}
			})
		}
		plain := allocs(ExecOptions{Stats: &st})
		withProfile := allocs(ExecOptions{Stats: &st, Profile: &prof})
		if withProfile > plain+1 {
			t.Errorf("%q: %.0f allocs profiled, %.0f unprofiled, want at most one more (Profile.Steps)", src, withProfile, plain)
		}
	}
}

// TestProfileBoundAndBindSteps: a join back-edge profile reports the
// bound expansion, and a multi-pattern query reports the bind start.
func TestProfileBoundAndBindSteps(t *testing.T) {
	p := profilePlan(t, `MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(a) RETURN a.name`)
	_, prof, _ := profiled(t, p, 1)
	found := false
	for _, sp := range prof.Steps {
		if sp.Bound && (sp.Op == "expand_out" || sp.Op == "expand_in") {
			found = true
			if sp.Produced > sp.Visited {
				t.Errorf("bound expansion produced %d > visited %d", sp.Produced, sp.Visited)
			}
		}
	}
	if !found {
		t.Errorf("no bound expansion step in triangle profile: %+v", prof.Steps)
	}
}
