package query

// PROFILE trace tests: per-step operator counters must be exact, agree
// between serial and morsel-parallel execution, and sum consistently
// with the coarse work counters in Stats.

import (
	"context"
	"testing"

	"repro/internal/cypher"
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

// TestProfileOffLeavesNoCounters: an unprofiled execution interleaved
// with profiled ones must not accumulate or leak step counters across
// runs (profiled machines are single-use and never enter the pool).
func TestProfileOffLeavesNoCounters(t *testing.T) {
	p := profilePlan(t, `MATCH (p:Person) WHERE p.age > 5 RETURN p.name`)
	_, prof1, _ := profiled(t, p, 1)
	// Unprofiled run on the same (pooled) machine.
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	// A second profiled run must report identical counters, not doubled
	// ones, proving no counter state survives across executions.
	_, prof2, _ := profiled(t, p, 1)
	for i := range prof1.Steps {
		if prof1.Steps[i] != prof2.Steps[i] {
			t.Errorf("step %d drifted across runs: %+v vs %+v", i, prof1.Steps[i], prof2.Steps[i])
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
