package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/loader"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/workload"
)

// pointTemplates are the served point-lookup templates (benchmark/
// stream.go): %s is the literal, and the generator's values of the
// filtered property are "<Concept>_<Prop>_<0..31>".
var pointTemplates = []struct{ concept, prop, text string }{
	{"Drug", "name", `MATCH (d:Drug {name: '%s'})-[:treat]->(x:Indication) RETURN x.desc`},
	{"Drug", "brand", `MATCH (d:Drug {brand: '%s'})-[:treat]->(x:Indication) RETURN d.name, x.desc`},
	{"Drug", "name", `MATCH (d:Drug {name: '%s'})-[:cause]->(x:Risk) RETURN d.brand`},
	{"Drug", "name", `MATCH (d:Drug {name: '%s'})-[:has]->(x:DrugInteraction) RETURN x.summary`},
	{"Drug", "brand", `MATCH (d:Drug {brand: '%s'})-[:hasDrugRoute]->(x:DrugRoute) RETURN x.drugRouteId`},
	{"Indication", "desc", `MATCH (i:Indication {desc: '%s'})-[:is]->(x:Condition) RETURN x.condName`},
	{"Indication", "desc", `MATCH (x:Drug)-[:treat]->(i:Indication {desc: '%s'}) RETURN x.name`},
	{"DrugLabInteraction", "mechanism", `MATCH (l:DrugLabInteraction {mechanism: '%s'})-[:isA]->(x:DrugInteraction) RETURN x.summary`},
	{"DrugFoodInteraction", "riskLevel", `MATCH (f:DrugFoodInteraction {riskLevel: '%s'})-[:isA]->(x:DrugInteraction) RETURN x.summary`},
	{"BlackBoxWarning", "route", `MATCH (b:BlackBoxWarning {route: '%s'})-[:unionOf]->(x:Risk)<-[:cause]-(d:Drug) RETURN d.name`},
	{"ContraIndication", "ciDesc", `MATCH (c:ContraIndication {ciDesc: '%s'})-[:unionOf]->(x:Risk)<-[:cause]-(d:Drug) RETURN d.name`},
	{"DrugRoute", "drugRouteId", `MATCH (r:DrugRoute {drugRouteId: '%s'})<-[:hasDrugRoute]-(d:Drug) RETURN d.brand`},
}

// pointTexts instantiates every template with present values and one
// absent literal.
func pointTexts() []string {
	var out []string
	for _, tp := range pointTemplates {
		for _, lit := range []string{"0", "1", "7", "absent-0"} {
			if lit != "absent-0" {
				lit = tp.concept + "_" + tp.prop + "_" + lit
			}
			out = append(out, fmt.Sprintf(tp.text, lit))
		}
	}
	return out
}

// medDataset generates MED at card with the served -optimize mapping:
// PGSG at 50 % of Cost(NSC) over MED's microbenchmark workload.
func medDataset(t *testing.T, card int) (*datagen.Dataset, *core.Mapping) {
	t.Helper()
	o := datagen.MED()
	ds, err := datagen.Generate(o, datagen.Options{Seed: 2021, BaseCard: card})
	if err != nil {
		t.Fatal(err)
	}
	af, err := workload.AFFromQueries(o, workload.MicrobenchmarkFor("MED"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := optimizer.NewInputs(o, ds.Stats, af, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	total, err := in.NSCCost()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizer.PGSG(in, total*50/100)
	if err != nil {
		t.Fatal(err)
	}
	return ds, plan.Result.Mapping
}

// run executes plan once, returning its rows and work counters.
func run(t *testing.T, plan *query.Prepared) ([][]graph.Value, query.Stats) {
	t.Helper()
	var st query.Stats
	res, err := query.Collect(context.Background(), plan, query.ExecOptions{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows, st
}

// checkAgainstLiteralCompile plans src through the server's shaped plan
// cache and compiles it afresh from its literal text — parse, rewrite,
// Prepare — and requires the same executed text, rows and Stats.
func checkAgainstLiteralCompile(t *testing.T, s *Server, src string) {
	t.Helper()
	plan, text, err := s.planQuery(src, nil)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	q := cypher.MustParse(src)
	if s.cfg.Mapping != nil {
		if q, _, err = rewrite.Rewrite(q, s.cfg.Mapping, s.cfg.RewriteOpts); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := query.Prepare(s.cfg.Graph, q)
	if err != nil {
		t.Fatal(err)
	}
	if text != q.String() {
		t.Errorf("%s: executed text %q, literal compile renders %q", src, text, q.String())
	}
	gotRows, gotSt := run(t, plan)
	wantRows, wantSt := run(t, fresh)
	if !sameRows(gotRows, wantRows) || gotSt != wantSt {
		t.Errorf("%s:\nshaped  %v %+v\nliteral %v %+v", src, gotRows, gotSt, wantRows, wantSt)
	}
}

// TestShapedPlansMatchLiteralCompiles: on the served OPT schema (MED,
// PGSG 50 %, localized lookups) every point-lookup template, with present
// and absent literals, returns through its one shared parameterized plan
// exactly the rows and Stats a fresh compile of the literal text returns.
func TestShapedPlansMatchLiteralCompiles(t *testing.T) {
	ds, mapping := medDataset(t, 20)
	mem := memstore.New()
	if _, _, err := loader.Load(mem, ds, mapping); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Graph: mem, Mapping: mapping, RewriteOpts: rewrite.Options{LocalizeScalarLookups: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range pointTexts() {
		checkAgainstLiteralCompile(t, s, src)
	}
	if st := s.cache.Stats(); st.Misses != int64(len(pointTemplates)) || st.Size != len(pointTemplates) {
		t.Errorf("cache %+v: want one compile per template (%d)", st, len(pointTemplates))
	}
}

// TestShapedPlansSeeLiveWrites: on a diskstore taking live writes, a
// template's shared plan — compiled before a write — finds a literal the
// write introduced, and matches a literal compile made after it.
func TestShapedPlansSeeLiveWrites(t *testing.T) {
	ds, _ := medDataset(t, 20)
	dsk, err := diskstore.Open(t.TempDir(), diskstore.Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer dsk.Close()
	if _, _, err := loader.Load(dsk, ds, nil); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Graph: dsk})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range pointTexts() {
		checkAgainstLiteralCompile(t, s, src)
	}
	compiled := s.cache.Stats().Misses

	// A new drug, named and branded with literals no vertex carried when
	// the plans were compiled, treating an existing indication.
	var indication storage.VID = -1
	dsk.ForEachVertex("Indication", func(v storage.VID) bool { indication = v; return false })
	res, err := dsk.ApplyMutations([]storage.Mutation{{Op: storage.MutAddVertex, Labels: []string{"Drug"}}})
	if err != nil {
		t.Fatal(err)
	}
	drug := res.Vertices[0]
	if _, err := dsk.ApplyMutations([]storage.Mutation{
		{Op: storage.MutSetProp, V: drug, Key: "name", Value: graph.S("Drug_name_live")},
		{Op: storage.MutSetProp, V: drug, Key: "brand", Value: graph.S("Drug_brand_live")},
		{Op: storage.MutAddEdge, Src: drug, Dst: indication, Type: "treat"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		fmt.Sprintf(pointTemplates[0].text, "Drug_name_live"),
		fmt.Sprintf(pointTemplates[1].text, "Drug_brand_live"),
		fmt.Sprintf(pointTemplates[2].text, "Drug_name_live"),
	} {
		checkAgainstLiteralCompile(t, s, src)
		plan, _, _ := s.planQuery(src, nil)
		if rows, _ := run(t, plan); len(rows) == 0 && !strings.Contains(src, ":cause") {
			t.Errorf("%s: the live-written drug is not found", src)
		}
	}
	if st := s.cache.Stats(); st.Misses != compiled {
		t.Errorf("the live-write lookups compiled %d new plans, want none", st.Misses-compiled)
	}
}

// TestShapeKeysSeparate: texts that differ in anything but a lifted
// literal — a LIMIT, a RETURN literal, or equal against distinct
// literals on the nodes the rewrite merges — never share a plan-cache
// entry, and a client's parameter slot is refused.
func TestShapeKeysSeparate(t *testing.T) {
	ds, mapping := medDataset(t, 5)
	mem := memstore.New()
	if _, _, err := loader.Load(mem, ds, mapping); err != nil {
		t.Fatal(err)
	}
	s, ts := newMedServer(t, Config{Graph: mem, Mapping: mapping})
	merged := `MATCH (l:DrugLabInteraction {summary: '%s'})-[:isA]->(x:DrugInteraction {summary: '%s'}) RETURN x.summary`
	if !strings.Contains(func() string {
		q, _, err := rewrite.Rewrite(cypher.MustParse(fmt.Sprintf(merged, "a", "a")), mapping, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return q.String()
	}(), "DrugLabInteraction:DrugInteraction") {
		t.Fatal("the served mapping does not merge DrugLabInteraction into DrugInteraction")
	}
	for _, group := range [][]string{
		{`MATCH (d:Drug {name: 'x'}) RETURN d.brand LIMIT 1`, `MATCH (d:Drug {name: 'x'}) RETURN d.brand LIMIT 2`},
		{`MATCH (d:Drug {name: 'x'}) RETURN d.brand, 'a' AS tag`, `MATCH (d:Drug {name: 'x'}) RETURN d.brand, 'b' AS tag`},
		{fmt.Sprintf(merged, "a", "a"), fmt.Sprintf(merged, "a", "b")},
	} {
		before := s.cache.Stats()
		var keys []string
		for _, src := range group {
			key, _, err := cypher.Shape(src)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
			post(t, ts, src, "text/plain")
		}
		if keys[0] == keys[1] {
			t.Errorf("%q and %q share the key %q", group[0], group[1], keys[0])
		}
		if after := s.cache.Stats(); after.Hits != before.Hits {
			t.Errorf("%q then %q: %d plan-cache hits, want none", group[0], group[1], after.Hits-before.Hits)
		}
	}
	// Equal literals on merged nodes merge; distinct ones conflict.
	if status, qr := post(t, ts, fmt.Sprintf(merged, "a", "a"), "text/plain"); status != http.StatusOK {
		t.Errorf("equal merged literals: status %d (%s)", status, qr.Error)
	}
	if status, _ := post(t, ts, fmt.Sprintf(merged, "b", "c"), "text/plain"); status != http.StatusBadRequest {
		t.Errorf("distinct merged literals: status %d, want 400", status)
	}
	for _, src := range []string{`MATCH (d:Drug {name: $0}) RETURN d.name`, `MATCH (d:Drug) WHERE d.name = $0 RETURN d.name`} {
		if status, qr := post(t, ts, src, "text/plain"); status != http.StatusBadRequest || qr.Error == "" {
			t.Errorf("%q: status %d (%q), want 400", src, status, qr.Error)
		}
	}
}

// rewindBody is a request body that one test request reads again and
// again.
type rewindBody struct{ *strings.Reader }

func (rewindBody) Close() error { return nil }

// TestQueryHitAllocs pins the allocations of a /query that hits the plan
// cache with a point lookup: the shape pass, the binding, the execution
// and the response.
func TestQueryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts jitter under the race detector")
	}
	const src = `MATCH (d:Drug {name: 'Ibuprofen'})-[:treat]->(i:Indication) RETURN i.desc`
	s, _ := newMedServer(t, Config{})
	h := s.Handler()
	body := rewindBody{strings.NewReader(src)}
	req := httptest.NewRequest(http.MethodPost, "/query", body)
	req.Header.Set("X-Request-Id", "allocs")
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		body.Reset(src)
		w.code = 0
		clear(w.h)
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	serve() // the miss that compiles the shape
	allocs := testing.AllocsPerRun(200, serve)
	if hits := s.cache.Stats().Hits; hits < 200 {
		t.Fatalf("%d plan-cache hits, want every measured request to hit", hits)
	}
	const want = 16
	t.Logf("/query plan-cache hit: %.0f allocations", allocs)
	if allocs < want-2 || allocs > want+2 {
		t.Errorf("/query plan-cache hit made %.0f allocations, want %d ± 2", allocs, want)
	}
}

// sameRows reports whether two result sets hold the same rows in the same
// order, comparing values by identity (sameValue) rather than by their
// string's address as reflect.DeepEqual would.
func sameRows(a, b [][]graph.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !sameValue(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// sameValue reports whether two values are the same value: one kind, the
// same bits for a number or bool, the same bytes for a string, and lists
// the same element by element. Unlike Value.Equal, INT 1 is not DOUBLE 1.0
// and -0.0 is not 0.0.
func sameValue(a, b graph.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case graph.KindString:
		return a.Str() == b.Str()
	case graph.KindInt:
		return a.Int() == b.Int()
	case graph.KindFloat:
		return graph.FloatBits(a.Float()) == graph.FloatBits(b.Float())
	case graph.KindBool:
		return a.Bool() == b.Bool()
	case graph.KindList:
		al, bl := a.List(), b.List()
		if len(al) != len(bl) {
			return false
		}
		for i := range al {
			if !sameValue(al[i], bl[i]) {
				return false
			}
		}
	}
	return true
}
