package cypher

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// paperQueries are the microbenchmark queries listed in §5.3 of the paper
// (Q1, Q3, Q5, Q7, Q9, Q11 verbatim shapes).
var paperQueries = []string{
	`MATCH (d:Drug)-[p:cause]->(r:Risk)<-[p2:unionOf]-(ci:ContraIndication) RETURN d.name`,
	`MATCH (aa:AutonomousAgent)<-[r1:isA]-(p:Person)<-[r2:isA]-(cp:ContractParty) RETURN aa`,
	`MATCH (dl:DrugLabInteraction)-[r:isA]->(di:DrugInteraction) RETURN di.summary`,
	`MATCH (n:Corporation) RETURN n.hasLegalName`,
	`MATCH p=(d:Drug)-[r:hasDrugRoute]->(dr:DrugRoute) RETURN dr.drugRouteId, size(COLLECT(d.brand)) AS numberOfDrugBrands`,
	`MATCH p=(con:Contract)-[r:isManagedBy]->(corp:Corporation) RETURN size(COLLECT(con.hasEffectiveDate)) AS numberOfEffectiveDates`,
}

func TestParsePaperQueries(t *testing.T) {
	for _, src := range paperQueries {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if len(q.Patterns) == 0 || len(q.Return) == 0 {
			t.Errorf("Parse(%q): empty query %+v", src, q)
		}
	}
}

func TestParsePatternShapes(t *testing.T) {
	q := MustParse(`MATCH (d:Drug)-[p:cause]->(r:Risk)<-[p2:unionOf]-(ci:ContraIndication) RETURN d.name`)
	pat := q.Patterns[0]
	if len(pat.Nodes) != 3 || len(pat.Rels) != 2 {
		t.Fatalf("pattern shape: %d nodes, %d rels", len(pat.Nodes), len(pat.Rels))
	}
	if pat.Rels[0].Dir != DirOut || pat.Rels[0].Type != "cause" {
		t.Errorf("rel0 = %+v", pat.Rels[0])
	}
	if pat.Rels[1].Dir != DirIn || pat.Rels[1].Type != "unionOf" {
		t.Errorf("rel1 = %+v", pat.Rels[1])
	}
	if pat.Nodes[2].Var != "ci" || pat.Nodes[2].Labels[0] != "ContraIndication" {
		t.Errorf("node2 = %+v", pat.Nodes[2])
	}
}

func TestParsePathVariable(t *testing.T) {
	q := MustParse(`MATCH p=(a:A)-[:r]->(b:B) RETURN a`)
	if q.Patterns[0].Var != "p" {
		t.Errorf("path var = %q, want p", q.Patterns[0].Var)
	}
}

func TestParsePropertyMap(t *testing.T) {
	q := MustParse(`MATCH (d:Drug {name: 'Aspirin', year: 1997}) RETURN d.brand`)
	props := q.Patterns[0].Nodes[0].Props
	if !props["name"].(*Literal).Val.Equal(graph.S("Aspirin")) {
		t.Errorf("props[name] = %v", props["name"])
	}
	if !props["year"].(*Literal).Val.Equal(graph.I(1997)) {
		t.Errorf("props[year] = %v", props["year"])
	}
}

func TestParseMultiLabelNode(t *testing.T) {
	q := MustParse("MATCH (x:Indication:Condition) RETURN x")
	if got := q.Patterns[0].Nodes[0].Labels; len(got) != 2 || got[0] != "Indication" || got[1] != "Condition" {
		t.Errorf("labels = %v", got)
	}
}

func TestParseBackquotedProperty(t *testing.T) {
	q := MustParse("MATCH (d:Drug) RETURN size(d.`Indication.desc`) AS n")
	f, ok := q.Return[0].Expr.(*FuncCall)
	if !ok || f.Name != "size" {
		t.Fatalf("return expr = %#v", q.Return[0].Expr)
	}
	pa, ok := f.Args[0].(*PropAccess)
	if !ok || pa.Key != "Indication.desc" {
		t.Errorf("arg = %#v", f.Args[0])
	}
	if q.Return[0].Alias != "n" {
		t.Errorf("alias = %q", q.Return[0].Alias)
	}
}

func TestParseWhereOperators(t *testing.T) {
	q := MustParse(`MATCH (a:A) WHERE a.x = 1 AND a.y <> 'z' OR NOT a.b > 2.5 AND a.c <= 3 RETURN a.x`)
	or, ok := q.Where.(*Binary)
	if !ok || or.Op != OpOr {
		t.Fatalf("top-level where = %#v", q.Where)
	}
	// Left branch: AND of = and <>.
	and, ok := or.L.(*Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("left = %#v", or.L)
	}
	if cmp := and.L.(*Binary); cmp.Op != OpEq {
		t.Errorf("first comparison op = %v", cmp.Op)
	}
	if cmp := and.R.(*Binary); cmp.Op != OpNe {
		t.Errorf("second comparison op = %v", cmp.Op)
	}
}

func TestParseOrderByLimit(t *testing.T) {
	q := MustParse(`MATCH (a:A) RETURN a.x ORDER BY a.x DESC, a.y LIMIT 10`)
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Errorf("order by = %+v", q.OrderBy)
	}
	if q.Limit != 10 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseCountStarAndDistinct(t *testing.T) {
	q := MustParse(`MATCH (a:A) RETURN COUNT(*), COUNT(DISTINCT a.x)`)
	f0 := q.Return[0].Expr.(*FuncCall)
	if !f0.Star || f0.Name != "count" {
		t.Errorf("f0 = %+v", f0)
	}
	f1 := q.Return[1].Expr.(*FuncCall)
	if !f1.Distinct {
		t.Errorf("f1 = %+v", f1)
	}
	q2 := MustParse(`MATCH (a:A) RETURN DISTINCT a.x`)
	if !q2.Distinct {
		t.Error("RETURN DISTINCT not flagged")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"RETURN 1",
		"MATCH (a:A)",                      // no RETURN
		"MATCH (a:A RETURN a",              // unclosed node
		"MATCH (a:A)-[:r]-(b:B) RETURN a",  // undirected
		"MATCH (a:A) RETURN frobnicate(a)", // unknown function
		"MATCH (a:A) RETURN sum(*)",        // star on non-count
		"MATCH (a:A) WHERE a. RETURN a",
		"MATCH (a:A) RETURN a.x LIMIT x",
		"MATCH (a:A) RETURN a.x garbage",
		"MATCH (a:A) WHERE MATCH RETURN a",
		"MATCH (a:A {name: }) RETURN a",
		"MATCH (a:A) RETURN size(a.x, a.y)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	bad := []string{
		"MATCH (a:`Unterminated",
		"MATCH (a:A) WHERE a.x = 'unterminated RETURN a",
		"MATCH (a:A) WHERE a.x = ~ RETURN a",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	q := MustParse(`MATCH (a:A {s: 'it\'s\n\t\\'}) RETURN a`)
	got := q.Patterns[0].Nodes[0].Props["s"].(*Literal).Val.Str()
	if got != "it's\n\t\\" {
		t.Errorf("escaped string = %q", got)
	}
}

// TestRenderRoundTrip: parse → String() → parse yields the same rendering.
func TestRenderRoundTrip(t *testing.T) {
	srcs := append([]string{}, paperQueries...)
	srcs = append(srcs,
		"MATCH (d:Drug) RETURN size(d.`Indication.desc`) AS n",
		`MATCH (a:A)-[r]->(b), (b)-[:t]->(c:C:D) WHERE a.x < 5 OR NOT b.y >= 2 RETURN DISTINCT a.x, COUNT(*) ORDER BY a.x DESC LIMIT 3`,
		`MATCH (a:A {k: 'v', n: 2}) RETURN AVG(a.x), MIN(a.y), MAX(a.z), SUM(a.w)`,
	)
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		text := q1.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of %q: %v", text, err)
		}
		if q2.String() != text {
			t.Errorf("render not stable:\n 1st %s\n 2nd %s", text, q2.String())
		}
	}
}

// TestRenderLiteralsRoundTrip: a literal's rendering reads back as the
// same value of the same kind. Each case once rendered through
// graph.Value.String, which the lexer misreads ("\r" as "r") or rejects
// (exponent form), or which turned a DOUBLE into an INT.
func TestRenderLiteralsRoundTrip(t *testing.T) {
	cases := []struct {
		src, rendered string
		want          graph.Value
		get           func(*Query) graph.Value
	}{
		{"MATCH (n:L {k: 'a\rb'}) RETURN n", "{k: \"a\rb\"}", graph.S("a\rb"), nodeProp},
		{"MATCH (n:L {k: 'a\x01b'}) RETURN n", "{k: \"a\x01b\"}", graph.S("a\x01b"), nodeProp},
		{`MATCH (n:L {k: 'q"\'\\\n\t'}) RETURN n`, `{k: "q\"'\\\n\t"}`, graph.S("q\"'\\\n\t"), nodeProp},
		{"MATCH (a:L) WHERE a.x = 0.0000001 RETURN a", "a.x = 0.0000001", graph.F(1e-7), whereRHS},
		{"MATCH (n:L {k: 1000000000000000000000.5}) RETURN n", "{k: 1000000000000000000000.0}", graph.F(1e21), nodeProp},
		{"MATCH (a:L) RETURN 1.0 AS one", "RETURN 1.0 AS one", graph.F(1), func(q *Query) graph.Value { return q.Return[0].Expr.(*Literal).Val }},
	}
	for _, c := range cases {
		q := MustParse(c.src)
		text := q.String()
		if !strings.Contains(text, c.rendered) {
			t.Errorf("%q renders as %q, want it to contain %q", c.src, text, c.rendered)
		}
		q2, err := Parse(text)
		if err != nil {
			t.Errorf("reparse of %q: %v", text, err)
			continue
		}
		got := c.get(q2)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("%q reparses to %v (%v), want %v (%v)", c.src, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func nodeProp(q *Query) graph.Value { return q.Patterns[0].Nodes[0].Props["k"].(*Literal).Val }
func whereRHS(q *Query) graph.Value { return q.Where.(*Binary).R.(*Literal).Val }

// TestRenderKeepsStructure: parentheses, quoted names and empty names
// survive rendering, so the reparsed tree is the parsed one.
func TestRenderKeepsStructure(t *testing.T) {
	for _, src := range []string{
		`MATCH (a:L) WHERE (a.x = 1 OR a.y = 2) AND a.z = 3 RETURN a`,
		`MATCH (a:L) WHERE a.x = 1 OR (a.y = 2 OR a.z = 3) RETURN a`,
		`MATCH (a:L) WHERE (a.x = 1) = true RETURN a`,
		`MATCH (a:L) WHERE (NOT a.x) = false RETURN a`,
		"MATCH p=(`a b`:`L M`)-[`r s`:`T U`]->(``) RETURN `a b`.`k v` AS `x y`",
	} {
		q := MustParse(src)
		q2, err := Parse(q.String())
		if err != nil {
			t.Errorf("reparse of %q (from %q): %v", q.String(), src, err)
			continue
		}
		if !sameTree(q, q2) {
			t.Errorf("%q renders as %q, which parses to a different tree", src, q.String())
		}
	}
}

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	q := MustParse(paperQueries[4])
	c := q.Clone()
	if c.String() != q.String() {
		t.Fatalf("clone renders differently:\n%s\n%s", c.String(), q.String())
	}
	c.Patterns[0].Nodes[0].Labels[0] = "Mutated"
	c.Return[0].Expr = &Literal{Val: graph.I(0)}
	if q.Patterns[0].Nodes[0].Labels[0] != "Drug" {
		t.Error("Clone shares node label storage")
	}
	if q.String() == c.String() {
		t.Error("mutation did not change clone rendering")
	}
}

func TestHasAggregate(t *testing.T) {
	cases := map[string]bool{
		`MATCH (a:A) RETURN COUNT(*)`:                    true,
		`MATCH (a:A) RETURN size(COLLECT(a.x))`:          true,
		`MATCH (a:A) RETURN size(a.x)`:                   false,
		`MATCH (a:A) RETURN a.x`:                         false,
		`MATCH (a:A) WHERE a.x = 1 RETURN SUM(a.y)`:      true,
		`MATCH (a:A) RETURN a.x, size(COLLECT(a.b))`:     true,
		`MATCH (a:A) RETURN NOT a.flag = true, AVG(a.x)`: true,
	}
	for src, want := range cases {
		q := MustParse(src)
		got := false
		for _, ri := range q.Return {
			if HasAggregate(ri.Expr) {
				got = true
			}
		}
		if got != want {
			t.Errorf("HasAggregate(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestVars(t *testing.T) {
	q := MustParse(`MATCH (a:A)-[:r]->(b:B) WHERE a.x = b.y RETURN size(COLLECT(b.z)), a`)
	vars := map[string]bool{}
	Vars(q.Where, vars)
	for _, ri := range q.Return {
		Vars(ri.Expr, vars)
	}
	if !vars["a"] || !vars["b"] || len(vars) != 2 {
		t.Errorf("vars = %v", vars)
	}
}

func TestIdentQuoting(t *testing.T) {
	if got := ident("plain_name1"); got != "plain_name1" {
		t.Errorf("ident(plain) = %q", got)
	}
	if got := ident("Indication.desc"); got != "`Indication.desc`" {
		t.Errorf("ident(dotted) = %q", got)
	}
	if got := ident("1starts"); got != "`1starts`" {
		t.Errorf("ident(digit-start) = %q", got)
	}
}

// Property: rendering any query built from random simple parts reparses to
// an identical rendering.
func TestRenderReparseProperty(t *testing.T) {
	f := func(varName string, useWhere bool, limit uint8) bool {
		// Sanitize the variable name into a valid identifier.
		name := "v"
		for _, r := range varName {
			if r >= 'a' && r <= 'z' {
				name += string(r)
			}
		}
		src := "MATCH (" + name + ":L) "
		if useWhere {
			src += "WHERE " + name + ".x = 1 "
		}
		src += "RETURN " + name + ".y"
		if limit%2 == 0 {
			src += " LIMIT 5"
		}
		q, err := Parse(src)
		if err != nil {
			return false
		}
		q2, err := Parse(q.String())
		if err != nil {
			return false
		}
		return q.String() == q2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	q, err := Parse("match (a:A) where a.x = 1 return count(*) order by a.x limit 1")
	if err != nil {
		t.Fatalf("lowercase keywords rejected: %v", err)
	}
	if !strings.HasPrefix(q.String(), "MATCH") {
		t.Errorf("render = %q", q.String())
	}
}
