package query

// Tests of the lent-row contract: the executor fills one row per machine
// and lends it to the finisher and the sink, so everything that keeps a
// row — a *Result, the ORDER BY buffer, a morsel worker's batch — must
// keep a copy. And of size(COLLECT(x)), which is compiled as COUNT(x).

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

// itemGraph is n Item vertices whose x covers what COLLECT can meet: a
// missing property (NULL) on every fifth, a list value on every seventh
// other one, and repeated integers otherwise. grp splits them into four
// groups; the three "none" vertices never carry x.
func itemGraph(n int) *storetest.Batch {
	var g storetest.Batch
	for i := 0; i < n; i++ {
		v := g.Vertex("Item")
		g.Prop(v, "grp", graph.S(fmt.Sprintf("g%d", i%4)))
		switch {
		case i%5 == 0:
		case i%7 == 0:
			g.Prop(v, "x", graph.L(graph.I(int64(i%3)), graph.I(1)))
		default:
			g.Prop(v, "x", graph.I(int64(i%6)))
		}
	}
	for i := 0; i < 3; i++ {
		g.Prop(g.Vertex("Item"), "grp", graph.S("none"))
	}
	return &g
}

// forEachItemStore runs body over the item graph on memstore and on a
// live diskstore whose later vertices sit in the delta.
func forEachItemStore(t *testing.T, body func(t *testing.T, g storage.Graph)) {
	const base, live = 60, 40
	t.Run("memstore", func(t *testing.T) {
		body(t, loadMem(t, itemGraph(base+live)))
	})
	t.Run("diskstore-live", func(t *testing.T) {
		s, err := diskstore.Open(t.TempDir(), diskstore.Options{PageSize: 512, CachePages: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		all := itemGraph(base + live)
		mustLoad(t, s, &storetest.Batch{Vertices: all.Vertices[:base]})
		if _, err := (&storetest.Batch{Vertices: all.Vertices[base:]}).Apply(s); err != nil {
			t.Fatal(err)
		}
		if ls := s.LiveStats(); ls.DeltaVertices == 0 {
			t.Fatal("the live half is not in the delta")
		}
		body(t, s)
	})
}

// groupedInts runs src and maps each row's leading columns to its last
// one, read by val.
func groupedInts(t *testing.T, g storage.Graph, src string, workers int, val func(graph.Value) int64) map[string]int64 {
	t.Helper()
	p, err := Prepare(g, cypher.MustParse(src))
	if err != nil {
		t.Fatalf("Prepare(%q): %v", src, err)
	}
	res, err := collect(p, workers, nil)
	if err != nil {
		t.Fatalf("Exec(%q, %d workers): %v", src, workers, err)
	}
	out := map[string]int64{}
	for _, row := range res.Rows {
		out[fmt.Sprint(row[:len(row)-1])] = val(row[len(row)-1])
	}
	return out
}

// TestSizeOfCollectIsCount holds the COUNT compilation of
// size(COLLECT([DISTINCT] x)) to the length of the list COLLECT builds:
// grouped and not, over NULLs, list values and duplicates, with zero
// matches, on one morsel and on four workers.
func TestSizeOfCollectIsCount(t *testing.T) {
	forEachItemStore(t, func(t *testing.T, g storage.Graph) {
		length := func(v graph.Value) int64 { return int64(v.Len()) }
		integer := func(v graph.Value) int64 { return v.Int() }
		cases := []struct{ sized, collected string }{
			{`MATCH (n:Item) RETURN n.grp, size(COLLECT(n.x))`, `MATCH (n:Item) RETURN n.grp, COLLECT(n.x)`},
			{`MATCH (n:Item) RETURN n.grp, size(COLLECT(DISTINCT n.x))`, `MATCH (n:Item) RETURN n.grp, COLLECT(DISTINCT n.x)`},
			{`MATCH (n:Item) RETURN size(COLLECT(n.x))`, `MATCH (n:Item) RETURN COLLECT(n.x)`},
			{`MATCH (n:Item) RETURN size(COLLECT(DISTINCT n.x))`, `MATCH (n:Item) RETURN COLLECT(DISTINCT n.x)`},
			{`MATCH (n:Item) WHERE n.grp = 'absent' RETURN size(COLLECT(n.x))`, `MATCH (n:Item) WHERE n.grp = 'absent' RETURN COLLECT(n.x)`},
			{`MATCH (n:Item) WHERE n.grp = 'absent' RETURN n.grp, size(COLLECT(n.x))`, `MATCH (n:Item) WHERE n.grp = 'absent' RETURN n.grp, COLLECT(n.x)`},
		}
		for _, c := range cases {
			p, err := Prepare(g, cypher.MustParse(c.sized))
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range p.aggs {
				if a.name != "count" {
					t.Errorf("%q compiled a %s aggregate, want count", c.sized, a.name)
				}
			}
			want := groupedInts(t, g, c.collected, 1, length)
			for _, workers := range []int{1, 4} {
				if got := groupedInts(t, g, c.sized, workers, integer); !reflect.DeepEqual(got, want) {
					t.Errorf("%q with %d workers = %v, want the COLLECT lengths %v", c.sized, workers, got, want)
				}
			}
		}
		// A size inside a larger item reads the count too.
		want := groupedInts(t, g, `MATCH (n:Item) RETURN n.grp, COLLECT(n.x)`, 1, func(v graph.Value) int64 {
			if v.Len() > 3 {
				return 1
			}
			return 0
		})
		got := groupedInts(t, g, `MATCH (n:Item) RETURN n.grp, size(COLLECT(n.x)) > 3`, 1, func(v graph.Value) int64 {
			if v.Bool() {
				return 1
			}
			return 0
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("size(COLLECT(n.x)) > 3 = %v, want %v", got, want)
		}
	})
}

// copyingSink keeps a copy of every row it is lent — the reference the
// executor's own keepers are checked against.
type copyingSink struct{ rows [][]graph.Value }

func (s *copyingSink) AddRow(row []graph.Value) error {
	s.rows = append(s.rows, append([]graph.Value(nil), row...))
	return nil
}

// TestKeptRowsMatchReference checks every place that keeps a lent row
// against answers computed in the test from one plain projection: ORDER
// BY with and without LIMIT (the top-k heap evicts rows), DISTINCT,
// grouped rows, and the same shapes on the morsel path.
func TestKeptRowsMatchReference(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b storage.Builder) {
		buildPeopleGraph(t, b, 420)
		p, err := Prepare(b, cypher.MustParse(`MATCH (p:Person) RETURN p.name, p.age, p.grp`))
		if err != nil {
			t.Fatal(err)
		}
		var ref copyingSink
		if err := p.Exec(context.Background(), ExecOptions{}, &ref); err != nil {
			t.Fatal(err)
		}
		type person struct {
			name, grp string
			age       int64
		}
		people := make([]person, len(ref.rows))
		for i, r := range ref.rows {
			people[i] = person{r[0].Str(), r[2].Str(), r[1].Int()}
		}

		byAge := append([]person(nil), people...)
		sort.Slice(byAge, func(i, j int) bool {
			if byAge[i].age != byAge[j].age {
				return byAge[i].age > byAge[j].age
			}
			return byAge[i].name < byAge[j].name
		})
		var ordered []string
		for _, q := range byAge {
			ordered = append(ordered, fmt.Sprint([]graph.Value{graph.S(q.name), graph.I(q.age)}))
		}
		distinct := map[string]bool{}
		counts := map[string]int64{}
		for _, q := range people {
			distinct[fmt.Sprint([]graph.Value{graph.I(q.age), graph.S(q.grp)})] = true
			counts[q.grp]++
		}
		var distinctRows, groupRows []string
		for k := range distinct {
			distinctRows = append(distinctRows, k)
		}
		for grp, n := range counts {
			groupRows = append(groupRows, fmt.Sprint([]graph.Value{graph.S(grp), graph.I(n)}))
		}
		sort.Strings(distinctRows)
		sort.Strings(groupRows)

		cases := []struct {
			src     string
			want    []string
			ordered bool
		}{
			{`MATCH (p:Person) RETURN p.name, p.age ORDER BY p.age DESC, p.name`, ordered, true},
			{`MATCH (p:Person) RETURN p.name, p.age ORDER BY p.age DESC, p.name LIMIT 25`, ordered[:25], true},
			{`MATCH (p:Person) RETURN DISTINCT p.age, p.grp`, distinctRows, false},
			{`MATCH (p:Person) RETURN p.grp, COUNT(*)`, groupRows, false},
			{`MATCH (p:Person) RETURN p.grp, COUNT(*) ORDER BY p.grp`, groupRows, true},
		}
		for _, c := range cases {
			q, err := Prepare(b, cypher.MustParse(c.src))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				res, err := collect(q, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				got := rowStrings(res)
				if !c.ordered {
					sort.Strings(got)
				}
				if !reflect.DeepEqual(got, c.want) {
					t.Errorf("%q with %d workers = %v, want %v", c.src, workers, got, c.want)
				}
			}
		}
	})
}

// TestResultRowsAreDistinctSlices: a *Result's rows share backing
// blocks, yet appending to one row must reallocate it, not write into
// the row after it.
func TestResultRowsAreDistinctSlices(t *testing.T) {
	mem := memstore.New()
	buildPeopleGraph(t, mem, 300)
	p, err := Prepare(mem, cypher.MustParse(`MATCH (p:Person) RETURN p.name, p.age`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := rowStrings(res)
	for i := range res.Rows {
		res.Rows[i] = append(res.Rows[i], graph.S("appended"))
		if i+1 < len(res.Rows) {
			if got := fmt.Sprint(res.Rows[i+1]); got != want[i+1] {
				t.Fatalf("appending to row %d changed row %d to %s, want %s", i, i+1, got, want[i+1])
			}
		}
	}
}
