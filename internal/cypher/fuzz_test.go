package cypher

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// pointLookups are the served point-lookup templates (benchmark/stream.go)
// instantiated with one value each.
var pointLookups = []string{
	`MATCH (d:Drug {name: 'Aspirin'})-[:treat]->(x:Indication) RETURN x.desc`,
	`MATCH (d:Drug {brand: 'Ecotrin'})-[:treat]->(x:Indication) RETURN d.name, x.desc`,
	`MATCH (d:Drug {name: 'Aspirin'})-[:cause]->(x:Risk) RETURN d.brand`,
	`MATCH (d:Drug {name: 'Aspirin'})-[:has]->(x:DrugInteraction) RETURN x.summary`,
	`MATCH (d:Drug {brand: 'Ecotrin'})-[:hasDrugRoute]->(x:DrugRoute) RETURN x.drugRouteId`,
	`MATCH (i:Indication {desc: 'Fever'})-[:is]->(x:Condition) RETURN x.condName`,
	`MATCH (x:Drug)-[:treat]->(i:Indication {desc: 'Fever'}) RETURN x.name`,
	`MATCH (l:DrugLabInteraction {mechanism: 'glucose'})-[:isA]->(x:DrugInteraction) RETURN x.summary`,
	`MATCH (f:DrugFoodInteraction {riskLevel: 'moderate'})-[:isA]->(x:DrugInteraction) RETURN x.summary`,
	`MATCH (b:BlackBoxWarning {route: 'oral'})-[:unionOf]->(x:Risk)<-[:cause]-(d:Drug) RETURN d.name`,
	`MATCH (c:ContraIndication {ciDesc: 'Asthma'})-[:unionOf]->(x:Risk)<-[:cause]-(d:Drug) RETURN d.name`,
	`MATCH (r:DrugRoute {drugRouteId: 'r1'})<-[:hasDrugRoute]-(d:Drug) RETURN d.brand`,
}

// FuzzParse: Parse never panics, and whatever it accepts renders to text
// that parses back to the same tree — literal kinds included — and
// renders identically again.
func FuzzParse(f *testing.F) {
	for _, src := range append(append([]string{}, paperQueries...), pointLookups...) {
		f.Add(src)
	}
	f.Add("MATCH (n:L {k: 'a\rb'}) RETURN n")
	f.Add("MATCH (n:L {k: 'a\x01b'}) RETURN n")
	f.Add("MATCH (a:L) WHERE a.x = 0.0000001 RETURN a")
	f.Add("MATCH (n:L {k: 1000000000000000000000.5}) RETURN n")
	f.Add("MATCH (a:L) RETURN 1.0 AS one")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("%q parses but its rendering %q does not: %v", src, text, err)
		}
		if !sameTree(q, q2) {
			t.Fatalf("%q renders as %q, which parses to a different tree", src, text)
		}
		if again := q2.String(); again != text {
			t.Fatalf("rendering is not stable: %q then %q", text, again)
		}
	})
}

// FuzzShape: Shape, then the parse of its key, accepts exactly what Parse
// accepts, with Parse's error where both reject; where both accept,
// binding the lifted values into the key's tree gives Parse's tree, and
// the key's template renders what Parse's tree renders.
func FuzzShape(f *testing.F) {
	for _, src := range append(append([]string{}, paperQueries...), pointLookups...) {
		f.Add(src)
	}
	f.Add(`MATCH (a:L {k: 1})-[:r]->(b:M {k: 1.0}) RETURN a`)
	f.Add(`MATCH (a:L {k: 'x'})-[:r]->(b:M {k: 'x'}) WHERE a.n = 'x' OR 2 > b.m RETURN a.n, 'x' AS c ORDER BY c LIMIT 2`)
	f.Add(`MATCH (a:L) WHERE size('abc') = 3 AND NOT a.x <> 1.5 RETURN a.where, 1 = 1`)
	f.Add(`MATCH (a:L {where: 'w', return: 7}) WHERE a.return='r'5 RETURN a`)
	f.Add(`MATCH (a:L {k: $0}) RETURN a`)
	f.Fuzz(func(t *testing.T, src string) {
		want, perr := Parse(src)
		key, args, serr := Shape(src)
		if serr != nil {
			if perr == nil || perr.Error() != serr.Error() {
				t.Fatalf("%q: Shape fails with %v, Parse with %v", src, serr, perr)
			}
			return
		}
		q, kerr := parse(key, true)
		if (kerr == nil) != (perr == nil) {
			t.Fatalf("%q: Parse error %v, but its key %q: %v", src, perr, key, kerr)
		}
		if perr != nil {
			return
		}
		if got := NewTemplate(q).Render(args); got != want.String() {
			t.Fatalf("%q: key %q renders as %q, want %q", src, key, got, want.String())
		}
		bindParams(q, args)
		if !sameTree(q, want) {
			t.Fatalf("%q: key %q bound to %v is not Parse's tree", src, key, args)
		}
	})
}

// bindParams replaces every parameter slot of q with its value.
func bindParams(q *Query, args []graph.Value) {
	var bind func(e Expr) Expr
	bind = func(e Expr) Expr {
		switch x := e.(type) {
		case *Param:
			return &Literal{Val: args[x.Slot]}
		case *Binary:
			x.L, x.R = bind(x.L), bind(x.R)
		case *Not:
			x.E = bind(x.E)
		case *FuncCall:
			for i, a := range x.Args {
				x.Args[i] = bind(a)
			}
		}
		return e
	}
	for _, p := range q.Patterns {
		for _, n := range p.Nodes {
			for k, v := range n.Props {
				n.Props[k] = bind(v)
			}
		}
	}
	if q.Where != nil {
		q.Where = bind(q.Where)
	}
}

var valueType = reflect.TypeOf(graph.Value{})

// sameTree is reflect.DeepEqual for query trees, except that a graph.Value
// compares by identity (sameValue) rather than by its string's or list's
// address.
func sameTree(a, b any) bool { return sameReflect(reflect.ValueOf(a), reflect.ValueOf(b)) }

func sameReflect(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == valueType {
		return sameValue(a.Interface().(graph.Value), b.Interface().(graph.Value))
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameReflect(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameReflect(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !sameReflect(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameReflect(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
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
