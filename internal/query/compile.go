package query

import (
	"fmt"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
)

// cexpr is a compiled expression: a closure tree built once at Prepare
// time that evaluates against the machine's slot bindings without touching
// the AST or resolving any strings.
type cexpr func(m *machine) (graph.Value, error)

// compiler accumulates the variable numbering and symbol resolution for
// one Prepare call.
type compiler struct {
	g       storage.Graph
	slots   map[string]int
	order   []string
	nParams int // one more than the highest parameter slot seen
}

// param records a parameter slot the plan reads and returns its index.
func (c *compiler) param(p *cypher.Param) int {
	c.nParams = max(c.nParams, p.Slot+1)
	return p.Slot
}

// slot returns the variable's slot, assigning the next free one on first
// sight. Only pattern variables get slots.
func (c *compiler) slot(name string) int {
	if i, ok := c.slots[name]; ok {
		return i
	}
	i := len(c.order)
	c.slots[name] = i
	c.order = append(c.order, name)
	return i
}

// compileReturn classifies return items, validates aggregate usage, and
// compiles every expression: group keys, aggregate arguments, and output
// items.
func (c *compiler) compileReturn(p *Prepared, q *cypher.Query) error {
	hasAgg := false
	for _, ri := range q.Return {
		if cypher.HasAggregate(ri.Expr) {
			hasAgg = true
		}
	}
	if !hasAgg {
		for _, ri := range q.Return {
			ce, err := c.expr(ri.Expr, nil)
			if err != nil {
				return err
			}
			p.items = append(p.items, citem{out: ce})
		}
		return nil
	}
	p.grouped = true
	aggIdx := map[*cypher.FuncCall]int{}
	counted := map[*cypher.FuncCall]bool{}
	for _, ri := range q.Return {
		if !cypher.HasAggregate(ri.Expr) {
			ce, err := c.expr(ri.Expr, nil)
			if err != nil {
				return err
			}
			p.groupExprs = append(p.groupExprs, ce)
			p.items = append(p.items, citem{})
			continue
		}
		if err := validateAggItem(ri.Expr, false); err != nil {
			return err
		}
		var calls []*cypher.FuncCall
		collectAggCalls(ri.Expr, &calls, counted)
		for _, call := range calls {
			aggIdx[call] = len(p.aggs)
			spec := aggSpec{name: call.Name, distinct: call.Distinct, star: call.Star}
			if counted[call] {
				spec.name = "count"
			}
			if !call.Star {
				arg, err := c.expr(call.Args[0], nil)
				if err != nil {
					return err
				}
				spec.arg = arg
			}
			p.aggs = append(p.aggs, spec)
		}
		ce, err := c.expr(ri.Expr, aggIdx)
		if err != nil {
			return err
		}
		p.items = append(p.items, citem{hasAgg: true, out: ce})
	}
	return nil
}

// validateAggItem rejects expressions mixing aggregates with free variable
// references outside aggregate arguments (e.g. a.x = COUNT(*)), which our
// implicit-grouping implementation does not support.
func validateAggItem(e cypher.Expr, insideAgg bool) error {
	switch x := e.(type) {
	case *cypher.PropAccess, *cypher.VarRef:
		if !insideAgg {
			return fmt.Errorf("query: %s mixes grouped and aggregated values in one item", e)
		}
	case *cypher.Binary:
		if err := validateAggItem(x.L, insideAgg); err != nil {
			return err
		}
		return validateAggItem(x.R, insideAgg)
	case *cypher.Not:
		return validateAggItem(x.E, insideAgg)
	case *cypher.FuncCall:
		inner := insideAgg || x.IsAggregate()
		for _, a := range x.Args {
			if err := validateAggItem(a, inner); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectAggCalls gathers the aggregate FuncCall nodes inside e, in
// evaluation order, and marks in counted each COLLECT whose list only
// size() reads. Nested aggregates (aggregate inside aggregate) are
// rejected later when the argument expression is compiled.
func collectAggCalls(e cypher.Expr, into *[]*cypher.FuncCall, counted map[*cypher.FuncCall]bool) {
	switch x := e.(type) {
	case *cypher.FuncCall:
		if x.IsAggregate() {
			*into = append(*into, x)
			return
		}
		if c := sizedCollect(x); c != nil {
			counted[c] = true
		}
		for _, a := range x.Args {
			collectAggCalls(a, into, counted)
		}
	case *cypher.Binary:
		collectAggCalls(x.L, into, counted)
		collectAggCalls(x.R, into, counted)
	case *cypher.Not:
		collectAggCalls(x.E, into, counted)
	}
}

// sizedCollect returns c when f is size(c) and c is a COLLECT aggregate,
// else nil. size(COLLECT([DISTINCT] x)) is compiled as COUNT([DISTINCT] x):
// both skip NULLs and a list-valued x is one element of the list, so the
// count is the list's length without the list being built.
func sizedCollect(f *cypher.FuncCall) *cypher.FuncCall {
	if f.Name != "size" || len(f.Args) != 1 {
		return nil
	}
	if c, ok := f.Args[0].(*cypher.FuncCall); ok && c.Name == "collect" {
		return c
	}
	return nil
}

var nullExpr cexpr = func(*machine) (graph.Value, error) { return graph.Null, nil }

// expr compiles an expression. aggIdx maps aggregate calls to their state
// index during the output phase; nil means aggregates are not allowed in
// this position (WHERE clauses, group keys, aggregate arguments). Unknown
// variables and missing properties compile to NULL, matching Cypher.
func (c *compiler) expr(e cypher.Expr, aggIdx map[*cypher.FuncCall]int) (cexpr, error) {
	switch n := e.(type) {
	case *cypher.Literal:
		val := n.Val
		return func(*machine) (graph.Value, error) { return val, nil }, nil
	case *cypher.Param:
		slot := c.param(n)
		return func(m *machine) (graph.Value, error) { return m.args[slot], nil }, nil
	case *cypher.PropAccess:
		slot, ok := c.slots[n.Var]
		if !ok {
			return nullExpr, nil
		}
		key := c.g.KeyID(n.Key)
		return func(m *machine) (graph.Value, error) {
			v := m.slots[slot]
			if v == unbound {
				return graph.Null, nil
			}
			m.propsRead++
			val, ok := m.g.PropID(v, key)
			if !ok {
				return graph.Null, nil
			}
			return val, nil
		}, nil
	case *cypher.VarRef:
		slot, ok := c.slots[n.Name]
		if !ok {
			return nullExpr, nil
		}
		return func(m *machine) (graph.Value, error) {
			v := m.slots[slot]
			if v == unbound {
				return graph.Null, nil
			}
			// Vertices project as an opaque identity token.
			return graph.S(fmt.Sprintf("v%d", v)), nil
		}, nil
	case *cypher.Not:
		inner, err := c.expr(n.E, aggIdx)
		if err != nil {
			return nil, err
		}
		return func(m *machine) (graph.Value, error) {
			val, err := inner(m)
			if err != nil || val.IsNull() {
				return graph.Null, err
			}
			return graph.B(!val.Bool()), nil
		}, nil
	case *cypher.Binary:
		return c.binary(n, aggIdx)
	case *cypher.FuncCall:
		if n.IsAggregate() {
			if aggIdx == nil {
				return nil, fmt.Errorf("query: aggregate %s evaluated outside grouping", n.Name)
			}
			idx, ok := aggIdx[n]
			if !ok {
				return nil, fmt.Errorf("query: aggregate %s has no accumulated state", n.Name)
			}
			return func(m *machine) (graph.Value, error) { return m.aggVals[idx], nil }, nil
		}
		if inner := sizedCollect(n); inner != nil && aggIdx != nil {
			// The inner COLLECT was compiled as a COUNT: its value is the size.
			return c.expr(inner, aggIdx)
		}
		return c.scalarFunc(n, aggIdx)
	default:
		return nil, fmt.Errorf("query: unsupported expression %T", e)
	}
}

func (c *compiler) binary(n *cypher.Binary, aggIdx map[*cypher.FuncCall]int) (cexpr, error) {
	l, err := c.expr(n.L, aggIdx)
	if err != nil {
		return nil, err
	}
	r, err := c.expr(n.R, aggIdx)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case cypher.OpAnd, cypher.OpOr:
		op := n.Op
		return func(m *machine) (graph.Value, error) {
			lv, err := l(m)
			if err != nil {
				return graph.Null, err
			}
			rv, err := r(m)
			if err != nil {
				return graph.Null, err
			}
			return kleene(op, lv, rv), nil
		}, nil
	case cypher.OpEq:
		return func(m *machine) (graph.Value, error) {
			lv, rv, null, err := evalBoth(m, l, r)
			if null || err != nil {
				return graph.Null, err
			}
			return graph.B(lv.Equal(rv)), nil
		}, nil
	case cypher.OpNe:
		return func(m *machine) (graph.Value, error) {
			lv, rv, null, err := evalBoth(m, l, r)
			if null || err != nil {
				return graph.Null, err
			}
			return graph.B(!lv.Equal(rv)), nil
		}, nil
	case cypher.OpLt, cypher.OpGt, cypher.OpLe, cypher.OpGe:
		op := n.Op
		return func(m *machine) (graph.Value, error) {
			lv, rv, null, err := evalBoth(m, l, r)
			if null || err != nil {
				return graph.Null, err
			}
			cmp, ok := lv.Compare(rv)
			if !ok {
				return graph.Null, nil
			}
			switch op {
			case cypher.OpLt:
				return graph.B(cmp < 0), nil
			case cypher.OpGt:
				return graph.B(cmp > 0), nil
			case cypher.OpLe:
				return graph.B(cmp <= 0), nil
			default:
				return graph.B(cmp >= 0), nil
			}
		}, nil
	default:
		return nil, fmt.Errorf("query: unsupported operator %v", n.Op)
	}
}

// evalBoth evaluates a comparison's operands; null reports whether either
// side is NULL (the comparison then yields NULL).
func evalBoth(m *machine, l, r cexpr) (lv, rv graph.Value, null bool, err error) {
	lv, err = l(m)
	if err != nil {
		return
	}
	rv, err = r(m)
	if err != nil {
		return
	}
	null = lv.IsNull() || rv.IsNull()
	return
}

func (c *compiler) scalarFunc(n *cypher.FuncCall, aggIdx map[*cypher.FuncCall]int) (cexpr, error) {
	switch n.Name {
	case "size":
		arg, err := c.expr(n.Args[0], aggIdx)
		if err != nil {
			return nil, err
		}
		return func(m *machine) (graph.Value, error) {
			val, err := arg(m)
			if err != nil {
				return graph.Null, err
			}
			switch val.Kind() {
			case graph.KindList:
				return graph.I(int64(val.Len())), nil
			case graph.KindString:
				return graph.I(int64(len(val.Str()))), nil
			default:
				return graph.Null, nil
			}
		}, nil
	default:
		return nil, fmt.Errorf("query: unknown function %s", n.Name)
	}
}
