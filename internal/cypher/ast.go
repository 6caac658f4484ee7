// Package cypher implements a lexer, parser, and AST for the fragment of
// the Cypher query language used throughout the paper's evaluation:
// MATCH path patterns with labels and inline property maps, WHERE
// comparisons, and RETURN clauses with aggregation (COUNT, COLLECT, SUM,
// AVG, MIN, MAX), the size() function, DISTINCT, ORDER BY, and LIMIT.
//
// The AST is deliberately small and regular so the schema-driven query
// rewriter (internal/rewrite) can transform it mechanically.
package cypher

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Direction orients a relationship pattern relative to the textual
// left-to-right node order.
type Direction int

const (
	// DirOut matches edges from the left node to the right node: -[]->.
	DirOut Direction = iota
	// DirIn matches edges from the right node to the left node: <-[]-.
	DirIn
)

// Query is a parsed Cypher query.
type Query struct {
	Patterns []*PathPattern
	Where    Expr // nil when absent
	Distinct bool // RETURN DISTINCT
	Return   []*ReturnItem
	OrderBy  []*SortItem
	Limit    int // -1 when absent
}

// PathPattern is one comma-separated MATCH pattern: a chain of node
// patterns joined by relationship patterns. len(Rels) == len(Nodes)-1.
type PathPattern struct {
	Var   string // optional path variable, e.g. p=(a)-[]->(b); unused by execution
	Nodes []*NodePattern
	Rels  []*RelPattern
}

// NodePattern matches a vertex: optional variable, zero or more label
// constraints, and optional property equality constraints. Each
// constraint's value is a *Literal, or a *Param in a shape key's tree.
type NodePattern struct {
	Var    string
	Labels []string
	Props  map[string]Expr
}

// RelPattern matches one edge: optional variable, optional type
// constraint, and a direction.
type RelPattern struct {
	Var  string
	Type string // empty = any type
	Dir  Direction
}

// ReturnItem is one projected column.
type ReturnItem struct {
	Expr  Expr
	Alias string // empty when no AS clause
}

// Name returns the column name (alias or rendered expression).
func (ri *ReturnItem) Name() string {
	if ri.Alias != "" {
		return ri.Alias
	}
	return ri.Expr.String()
}

// SortItem is one ORDER BY key.
type SortItem struct {
	Expr Expr
	Desc bool
}

// Expr is a Cypher expression node.
type Expr interface {
	fmt.Stringer
	expr()
}

// PropAccess is variable.property.
type PropAccess struct {
	Var string
	Key string
}

// VarRef returns a bound pattern variable (a vertex).
type VarRef struct {
	Name string
}

// Literal is a constant value.
type Literal struct {
	Val graph.Value
}

// Param is a parameter slot: a literal a shape key lifted out of the
// query text (see Shape), bound to a value per execution. Only inline
// property constraints and WHERE comparison operands hold one.
type Param struct {
	Slot int
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
	OpAnd
	OpOr
)

func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	case OpLe:
		return "<="
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	default:
		return fmt.Sprintf("BinaryOp(%d)", int(op))
	}
}

// Binary applies a binary operator.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// FuncCall applies a function or aggregate: COUNT, COLLECT, SUM, AVG, MIN,
// MAX (aggregates) or size (scalar). COUNT(*) is encoded with Star=true.
type FuncCall struct {
	Name     string // canonical lower-case name
	Distinct bool
	Star     bool
	Args     []Expr
}

func (*PropAccess) expr() {}
func (*VarRef) expr()     {}
func (*Literal) expr()    {}
func (*Param) expr()      {}
func (*Binary) expr()     {}
func (*Not) expr()        {}
func (*FuncCall) expr()   {}

// Aggregates lists the aggregate function names.
var aggregates = map[string]bool{
	"count": true, "collect": true, "sum": true, "avg": true, "min": true, "max": true,
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncCall) IsAggregate() bool { return aggregates[f.Name] }

// HasAggregate reports whether the expression contains an aggregate call.
func HasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncCall:
		if x.IsAggregate() {
			return true
		}
		for _, a := range x.Args {
			if HasAggregate(a) {
				return true
			}
		}
	case *Binary:
		return HasAggregate(x.L) || HasAggregate(x.R)
	case *Not:
		return HasAggregate(x.E)
	}
	return false
}

// Vars collects the pattern variables referenced by the expression.
func Vars(e Expr, into map[string]bool) {
	switch x := e.(type) {
	case *PropAccess:
		into[x.Var] = true
	case *VarRef:
		into[x.Name] = true
	case *Binary:
		Vars(x.L, into)
		Vars(x.R, into)
	case *Not:
		Vars(x.E, into)
	case *FuncCall:
		for _, a := range x.Args {
			Vars(a, into)
		}
	}
}

// ---- rendering ----
//
// Rendering is the parser's inverse: Parse(q.String()) yields a query
// structurally equal to q (FuzzParse holds it to that), and a served
// query's "query" field is the rendering of what it executed.

// ident renders a label, type, key, variable or alias, backquoting any
// name the lexer would not read back as one identifier token.
func ident(s string) string {
	if s == "" {
		return "``"
	}
	plain := true
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9' && i > 0:
		default:
			plain = false
		}
	}
	if plain {
		return s
	}
	return "`" + s + "`"
}

// optIdent renders an optional name: "" means absent and renders as
// nothing.
func optIdent(s string) string {
	if s == "" {
		return ""
	}
	return ident(s)
}

// literal renders a value as Cypher text the lexer reads back as the
// same value, kind included: strings double-quoted with only the escapes
// lexString decodes (every other byte raw), DOUBLEs in plain decimal with
// a '.', never in exponent form and never as an integer. graph.Value's
// String is a display form and does neither.
func literal(v graph.Value) string {
	return string(appendLiteral(nil, v))
}

// appendLiteral appends literal(v) to b.
func appendLiteral(b []byte, v graph.Value) []byte {
	switch v.Kind() {
	case graph.KindString:
		b = append(b, '"')
		for i := 0; i < len(v.Str()); i++ {
			switch c := v.Str()[i]; c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, `\n`...)
			case '\t':
				b = append(b, `\t`...)
			default:
				b = append(b, c)
			}
		}
		return append(b, '"')
	case graph.KindFloat:
		f := v.Float()
		n := len(b)
		b = strconv.AppendFloat(b, f, 'f', -1, 64)
		if !math.IsInf(f, 0) && !math.IsNaN(f) && !bytes.Contains(b[n:], []byte{'.'}) {
			b = append(b, ".0"...)
		}
		return b
	case graph.KindInt:
		return strconv.AppendInt(b, v.Int(), 10)
	case graph.KindList:
		b = append(b, '[')
		for i, e := range v.List() {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendLiteral(b, e)
		}
		return append(b, ']')
	default:
		return append(b, v.String()...)
	}
}

func (p *PropAccess) String() string { return ident(p.Var) + "." + ident(p.Key) }
func (v *VarRef) String() string     { return ident(v.Name) }
func (l *Literal) String() string    { return literal(l.Val) }
func (p *Param) String() string      { return "$" + strconv.Itoa(p.Slot) }

// precedence ranks an expression by how loosely it binds, as the parser
// reads it: OR, then AND, then NOT, then one comparison between terms.
func precedence(e Expr) int {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case OpOr:
			return 1
		case OpAnd:
			return 2
		default:
			return 4
		}
	case *Not:
		return 3
	}
	return 5
}

// String parenthesizes an operand the parser would otherwise regroup:
// AND and OR associate left, so only a looser left operand or an equally
// loose right one needs parentheses; a comparison's operands are terms.
func (b *Binary) String() string {
	p := precedence(b)
	l, r := b.L.String(), b.R.String()
	if lp := precedence(b.L); lp < p || (lp == p && p == 4) {
		l = "(" + l + ")"
	}
	if precedence(b.R) <= p {
		r = "(" + r + ")"
	}
	return l + " " + b.Op.String() + " " + r
}

func (n *Not) String() string { return fmt.Sprintf("NOT (%s)", n.E) }

func (f *FuncCall) String() string {
	name := f.Name
	switch f.Name {
	case "count", "collect", "sum", "avg", "min", "max":
		name = strings.ToUpper(f.Name)
	}
	if f.Star {
		return name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return name + "(" + d + strings.Join(args, ", ") + ")"
}

func (n *NodePattern) String() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(optIdent(n.Var))
	for _, l := range n.Labels {
		b.WriteByte(':')
		b.WriteString(ident(l))
	}
	if len(n.Props) > 0 {
		// Sorted for deterministic rendering.
		keys := make([]string, 0, len(n.Props))
		for k := range n.Props {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b.WriteString(" {")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ident(k))
			b.WriteString(": ")
			b.WriteString(n.Props[k].String())
		}
		b.WriteByte('}')
	}
	b.WriteByte(')')
	return b.String()
}

func (r *RelPattern) String() string {
	body := "[" + optIdent(r.Var)
	if r.Type != "" {
		body += ":" + ident(r.Type)
	}
	body += "]"
	if r.Dir == DirOut {
		return "-" + body + "->"
	}
	return "<-" + body + "-"
}

func (p *PathPattern) String() string {
	var b strings.Builder
	if p.Var != "" {
		b.WriteString(ident(p.Var))
		b.WriteByte('=')
	}
	b.WriteString(p.Nodes[0].String())
	for i, r := range p.Rels {
		b.WriteString(r.String())
		b.WriteString(p.Nodes[i+1].String())
	}
	return b.String()
}

// String renders the query back to Cypher text; parsing the result yields
// an equivalent query.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("MATCH ")
	for i, p := range q.Patterns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	if q.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(q.Where.String())
	}
	b.WriteString(" RETURN ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, ri := range q.Return {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(ri.Expr.String())
		if ri.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(ident(ri.Alias))
		}
	}
	for i, s := range q.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(s.Expr.String())
		if s.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// Clone returns a deep copy of the query (the rewriter mutates its copy).
func (q *Query) Clone() *Query {
	c := &Query{Distinct: q.Distinct, Limit: q.Limit}
	for _, p := range q.Patterns {
		cp := &PathPattern{Var: p.Var}
		for _, n := range p.Nodes {
			cn := &NodePattern{Var: n.Var, Labels: append([]string(nil), n.Labels...)}
			if n.Props != nil {
				cn.Props = make(map[string]Expr, len(n.Props))
				for k, v := range n.Props {
					cn.Props[k] = CloneExpr(v)
				}
			}
			cp.Nodes = append(cp.Nodes, cn)
		}
		for _, r := range p.Rels {
			cr := *r
			cp.Rels = append(cp.Rels, &cr)
		}
		c.Patterns = append(c.Patterns, cp)
	}
	if q.Where != nil {
		c.Where = CloneExpr(q.Where)
	}
	for _, ri := range q.Return {
		c.Return = append(c.Return, &ReturnItem{Expr: CloneExpr(ri.Expr), Alias: ri.Alias})
	}
	for _, s := range q.OrderBy {
		c.OrderBy = append(c.OrderBy, &SortItem{Expr: CloneExpr(s.Expr), Desc: s.Desc})
	}
	return c
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *PropAccess:
		c := *x
		return &c
	case *VarRef:
		c := *x
		return &c
	case *Literal:
		c := *x
		return &c
	case *Param:
		c := *x
		return &c
	case *Binary:
		return &Binary{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *Not:
		return &Not{E: CloneExpr(x.E)}
	case *FuncCall:
		c := &FuncCall{Name: x.Name, Distinct: x.Distinct, Star: x.Star}
		for _, a := range x.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	default:
		panic(fmt.Sprintf("cypher: unknown expr %T", e))
	}
}
