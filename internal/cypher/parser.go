package cypher

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
)

var reserved = map[string]bool{
	"match": true, "where": true, "return": true, "order": true, "by": true,
	"limit": true, "and": true, "or": true, "not": true, "as": true,
	"asc": true, "desc": true, "distinct": true, "true": true, "false": true,
	"null": true,
}

// Parse parses a Cypher query in the supported fragment.
func Parse(src string) (*Query, error) {
	return parse(src, false)
}

// parse parses src; params admits the $n parameter slots of a shape key.
func parse(src string, params bool) (*Query, error) {
	toks, err := lex(src, params)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("cypher: %w (in %q)", err, src)
	}
	return q, nil
}

// MustParse parses or panics; for tests and static query tables.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	i    int
	// inWhere is set while the WHERE clause is parsed: the only
	// expressions a parameter slot may stand in.
	inWhere bool
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }
func (p *parser) advance()    { p.i++ }

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) isKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("expected %s, found %s", strings.ToUpper(kw), p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	if err := p.expectKeyword("match"); err != nil {
		return nil, err
	}
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		q.Patterns = append(q.Patterns, pat)
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("where") {
		p.inWhere = true
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.inWhere = false
		q.Where = e
	}
	if err := p.expectKeyword("return"); err != nil {
		return nil, err
	}
	q.Distinct = p.acceptKeyword("distinct")
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := &ReturnItem{Expr: e}
		if p.acceptKeyword("as") {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			item.Alias = alias
		}
		q.Return = append(q.Return, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s := &SortItem{Expr: e}
			if p.acceptKeyword("desc") {
				s.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			q.OrderBy = append(q.OrderBy, s)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("limit") {
		t := p.cur()
		if t.kind != tokInt {
			return nil, fmt.Errorf("expected integer after LIMIT, found %s", t)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, err
		}
		p.advance()
		q.Limit = n
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("unexpected trailing input %s", p.cur())
	}
	return q, nil
}

func (p *parser) parsePattern() (*PathPattern, error) {
	pat := &PathPattern{}
	// Optional path variable: `p=(...)`.
	if p.cur().kind == tokIdent && !reserved[strings.ToLower(p.cur().text)] &&
		p.peek().kind == tokPunct && p.peek().text == "=" {
		pat.Var = p.cur().text
		p.advance()
		p.advance()
	}
	n, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	pat.Nodes = append(pat.Nodes, n)
	for p.isPunct("-") || p.isPunct("<") {
		r, err := p.parseRel()
		if err != nil {
			return nil, err
		}
		n, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		pat.Rels = append(pat.Rels, r)
		pat.Nodes = append(pat.Nodes, n)
	}
	return pat, nil
}

func (p *parser) parseNode() (*NodePattern, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	n := &NodePattern{}
	if p.cur().kind == tokIdent {
		n.Var = p.cur().text
		p.advance()
	}
	for p.acceptPunct(":") {
		label, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		n.Labels = append(n.Labels, label)
	}
	if p.acceptPunct("{") {
		n.Props = map[string]Expr{}
		for {
			key, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			if p.cur().kind == tokParam {
				prm, err := p.parseParam()
				if err != nil {
					return nil, err
				}
				n.Props[key] = prm
			} else {
				val, err := p.parseLiteralValue()
				if err != nil {
					return nil, err
				}
				n.Props[key] = &Literal{Val: val}
			}
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return n, nil
}

func (p *parser) parseRel() (*RelPattern, error) {
	r := &RelPattern{}
	incoming := p.acceptPunct("<")
	if err := p.expectPunct("-"); err != nil {
		return nil, err
	}
	if p.acceptPunct("[") {
		if p.cur().kind == tokIdent && !p.isPunct(":") {
			r.Var = p.cur().text
			p.advance()
		}
		if p.acceptPunct(":") {
			typ, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			r.Type = typ
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("-"); err != nil {
		return nil, err
	}
	if incoming {
		r.Dir = DirIn
		return r, nil
	}
	if err := p.expectPunct(">"); err != nil {
		return nil, fmt.Errorf("undirected relationships are not supported: %w", err)
	}
	r.Dir = DirOut
	return r, nil
}

func (p *parser) parseLiteralValue() (graph.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokString, tokInt, tokFloat:
		v, err := literalValue(t)
		if err != nil {
			return graph.Null, err
		}
		p.advance()
		return v, nil
	case tokIdent:
		switch strings.ToLower(t.text) {
		case "true":
			p.advance()
			return graph.B(true), nil
		case "false":
			p.advance()
			return graph.B(false), nil
		case "null":
			p.advance()
			return graph.Null, nil
		}
	}
	return graph.Null, fmt.Errorf("expected literal, found %s", t)
}

// parseParam reads a $n parameter slot.
func (p *parser) parseParam() (*Param, error) {
	t := p.cur()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return nil, fmt.Errorf("bad parameter slot %s: %w", t, err)
	}
	p.advance()
	return &Param{Slot: n}, nil
}

// ---- expressions ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	var op BinaryOp
	switch {
	case p.cur().kind == tokNe:
		op = OpNe
	case p.cur().kind == tokLe:
		op = OpLe
	case p.cur().kind == tokGe:
		op = OpGe
	case p.isPunct("="):
		op = OpEq
	case p.isPunct("<"):
		op = OpLt
	case p.isPunct(">"):
		op = OpGt
	default:
		return l, nil
	}
	p.advance()
	r, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return &Binary{Op: op, L: l, R: r}, nil
}

func (p *parser) parseTerm() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokString, tokInt, tokFloat:
		v, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		return &Literal{Val: v}, nil
	case tokParam:
		if p.inWhere {
			return p.parseParam()
		}
	case tokPunct:
		if p.acceptPunct("(") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		low := strings.ToLower(t.text)
		switch low {
		case "true", "false", "null":
			v, _ := p.parseLiteralValue()
			return &Literal{Val: v}, nil
		}
		if reserved[low] {
			return nil, fmt.Errorf("unexpected keyword %s", t)
		}
		// Function call?
		if p.peek().kind == tokPunct && p.peek().text == "(" {
			return p.parseFuncCall()
		}
		name := t.text
		p.advance()
		if p.acceptPunct(".") {
			key, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &PropAccess{Var: name, Key: key}, nil
		}
		return &VarRef{Name: name}, nil
	}
	return nil, fmt.Errorf("expected expression, found %s", t)
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := strings.ToLower(p.cur().text)
	p.advance() // name
	p.advance() // (
	f := &FuncCall{Name: name}
	if p.acceptPunct("*") {
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if name != "count" {
			return nil, fmt.Errorf("%s(*) is not supported", name)
		}
		f.Star = true
		return f, nil
	}
	f.Distinct = p.acceptKeyword("distinct")
	if !p.isPunct(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, a)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if !f.IsAggregate() && f.Name != "size" {
		return nil, fmt.Errorf("unknown function %s", name)
	}
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("%s expects exactly one argument", name)
	}
	return f, nil
}
