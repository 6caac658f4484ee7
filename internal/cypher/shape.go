package cypher

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Shape is the plan cache's key pass: one walk over src's tokens, with
// the lexer Parse uses, that lifts the literals a plan only compares at
// run time out of the text. It returns
//
//   - key: src with each lifted literal replaced by a parameter slot $n,
//     everything else verbatim;
//   - args: the lifted values, args[n] being slot n's.
//
// Texts that differ only in lifted literals share a key, so a server
// compiles once per key instead of once per literal. Two kinds of
// literal lift: inline property constraint values ({k: 'v'}) and
// operands of WHERE comparisons (a.k = 'v'). Every other literal — a
// LIMIT, one in RETURN or ORDER BY, which name columns, a boolean or
// null — stays in the key.
//
// Literals with identical values (kind included) share one slot, and
// distinct ones never do: the rewriter merges two nodes' constraints
// only when their values are equal, and on a key it can tell only by
// slot. A number equal to another of the other kind (1 and 1.0) is the
// one case identity and equality part; such literals stay in the key.
// Nothing downstream specializes on a slot's kind, so the key does not
// carry it.
//
// Shape fails only where the lexer does, with the error Parse returns,
// and a client's '$' is one of those failures. A key it returns parses
// (ParseShape) exactly when src parses, and binding args into the key's
// tree gives Parse(src)'s tree; FuzzShape holds it to both.
func Shape(src string) (key string, args []graph.Value, err error) {
	var (
		litBuf  [8]lifted
		lits    = litBuf[:0]
		l       = lexer{src: src}
		prev    token
		pending bool // the last literal is in WHERE and waits to see whether a comparison follows it
		clause  = 0  // 0 MATCH, 1 WHERE, 2 RETURN and after
		depth   = 0  // open ( [ {
		braces  = 0  // open {
	)
	for {
		t, err := l.next()
		if err != nil {
			return "", nil, err
		}
		if pending && !t.isComparison() {
			lits = lits[:len(lits)-1]
		}
		pending = false
		if t.kind == tokEOF {
			break
		}
		switch t.kind {
		case tokPunct:
			switch t.text {
			case "(", "[":
				depth++
			case "{":
				depth++
				braces++
			case ")", "]":
				depth--
			case "}":
				depth--
				braces--
			}
		case tokIdent:
			// WHERE and RETURN start their clauses only at depth 0, and
			// there only a property key (after '.') can spell a keyword.
			if depth == 0 && !(prev.kind == tokPunct && prev.text == ".") {
				switch {
				case clause == 0 && strings.EqualFold(t.text, "where"):
					clause = 1
				case clause < 2 && strings.EqualFold(t.text, "return"):
					clause = 2
				}
			}
		case tokString, tokInt, tokFloat:
			// Inside braces a MATCH literal is a constraint value; a WHERE
			// literal is a comparison operand when a comparison precedes
			// or follows it.
			if clause == 2 || (clause == 0 && braces == 0) {
				break
			}
			v, err := literalValue(t)
			if err != nil {
				// Out of range: Parse rejects the text, and so does the
				// key, which keeps the literal.
				break
			}
			lits = append(lits, lifted{t.pos, t.end, v})
			pending = clause == 1 && !prev.isComparison()
		}
		prev = t
	}
	if len(lits) == 0 {
		return src, nil, nil
	}
	var b strings.Builder
	b.Grow(len(src) + 2*len(lits))
	last := -1
	for _, lit := range lits {
		if crossKindTwin(lit.val, lits) {
			continue
		}
		slot := -1
		for n, a := range args {
			if a.Kind() == lit.val.Kind() && a.Equal(lit.val) {
				slot = n
				break
			}
		}
		if slot < 0 {
			if args == nil {
				args = make([]graph.Value, 0, len(lits))
			}
			slot = len(args)
			args = append(args, lit.val)
		}
		b.WriteString(src[max(last, 0):lit.pos])
		b.WriteByte('$')
		b.WriteString(strconv.Itoa(slot))
		if lit.end < len(src) && src[lit.end] >= '0' && src[lit.end] <= '9' {
			b.WriteByte(' ') // keep a following number out of the slot's digits
		}
		last = lit.end
	}
	if last < 0 {
		return src, nil, nil // every literal had a twin of the other kind
	}
	b.WriteString(src[last:])
	return b.String(), args, nil
}

// lifted is a literal Shape lifts: its byte span in the text and its
// value.
type lifted struct {
	pos, end int
	val      graph.Value
}

// crossKindTwin reports whether one of lits is a number of the other
// kind that v equals (INT 1 and DOUBLE 1.0).
func crossKindTwin(v graph.Value, lits []lifted) bool {
	if v.Kind() != graph.KindInt && v.Kind() != graph.KindFloat {
		return false
	}
	for _, o := range lits {
		if o.val.Kind() != v.Kind() && o.val.Equal(v) {
			return true
		}
	}
	return false
}

// literalValue decodes a string or number token.
func literalValue(t token) (graph.Value, error) {
	switch t.kind {
	case tokString:
		return graph.S(t.text), nil
	case tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		return graph.I(n), err
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		return graph.F(f), err
	}
	return graph.Null, fmt.Errorf("expected literal, found %s", t)
}

// ParseShape parses a key Shape returned for src into a tree whose
// lifted literals are *Param slots. It fails exactly when Parse(src)
// does, with Parse's error.
func ParseShape(key, src string) (*Query, error) {
	q, err := parse(key, true)
	if err != nil {
		if _, perr := Parse(src); perr != nil {
			return nil, perr
		}
		return nil, err
	}
	return q, nil
}

// Template is a query's rendering with its parameter slots left open:
// Render splices values in, each rendered as its literal, and returns
// what String would return for the query with those values in the
// slots. A plan cache keeps one per compiled shape so that a hit renders
// the executed text without a tree.
type Template struct {
	parts []string // text around the slots: len(slots)+1 pieces
	slots []int
}

// NewTemplate renders q and finds its slots in the rendering.
func NewTemplate(q *Query) Template {
	text := q.String()
	l := lexer{src: text, params: true}
	var t Template
	last := 0
	for {
		tok, err := l.next()
		if err != nil || tok.kind == tokEOF {
			break
		}
		if tok.kind != tokParam {
			continue
		}
		n, err := strconv.Atoi(tok.text)
		if err != nil {
			continue
		}
		t.parts = append(t.parts, text[last:tok.pos])
		t.slots = append(t.slots, n)
		last = tok.end
	}
	t.parts = append(t.parts, text[last:])
	return t
}

// Render returns the template's text with args[n] in slot n.
func (t Template) Render(args []graph.Value) string {
	if len(t.slots) == 0 {
		return t.parts[0]
	}
	n := 0
	for _, p := range t.parts {
		n += len(p)
	}
	var b strings.Builder
	b.Grow(n + 24*len(t.slots))
	var scratch [64]byte
	for i, slot := range t.slots {
		b.WriteString(t.parts[i])
		b.Write(appendLiteral(scratch[:0], args[slot]))
	}
	b.WriteString(t.parts[len(t.slots)])
	return b.String()
}
