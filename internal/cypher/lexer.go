package cypher

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokInt
	tokFloat
	tokPunct // single punctuation: ( ) [ ] { } : , . - < > = +
	tokNe    // <>
	tokLe    // <=
	tokGe    // >=
	tokParam // $n: a parameter slot, read only from a shape key (see shape.go)
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset of the token's first byte
	end  int // byte offset just past its last byte
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// isComparison reports whether the token is a comparison operator.
func (t token) isComparison() bool {
	switch t.kind {
	case tokNe, tokLe, tokGe:
		return true
	case tokPunct:
		return t.text == "=" || t.text == "<" || t.text == ">"
	}
	return false
}

// lexer splits Cypher text into tokens, one per next call. Identifiers
// may be backquoted to include arbitrary characters (used for replicated
// list properties such as `Indication.desc`). A '$' is an error unless
// params is set, which only the shape key's parser sets: client text
// never names a parameter.
type lexer struct {
	src    string
	pos    int
	params bool
}

func lex(src string, params bool) ([]token, error) {
	l := &lexer{src: src, params: params}
	toks := make([]token, 0, len(src)/4+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// next returns the next token; at the end of the input it returns tokEOF
// (and keeps returning it).
func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos, end: l.pos}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '`':
		return l.lexBackquoted()
	case c == '\'' || c == '"':
		return l.lexString(c)
	case byteClass[c]&classIdentStart != 0:
		return l.lexIdent(), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(), nil
	case c == '$' && l.params && l.peek(1) >= '0' && l.peek(1) <= '9':
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		return token{kind: tokParam, text: l.src[start+1 : l.pos], pos: start, end: l.pos}, nil
	case c == '<':
		if l.peek(1) == '>' {
			return l.pair(tokNe), nil
		} else if l.peek(1) == '=' {
			return l.pair(tokLe), nil
		}
		return l.punct(), nil
	case c == '>':
		if l.peek(1) == '=' {
			return l.pair(tokGe), nil
		}
		return l.punct(), nil
	case strings.IndexByte("()[]{}:,.-=+*", c) >= 0:
		return l.punct(), nil
	default:
		return token{}, fmt.Errorf("cypher: unexpected character %q at position %d", c, l.pos)
	}
}

func (l *lexer) peek(ahead int) byte {
	if l.pos+ahead < len(l.src) {
		return l.src[l.pos+ahead]
	}
	return 0
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && byteClass[l.src[l.pos]]&classSpace != 0 {
		l.pos++
	}
}

func (l *lexer) punct() token {
	t := token{kind: tokPunct, text: l.src[l.pos : l.pos+1], pos: l.pos, end: l.pos + 1}
	l.pos++
	return t
}

// pair lexes a two-byte operator.
func (l *lexer) pair(kind tokenKind) token {
	t := token{kind: kind, text: l.src[l.pos : l.pos+2], pos: l.pos, end: l.pos + 2}
	l.pos += 2
	return t
}

// The lexer classifies text byte by byte, each byte read as the rune of
// the same value (so 0xA0 is a space and 0xE9 a letter); byteClass holds
// the classes of all 256.
const (
	classSpace = 1 << iota
	classIdentStart
	classIdentPart
)

var byteClass = func() (c [256]uint8) {
	for i := range c {
		r := rune(i)
		if unicode.IsSpace(r) {
			c[i] |= classSpace
		}
		if r == '_' || unicode.IsLetter(r) {
			c[i] |= classIdentStart | classIdentPart
		}
		if unicode.IsDigit(r) {
			c[i] |= classIdentPart
		}
	}
	return c
}()

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) && byteClass[l.src[l.pos]]&classIdentPart != 0 {
		l.pos++
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start, end: l.pos}
}

func (l *lexer) lexBackquoted() (token, error) {
	start := l.pos
	l.pos++ // opening backquote
	for l.pos < len(l.src) && l.src[l.pos] != '`' {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{}, fmt.Errorf("cypher: unterminated backquoted identifier at position %d", start)
	}
	l.pos++ // closing backquote
	return token{kind: tokIdent, text: l.src[start+1 : l.pos-1], pos: start, end: l.pos}, nil
}

// lexString reads a quoted string. A string without escapes is a slice
// of the source; only one with a backslash is decoded into a new string.
func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	i := start + 1
	for i < len(l.src) && l.src[i] != quote && l.src[i] != '\\' {
		i++
	}
	if i < len(l.src) && l.src[i] == quote {
		l.pos = i + 1
		return token{kind: tokString, text: l.src[start+1 : i], pos: start, end: l.pos}, nil
	}
	var b strings.Builder
	b.WriteString(l.src[start+1 : i])
	l.pos = i
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			switch next := l.src[l.pos+1]; next {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(next)
			}
			l.pos += 2
			continue
		}
		if c == quote {
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start, end: l.pos}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, fmt.Errorf("cypher: unterminated string at position %d", start)
}

func (l *lexer) lexNumber() token {
	start := l.pos
	kind := tokInt
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		kind = tokFloat
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	return token{kind: kind, text: l.src[start:l.pos], pos: start, end: l.pos}
}
