package server

import (
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/graph"
	"repro/internal/query"
)

// encoder is a reusable JSON output buffer. The /query hot path rents one
// from encPool, appends the whole response body into enc.buf with the
// append* helpers below (no reflection, no intermediate allocations), and
// returns it — so steady-state request encoding is allocation-flat. It is
// also the request's query.Sink: the executor lends it each result row
// and AddRow encodes the row in place and keeps nothing of it, so the
// serving path never holds a result set, only its JSON.
type encoder struct {
	buf  []byte
	rows int // rows encoded so far
}

// maxPooledEncoder caps the buffer size returned to the pool; a one-off
// huge result should not pin megabytes inside it forever.
const maxPooledEncoder = 1 << 20

var encPool = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, 4096)} }}

func getEncoder() *encoder {
	e := encPool.Get().(*encoder)
	e.buf, e.rows = e.buf[:0], 0
	return e
}

func putEncoder(e *encoder) {
	if cap(e.buf) <= maxPooledEncoder {
		encPool.Put(e)
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, and control characters. Invalid UTF-8 bytes are replaced
// so the output is always valid JSON. Bytes that need no escaping are
// found eight at a time (escapeMask) and copied one run per append; the
// byte that ends a run takes the per-byte branch.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	run := 0 // s[run:i] needs no escaping and is not yet appended
	for i := 0; i < len(s); {
		if i+8 <= len(s) {
			m := escapeMask(load64(s[i:]))
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) >> 3
		}
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		}
		dst = append(dst, s[run:i]...)
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default: // an invalid UTF-8 byte
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		}
		i++
		run = i
	}
	dst = append(dst, s[run:]...)
	return append(dst, '"')
}

const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// escapeMask flags the bytes of the little-endian word w that a JSON
// string cannot carry as they are: < 0x20, '"', '\\' or >= 0x80 (the start
// of a rune that must be checked). It is zero exactly when no byte is
// flagged. Its lowest set bit is the top bit of the first flagged byte: a
// subtraction borrows only out of a flagged byte, so no flag lands below
// the first one (flags above it may be spurious).
func escapeMask(w uint64) uint64 {
	return ((w - lsbs*0x20) | ((w ^ lsbs*'"') - lsbs) | ((w ^ lsbs*'\\') - lsbs) | w) & msbs
}

// load64 reads s[0:8] as a little-endian word; the compiler fuses the
// byte loads into one.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// appendJSONValue appends a graph.Value as its natural JSON form: NULL →
// null, STRING → string, INT/DOUBLE → number (non-finite doubles → null,
// which JSON cannot represent), BOOLEAN → bool, LIST → array.
func appendJSONValue(dst []byte, v graph.Value) []byte {
	switch v.Kind() {
	case graph.KindString:
		return appendJSONString(dst, v.Str())
	case graph.KindInt:
		return strconv.AppendInt(dst, v.Int(), 10)
	case graph.KindFloat:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return append(dst, "null"...)
		}
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	case graph.KindBool:
		return strconv.AppendBool(dst, v.Bool())
	case graph.KindList:
		dst = append(dst, '[')
		for i, e := range v.List() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONValue(dst, e)
		}
		return append(dst, ']')
	default:
		return append(dst, "null"...)
	}
}

// The POST /query success body is written in three parts around the
// execution: the head before it, one AddRow per result row during it, the
// tail — work counters and elapsed time, known only afterwards — once it
// has succeeded. Field order is query, request_id, columns, rows, stats,
// elapsed_us[, profile].

func appendQueryResponseHead(dst []byte, executed, rid string, columns []string) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendJSONString(dst, executed)
	dst = append(dst, `,"request_id":`...)
	dst = appendJSONString(dst, rid)
	dst = append(dst, `,"columns":[`...)
	for i, c := range columns {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, c)
	}
	return append(dst, `],"rows":[`...)
}

// AddRow implements query.Sink. The row is encoded and dropped.
func (e *encoder) AddRow(row []graph.Value) error {
	if e.rows > 0 {
		e.buf = append(e.buf, ',')
	}
	e.rows++
	e.buf = append(e.buf, '[')
	for j, v := range row {
		if j > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendJSONValue(e.buf, v)
	}
	e.buf = append(e.buf, ']')
	return nil
}

// appendQueryResponseTail closes the body. profileJSON, when non-nil, is
// a pre-marshaled profile object appended verbatim as the "profile" field
// (the PROFILE cold path).
func appendQueryResponseTail(dst []byte, st *query.Stats, elapsedUS int64, profileJSON []byte) []byte {
	dst = append(dst, `],"stats":{"vertices_scanned":`...)
	dst = strconv.AppendInt(dst, st.VerticesScanned, 10)
	dst = append(dst, `,"edges_traversed":`...)
	dst = strconv.AppendInt(dst, st.EdgesTraversed, 10)
	dst = append(dst, `,"props_read":`...)
	dst = strconv.AppendInt(dst, st.PropsRead, 10)
	dst = append(dst, `,"rows_emitted":`...)
	dst = strconv.AppendInt(dst, st.RowsEmitted, 10)
	dst = append(dst, `},"elapsed_us":`...)
	dst = strconv.AppendInt(dst, elapsedUS, 10)
	if profileJSON != nil {
		dst = append(dst, `,"profile":`...)
		dst = append(dst, profileJSON...)
	}
	return append(dst, '}')
}
