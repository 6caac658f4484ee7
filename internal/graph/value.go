// Package graph defines the property value model shared by all graph
// storage backends and the query engine: dynamically typed scalar values
// plus LIST values (the replicated properties introduced by the paper's
// 1:M and M:N rules).
package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates value kinds.
type Kind uint8

// Value kinds. KindNull is the zero Value.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindList
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindString:
		return "STRING"
	case KindInt:
		return "INT"
	case KindFloat:
		return "DOUBLE"
	case KindBool:
		return "BOOLEAN"
	case KindList:
		return "LIST"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed property value. The zero Value is NULL.
// Values are immutable once constructed.
//
// A Value is 24 bytes: a STRING or LIST keeps its bytes or elements behind
// ptr and its length in num, and every other kind keeps its payload in
// num. A zero length stores a nil ptr, so no Value holds a pointer past
// the end of an allocation. The zero-size func field makes == a compile
// error (it would compare ptr by address); it comes first because a
// zero-size last field pads the struct.
type Value struct {
	_    [0]func()
	ptr  unsafe.Pointer // STRING bytes or first LIST element; nil when num is 0
	num  uint64         // int64 bits, float64 bits, bool, or STRING/LIST length
	kind Kind
}

// Null is the NULL value.
var Null = Value{}

// S returns a STRING value.
func S(s string) Value {
	if len(s) == 0 {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, ptr: unsafe.Pointer(unsafe.StringData(s)), num: uint64(len(s))}
}

// I returns an INT value.
func I(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// F returns a DOUBLE value.
func F(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// B returns a BOOLEAN value.
func B(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// L returns a LIST value wrapping vs (not copied).
func L(vs ...Value) Value {
	if len(vs) == 0 {
		return Value{kind: KindList}
	}
	return Value{kind: KindList, ptr: unsafe.Pointer(unsafe.SliceData(vs)), num: uint64(len(vs))}
}

// FBits constructs a DOUBLE value from IEEE-754 bits; used by storage
// backends that persist floats as raw bits.
func FBits(b uint64) Value { return Value{kind: KindFloat, num: b} }

// FloatBits returns the IEEE-754 bits of a float, the inverse of FBits.
func FloatBits(f float64) uint64 { return math.Float64bits(f) }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload (empty unless KindString).
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), int(v.num))
}

// Int returns the integer payload (0 unless KindInt).
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.num)
}

// Float returns the float payload; INT values are widened.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.num)
	case KindInt:
		return float64(int64(v.num))
	default:
		return 0
	}
}

// Bool returns the boolean payload (false unless KindBool).
func (v Value) Bool() bool { return v.kind == KindBool && v.num == 1 }

// List returns the list payload (nil unless KindList or when empty). Its
// capacity is its length, so an append to it copies.
func (v Value) List() []Value {
	if v.kind != KindList {
		return nil
	}
	return unsafe.Slice((*Value)(v.ptr), int(v.num))
}

// Len returns the list length, or 0 for non-lists.
func (v Value) Len() int {
	if v.kind != KindList {
		return 0
	}
	return int(v.num)
}

// AsInt returns the integer a numeric value equals exactly: an INT's
// payload, or a DOUBLE with no fractional part inside int64's range
// (-0.0 included, as 0). Other values report false.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return int64(v.num), true
	case KindFloat:
		f := v.Float()
		// 2^63 is exactly representable; the range test also rejects NaN.
		if f >= -(1<<63) && f < 1<<63 && f == math.Trunc(f) {
			return int64(f), true
		}
	}
	return 0, false
}

// Equal reports deep equality. INT and DOUBLE compare by exact numeric
// value: INT 1 equals DOUBLE 1.0 and -0.0 equals 0.0, but an INT never
// equals a DOUBLE it merely rounds to, and NaN equals nothing, itself
// included. Numbers are Equal exactly when AsInt gives both the same
// integer or neither an integer and their DOUBLEs compare ==, so Equal is
// an equivalence on every value free of NaN — what a value index keys on.
func (v Value) Equal(o Value) bool {
	if isNumeric(v.kind) && isNumeric(o.kind) {
		a, aInt := v.AsInt()
		b, bInt := o.AsInt()
		if aInt || bInt {
			return aInt && bInt && a == b
		}
		return v.Float() == o.Float()
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.Str() == o.Str()
	case KindList:
		if v.num != o.num {
			return false
		}
		ol := o.List()
		for i, e := range v.List() {
			if !e.Equal(ol[i]) {
				return false
			}
		}
		return true
	default:
		return v.num == o.num
	}
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

// Compare orders two values; ok is false when the kinds are not mutually
// comparable (e.g. list vs int, or anything vs NULL).
func (v Value) Compare(o Value) (cmp int, ok bool) {
	if isNumeric(v.kind) && isNumeric(o.kind) {
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind == KindString && o.kind == KindString {
		return strings.Compare(v.Str(), o.Str()), true
	}
	if v.kind == KindBool && o.kind == KindBool {
		a, b := v.Bool(), o.Bool()
		switch {
		case a == b:
			return 0, true
		case !a:
			return -1, true
		default:
			return 1, true
		}
	}
	return 0, false
}

// String renders the value in Cypher literal style.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return strconv.Quote(v.Str())
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool())
	case KindList:
		parts := make([]string, v.num)
		for i, e := range v.List() {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return "?"
	}
}

// Key returns a canonical string usable as a grouping/map key: two values
// have one key exactly when they are Equal, except that every NaN keys
// alike.
func (v Value) Key() string { return string(v.AppendKey(nil)) }

// AppendKey appends the canonical key of v to dst and returns the extended
// slice, so hot paths (grouping, DISTINCT, row comparison) can build
// composite keys into one reusable buffer instead of concatenating
// strings. The encoding is identical to Key(). A number is keyed by the
// integer AsInt gives when there is one and by its DOUBLE otherwise, the
// identity Equal uses: INT 1 and DOUBLE 1.0 group and DISTINCT as one
// value, as they compare under =. Every key is self-delimiting: a STRING
// or LIST carries its length as a uvarint, and no kind tag continues the
// text of an INT, DOUBLE or BOOLEAN (no tag is a digit, '.', 'e', '+' or
// '-', and "true", "false", "NaN" and "Inf" are whole words). So a
// concatenation of keys (a row, a list's elements) is produced only by
// sequences of values that key alike one by one.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0)
	case KindString:
		dst = append(dst, 's')
		dst = binary.AppendUvarint(dst, v.num)
		return append(dst, v.Str()...)
	case KindInt, KindFloat:
		if n, ok := v.AsInt(); ok {
			dst = append(dst, 'i')
			return strconv.AppendInt(dst, n, 10)
		}
		dst = append(dst, 'f')
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case KindBool:
		dst = append(dst, 'b')
		return strconv.AppendBool(dst, v.Bool())
	case KindList:
		dst = append(dst, 'l')
		dst = binary.AppendUvarint(dst, v.num)
		for _, e := range v.List() {
			dst = e.AppendKey(dst)
		}
		return dst
	default:
		return append(dst, '?')
	}
}
