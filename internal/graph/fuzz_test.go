package graph

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins the 24-byte layout and that == on Values does not
// compile (a Value type that is not comparable).
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", n)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable; == would compare a string's or list's address")
	}
	for _, v := range []Value{S(""), L(), L([]Value{}...), Null, I(0)} {
		if v.ptr != nil {
			t.Errorf("%v: empty value holds a pointer", v)
		}
	}
}

// identical reports whether a and b are the same value: one kind, the same
// num bits, the same string bytes, lists identical element by element.
// Unlike Equal, INT 1 is not DOUBLE 1.0 and -0.0 is not 0.0.
func identical(a, b Value) bool {
	if a.kind != b.kind || a.num != b.num {
		return false
	}
	switch a.kind {
	case KindString:
		return a.Str() == b.Str()
	case KindList:
		bl := b.List()
		for i, e := range a.List() {
			if !identical(e, bl[i]) {
				return false
			}
		}
	}
	return true
}

// keyAlike reports whether a and b must have one key: they are Equal, with
// every NaN taken as one value (all render as "NaN").
func keyAlike(a, b Value) bool {
	if a.kind == KindFloat && b.kind == KindFloat && math.IsNaN(a.Float()) && math.IsNaN(b.Float()) {
		return true
	}
	if a.kind != KindList || b.kind != KindList {
		return a.Equal(b)
	}
	if a.num != b.num {
		return false
	}
	bl := b.List()
	for i, e := range a.List() {
		if !keyAlike(e, bl[i]) {
			return false
		}
	}
	return true
}

// keysAgree: two values have equal keys exactly when they are Equal, NaNs
// taken as one.
func keysAgree(t *testing.T, a, b Value) {
	t.Helper()
	if same := keyAlike(a, b); (a.Key() == b.Key()) != same {
		t.Fatalf("%v and %v: keys %q and %q, alike %v", a, b, a.Key(), b.Key(), same)
	}
}

// FuzzValue round-trips S, L, I, F and B through every accessor, Equal,
// Compare and AppendKey, and checks that keys tell values apart exactly
// where Equal does — across INT and DOUBLE, and in lists whose elements
// would run together.
func FuzzValue(f *testing.F) {
	f.Add("a\x1fsx", "y", int64(1), int64(-1), 1.0, math.Copysign(0, -1), true)
	f.Add("a,sb", "", int64(0), int64(1<<62), math.NaN(), math.Inf(1), false)
	f.Add("", "", int64(-5), int64(-5), 2.5, 2.5, true)
	f.Add("a,sb", "a|b", int64(7), int64(7), 1e6, 1.0, false)
	f.Fuzz(func(t *testing.T, s1, s2 string, i1, i2 int64, f1, f2 float64, b bool) {
		str := S(s1)
		if str.Kind() != KindString || str.Str() != s1 || str.IsNull() ||
			str.Len() != 0 || str.List() != nil || str.Int() != 0 || str.Float() != 0 || str.Bool() {
			t.Fatalf("S(%q) reads back wrong: %v", s1, str)
		}
		in := I(i1)
		if in.Kind() != KindInt || in.Int() != i1 || in.Float() != float64(i1) || in.Str() != "" || in.Len() != 0 || in.List() != nil {
			t.Fatalf("I(%d) reads back wrong: %v", i1, in)
		}
		if n, ok := in.AsInt(); !ok || n != i1 {
			t.Fatalf("I(%d).AsInt() = %d, %v", i1, n, ok)
		}
		fl := F(f1)
		if fl.Kind() != KindFloat || FloatBits(fl.Float()) != math.Float64bits(f1) || fl.Int() != 0 || fl.Str() != "" {
			t.Fatalf("F(%v) reads back wrong: %v", f1, fl)
		}
		bo := B(b)
		if bo.Kind() != KindBool || bo.Bool() != b || bo.Int() != 0 || bo.Str() != "" {
			t.Fatalf("B(%v) reads back wrong: %v", b, bo)
		}
		elems := []Value{S(s1), I(i1), F(f1), B(b), L(S(s2)), Null}
		list := L(elems...)
		if list.Kind() != KindList || list.Len() != len(elems) || list.Str() != "" || list.Int() != 0 {
			t.Fatalf("L reads back wrong: %v", list)
		}
		for i, e := range list.List() {
			if !identical(e, elems[i]) {
				t.Fatalf("L element %d: %v, want %v", i, e, elems[i])
			}
		}

		// A copy built from other memory is identical, Equal (NaN aside)
		// and keys the same; Compare agrees with the payloads.
		copies := []Value{S(strings.Clone(s1)), I(i1), F(f1), B(b),
			L(S(strings.Clone(s1)), I(i1), F(f1), B(b), L(S(strings.Clone(s2))), Null)}
		for i, v := range []Value{str, in, fl, bo, list} {
			c := copies[i]
			if !identical(v, c) || v.Key() != c.Key() || string(v.AppendKey([]byte("x"))) != "x"+v.Key() {
				t.Fatalf("%v: copy %v is not the same value or key", v, c)
			}
			if !math.IsNaN(f1) && !v.Equal(c) {
				t.Fatalf("%v does not Equal its copy", v)
			}
		}
		if cmp, ok := S(s1).Compare(S(s2)); !ok || cmp != strings.Compare(s1, s2) {
			t.Fatalf("Compare(%q, %q) = %d, %v", s1, s2, cmp, ok)
		}
		if cmp, ok := I(i1).Compare(I(i2)); !ok || (cmp < 0) != (float64(i1) < float64(i2)) {
			t.Fatalf("Compare(%d, %d) = %d, %v", i1, i2, cmp, ok)
		}
		if S(s1).Equal(S(s2)) != (s1 == s2) || I(i1).Equal(I(i2)) != (i1 == i2) {
			t.Fatalf("Equal disagrees with the payloads")
		}

		// Keys within a kind and across the numeric kinds.
		keysAgree(t, S(s1), S(s2))
		keysAgree(t, I(i1), I(i2))
		keysAgree(t, F(f1), F(f2))
		keysAgree(t, I(i1), F(f1))
		keysAgree(t, I(i1), F(float64(i1)))
		keysAgree(t, L(I(i1), S(s1)), L(F(f1), S(s1)))
		keysAgree(t, B(b), B(!b))
		keysAgree(t, L(S(s1), S(s2)), L(S(s1+s2)))
		keysAgree(t, L(S(s1), S(s2)), L(S(s2), S(s1)))
		keysAgree(t, L(S(s1), I(i1)), L(S(s1), I(i2)))
		keysAgree(t, L(L(S(s1)), S(s2)), L(L(S(s1), S(s2))))
		keysAgree(t, L(F(f1), F(f2)), L(F(f2), F(f1)))
		split := func(s string) Value { // "x|y" is the list ["x", "y"]
			var vs []Value
			for _, p := range strings.Split(s, "|") {
				vs = append(vs, S(p))
			}
			return L(vs...)
		}
		keysAgree(t, split(s1), split(s2))
	})
}
