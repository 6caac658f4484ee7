package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := S("x"); v.Kind() != KindString || v.Str() != "x" {
		t.Errorf("S: %v", v)
	}
	if v := I(-7); v.Kind() != KindInt || v.Int() != -7 {
		t.Errorf("I: %v", v)
	}
	if v := F(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Errorf("F: %v", v)
	}
	if v := B(true); v.Kind() != KindBool || !v.Bool() {
		t.Errorf("B: %v", v)
	}
	if v := L(I(1), I(2)); v.Kind() != KindList || v.Len() != 2 {
		t.Errorf("L: %v", v)
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Errorf("Null: %v", Null)
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value is not NULL")
	}
}

func TestCrossKindAccessorsAreZero(t *testing.T) {
	if S("x").Int() != 0 || S("x").Float() != 0 || S("x").Bool() {
		t.Error("string value leaks through numeric accessors")
	}
	if I(3).Str() != "" || I(3).Bool() {
		t.Error("int value leaks through other accessors")
	}
	if I(3).Float() != 3 {
		t.Error("Int should widen to Float")
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{S("a"), S("a"), true},
		{S("a"), S("b"), false},
		{I(1), I(1), true},
		{I(1), F(1), true}, // numeric widening
		{I(1), F(1.5), false},
		{B(true), B(true), true},
		{B(true), I(1), false},
		{Null, Null, true},
		{Null, I(0), false},
		{L(I(1), S("x")), L(I(1), S("x")), true},
		{L(I(1)), L(I(1), I(2)), false},
		{L(I(1)), I(1), false},
		// Numbers compare by exact value: -0.0 is 0, NaN matches nothing,
		// and an INT beyond 2^53 is not the DOUBLE it rounds to.
		{F(math.Copysign(0, -1)), F(0), true},
		{F(math.Copysign(0, -1)), I(0), true},
		{F(math.NaN()), F(math.NaN()), false},
		{I(1<<53 + 1), F(1 << 53), false},
		{I(1 << 53), F(1 << 53), true},
		{F(math.Inf(1)), F(math.Inf(1)), true},
		{L(I(1), F(2.5)), L(F(1), F(2.5)), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	if cmp, ok := I(1).Compare(F(2)); !ok || cmp != -1 {
		t.Errorf("I(1) vs F(2): %d %v", cmp, ok)
	}
	if cmp, ok := S("b").Compare(S("a")); !ok || cmp != 1 {
		t.Errorf("strings: %d %v", cmp, ok)
	}
	if cmp, ok := B(false).Compare(B(true)); !ok || cmp != -1 {
		t.Errorf("bools: %d %v", cmp, ok)
	}
	if _, ok := S("a").Compare(I(1)); ok {
		t.Error("string vs int should not compare")
	}
	if _, ok := Null.Compare(Null); ok {
		t.Error("NULL should not compare")
	}
	if _, ok := L(I(1)).Compare(L(I(1))); ok {
		t.Error("lists should not compare")
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[string]Value{
		`"hi"`:      S("hi"),
		"42":        I(42),
		"true":      B(true),
		"null":      Null,
		`[1, "hi"]`: L(I(1), S("hi")),
		"2.5":       F(2.5),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestKeyDistinguishesValues(t *testing.T) {
	vals := []Value{
		Null, S(""), S("1"), I(1), F(1.5), B(true), B(false),
		L(), L(I(1)), L(S("1")), L(I(1), I(2)),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("Key collision between %v and %v: %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestKeyEqualConsistencyProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := I(a), I(b)
		return (va.Key() == vb.Key()) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		va, vb := S(a), S(b)
		return (va.Key() == vb.Key()) == va.Equal(vb)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	// Mixed INT and DOUBLE: an INT keys like a DOUBLE exactly when the two
	// are Equal, whether or not the DOUBLE has a fractional part.
	h := func(a int64, b float64) bool {
		va := I(a)
		for _, vb := range []Value{F(b), F(float64(a)), F(float64(a) + 0.5), F(math.Trunc(b))} {
			if math.IsNaN(vb.Float()) {
				continue
			}
			if (va.Key() == vb.Key()) != va.Equal(vb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
	for _, c := range []struct {
		a, b Value
		eq   bool
	}{
		{I(1), F(1), true},
		{I(0), F(math.Copysign(0, -1)), true},
		{F(0), F(math.Copysign(0, -1)), true},
		{I(1 << 53), F(1 << 53), true},
		{I(1<<53 + 1), F(1 << 53), false},
		{I(math.MaxInt64), F(math.MaxInt64), false}, // the DOUBLE is 2^63
		{I(0), F(0.5), false},
		{L(I(1), S("a")), L(F(1), S("a")), true},
	} {
		if c.a.Equal(c.b) != c.eq || (c.a.Key() == c.b.Key()) != c.eq {
			t.Errorf("%v and %v: Equal %v, keys %q and %q, want alike = %v",
				c.a, c.b, c.a.Equal(c.b), c.a.Key(), c.b.Key(), c.eq)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b float64) bool {
		x, y := F(a), F(b)
		c1, ok1 := x.Compare(y)
		c2, ok2 := y.Compare(x)
		return ok1 && ok2 && c1 == -c2
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
