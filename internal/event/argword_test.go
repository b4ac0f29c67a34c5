package event

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// checkArgWord raises typed next to A(name, want) through a generic
// dispatch and checks that Lookup, Pairs()[i].Value() and Pairs()[i].Val
// all see the dynamic type and value A stored; byte slices must also
// keep their nil-ness and arrive with cap == len.
func checkArgWord(t *testing.T, typed Arg, want any) bool {
	t.Helper()
	s := New()
	ev := s.Define("e")
	ok := true
	s.Bind(ev, "h", func(ctx *Ctx) {
		for _, name := range []string{"typed", "boxed"} {
			got, found := ctx.Args.Lookup(name)
			if !found || !sameArgValue(got, want) {
				t.Errorf("%s: Lookup = %#v (%T), want %#v (%T)", name, got, got, want, want)
				ok = false
			}
		}
		for i, p := range ctx.Args.Pairs() {
			if !sameArgValue(p.Value(), want) || !sameArgValue(p.Val, want) {
				t.Errorf("Pairs()[%d] = %#v / Value() %#v, want %#v", i, p.Val, p.Value(), want)
				ok = false
			}
		}
		if b, isBytes := want.([]byte); isBytes {
			for _, name := range []string{"typed", "boxed"} {
				got := ctx.Args.Bytes(name)
				if cap(got) != len(got) || (got == nil) != (b == nil) {
					t.Errorf("%s: Bytes len %d cap %d nil %v, want cap == len and nil %v", name, len(got), cap(got), got == nil, b == nil)
					ok = false
				}
			}
		}
	})
	typed.Name = "typed"
	if err := s.Raise(ev, typed, A("boxed", want)); err != nil {
		t.Fatal(err)
	}
	return ok
}

// sameArgValue reports whether got has want's dynamic type and value,
// telling a nil byte slice from an empty one.
func sameArgValue(got, want any) bool {
	if reflect.TypeOf(got) != reflect.TypeOf(want) {
		return false
	}
	if b, isBytes := want.([]byte); isBytes && (got.([]byte) == nil) != (b == nil) {
		return false
	}
	return reflect.DeepEqual(got, want)
}

// TestArgWordRoundTrip is the property test of the unboxed argument
// words: for every kind with a typed constructor, readers that box see
// exactly what event.A would have stored, and the typed accessors read
// the word back.
func TestArgWordRoundTrip(t *testing.T) {
	x := 42
	edges := []struct {
		typed Arg
		want  any
	}{
		{Int("", 0), 0},
		{Int("", math.MaxInt), math.MaxInt},
		{Int("", math.MinInt), math.MinInt},
		{Int64("", -1), int64(-1)},
		{Int64("", math.MinInt64), int64(math.MinInt64)},
		{Bool("", true), true},
		{Bool("", false), false},
		{String("", ""), ""},
		{String("", "héllo"), "héllo"},
		{Bytes("", nil), []byte(nil)},
		{Bytes("", []byte{}), []byte{}},
		{Bytes("", []byte("abc")), []byte("abc")},
		{Arg{Val: &x}, &x},
		{Arg{}, nil},
	}
	for _, c := range edges {
		checkArgWord(t, c.typed, c.want)
	}

	prop := func(i int, i64 int64, b bool, str string, bs []byte) bool {
		return checkArgWord(t, Int("", i), i) &&
			checkArgWord(t, Int64("", i64), i64) &&
			checkArgWord(t, Bool("", b), b) &&
			checkArgWord(t, String("", str), str) &&
			checkArgWord(t, Bytes("", bs), bs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// The typed accessors read the word directly and keep the old
	// conversions: Int64 accepts an int, Int does not accept an int64.
	a := MakeArgs([]Arg{Int("i", -7), Int64("j", 1<<40), Bool("b", true), String("s", "x"), Bytes("p", []byte{1, 2})})
	if a.Int("i") != -7 || a.Int64("i") != -7 || a.Int("j") != 0 || a.Int64("j") != 1<<40 ||
		!a.Bool("b") || a.String("s") != "x" || len(a.Bytes("p")) != 2 || a.Bool("i") || a.Bytes("s") != nil {
		t.Fatal("typed accessors misread an unboxed word")
	}
	kinds := []ArgKind{KindInt, KindInt64, KindBool, KindString, KindBytes}
	for i, p := range a.pairs {
		if p.Kind() != kinds[i] {
			t.Errorf("%s: Kind = %d, want %d", p.Name, p.Kind(), kinds[i])
		}
		if g, ok := a.Get(p.Name); !ok || g != p {
			t.Errorf("Get(%q) = %v, %v", p.Name, g, ok)
		}
	}
	if A("v", 7).Kind() != KindAny || A("v", []byte("q")).Kind() != KindBytes {
		t.Error("A must box scalars and carry byte slices unboxed")
	}
}

// TestBytesArgAppendCannotClobberCaller is the aliasing hazard the cap ==
// len rule closes: a handler receiving a sub-slice of the raiser's
// buffer appends to it, which must reallocate instead of overwriting the
// bytes that follow the sub-slice.
func TestBytesArgAppendCannotClobberCaller(t *testing.T) {
	s := New()
	ev := s.Define("seg")
	s.Bind(ev, "grow", func(ctx *Ctx) {
		for _, name := range []string{"typed", "boxed"} {
			seg := ctx.Args.Bytes(name)
			_ = append(seg, 0xEE, 0xEE)
			v, _ := ctx.Args.Lookup(name)
			_ = append(v.([]byte), 0xEE, 0xEE)
		}
	})
	msg := []byte("0123456789")
	for off := 0; off < len(msg); off += 4 {
		end := min(off+4, len(msg))
		if err := s.Raise(ev, Bytes("typed", msg[off:end]), A("boxed", msg[off:end])); err != nil {
			t.Fatal(err)
		}
	}
	if string(msg) != "0123456789" {
		t.Fatalf("a handler's append overwrote the raiser's buffer: %q", msg)
	}
}
