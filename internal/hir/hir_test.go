package hir

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := IntVal(7); v.Int() != 7 || !v.Bool() || v.Kind != KInt {
		t.Errorf("IntVal: %+v", v)
	}
	if v := IntVal(0); v.Bool() {
		t.Error("IntVal(0).Bool() should be false")
	}
	if v := BoolVal(true); v.Int() != 1 || !v.Bool() {
		t.Errorf("BoolVal(true): %+v", v)
	}
	if v := BoolVal(false); v.Bool() {
		t.Error("BoolVal(false)")
	}
	if v := StrVal("hi"); v.Str() != "hi" || !v.Bool() || v.Int() != 0 {
		t.Errorf("StrVal: %+v", v)
	}
	if StrVal("").Bool() {
		t.Error("empty string should be false")
	}
	if v := BytesVal([]byte{1}); len(v.Bytes()) != 1 || !v.Bool() {
		t.Errorf("BytesVal: %+v", v)
	}
	if BytesVal(nil).Bool() || None.Bool() {
		t.Error("empty bytes / none should be false")
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{IntVal(1), IntVal(1), true},
		{IntVal(1), IntVal(2), false},
		{IntVal(1), BoolVal(true), false},
		{StrVal("x"), StrVal("x"), true},
		{BytesVal([]byte{1, 2}), BytesVal([]byte{1, 2}), true},
		{BytesVal([]byte{1}), BytesVal([]byte{2}), false},
		{None, None, true},
		{None, IntVal(0), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v == %v: got %v", c.a, c.b, got)
		}
	}
}

func TestValueString(t *testing.T) {
	for v, want := range map[*Value]string{
		{Kind: KInt, I: 3}:          "3",
		{Kind: KBool, I: 1}:         "true",
		{Kind: KBool}:               "false",
		{Kind: KStr, S: "a"}:        `"a"`,
		{Kind: KBytes, B: []byte{}}: "bytes[0]",
		{Kind: KNone}:               "none",
	} {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if KInt.String() != "int" || Kind(99).String() == "" {
		t.Error("Kind.String")
	}
}

func TestBuilderStraightLine(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(4)
	y := b.Int(5)
	z := b.Bin(Mul, x, y)
	b.Store("out", z)
	b.Return(z)
	fn := b.Fn()
	st := NewState()
	got, err := Exec(fn, &Env{Globals: st})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 20 || st.Get("out").Int() != 20 {
		t.Errorf("result = %v, out = %v", got, st.Get("out"))
	}
	if fn.NumInstrs() != 4 {
		t.Errorf("NumInstrs = %d", fn.NumInstrs())
	}
}

func TestExecBranchAndLoop(t *testing.T) {
	// sum = 0; i = n; while i > 0 { sum += i; i-- }; return sum
	b := NewBuilder("sumdown", 1)
	n := b.Param(0)
	zero := b.Int(0)
	b.Store("sum", zero)
	b.Store("i", n)
	cond := b.NewBlock()
	b.SetBlock(Entry)
	b.Jump(cond)
	b.SetBlock(cond)
	i := b.Load("i")
	z2 := b.Int(0)
	c := b.Bin(Gt, i, z2)
	body := b.NewBlock()
	exit := b.NewBlock()
	b.SetBlock(cond)
	b.Branch(c, body, exit)
	b.SetBlock(body)
	i2 := b.Load("i")
	s := b.Load("sum")
	s2 := b.Bin(Add, s, i2)
	b.Store("sum", s2)
	one := b.Int(1)
	i3 := b.Bin(Sub, i2, one)
	b.Store("i", i3)
	b.Jump(cond)
	b.SetBlock(exit)
	res := b.Load("sum")
	b.Return(res)
	fn := b.Fn()

	got, err := Exec(fn, &Env{Globals: NewState()}, IntVal(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 55 {
		t.Errorf("sumdown(10) = %v", got)
	}
}

func TestExecArgsAndBindArgs(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Arg("x")
	k := b.BindArg("k")
	missing := b.Arg("missing")
	sum := b.Bin(Add, x, k)
	sum2 := b.Bin(Add, sum, missing)
	b.Return(sum2)
	fn := b.Fn()
	env := &Env{
		Args: func(n string) (Value, bool) {
			if n == "x" {
				return IntVal(30), true
			}
			return None, false
		},
		BindArgs: func(n string) (Value, bool) {
			if n == "k" {
				return IntVal(12), true
			}
			return None, false
		},
	}
	got, err := Exec(fn, env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 {
		t.Errorf("got %v", got)
	}
}

func TestExecNilCallbacks(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Arg("x")
	y := b.BindArg("y")
	g := b.Load("g")
	b.Store("g", x)
	b.Raise("E", []string{"a"}, []Reg{x})
	s := b.Bin(Add, y, g)
	b.Return(s)
	fn := b.Fn()
	if got, err := Exec(fn, &Env{}); err != nil || got.Int() != 0 {
		t.Errorf("got %v, %v", got, err)
	}
}

func TestExecIntrinsics(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(3)
	d := b.Call("double", x)
	b.Return(d)
	fn := b.Fn()
	env := &Env{LinkIntrinsic: slots(map[string]Intrinsic{
		"double": {Fn: func(a []Value) Value { return IntVal(a[0].Int() * 2) }, Pure: true},
	})}
	got, err := Exec(fn, env)
	if err != nil || got.Int() != 6 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := Exec(fn, &Env{}); err == nil {
		t.Error("missing intrinsic should error")
	}
}

func TestExecCallFn(t *testing.T) {
	cb := NewBuilder("sq", 1)
	p := cb.Param(0)
	r := cb.Bin(Mul, p, p)
	cb.Return(r)
	callee := cb.Fn()

	b := NewBuilder("f", 0)
	x := b.Int(9)
	y := b.CallFn("sq", x)
	b.Return(y)
	fn := b.Fn()

	env := &Env{Funcs: map[string]*Function{"sq": callee}}
	got, err := Exec(fn, env)
	if err != nil || got.Int() != 81 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := Exec(fn, &Env{}); err == nil {
		t.Error("missing func should error")
	}
}

func TestExecRaiseCallback(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(5)
	b.Raise("Ev", []string{"n"}, []Reg{x})
	b.RaiseAsync("Ev2", nil, nil)
	b.RaiseAfter(100, "Ev3", nil, nil)
	b.Return(NoReg)
	fn := b.Fn()
	type call struct {
		name  string
		async bool
		delay int64
		n     int64
	}
	var calls []call
	env := &Env{LinkRaise: func(site RaiseSite) func([]Value) {
		return func(args []Value) {
			c := call{name: site.Event, async: site.Async, delay: site.Delay}
			if len(args) > 0 {
				c.n = args[0].Int()
			}
			calls = append(calls, c)
		}
	}}
	if _, err := Exec(fn, env); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatalf("calls = %+v", calls)
	}
	if calls[0] != (call{name: "Ev", n: 5}) {
		t.Errorf("calls[0] = %+v", calls[0])
	}
	if !calls[1].async || calls[1].name != "Ev2" {
		t.Errorf("calls[1] = %+v", calls[1])
	}
	if calls[2].delay != 100 || !calls[2].async {
		t.Errorf("calls[2] = %+v", calls[2])
	}
}

func TestExecHalt(t *testing.T) {
	b := NewBuilder("f", 0)
	one := b.Int(1)
	b.Store("before", one)
	b.Halt()
	b.Store("after", one)
	b.Return(NoReg)
	fn := b.Fn()
	st := NewState()
	halted := false
	if _, err := Exec(fn, &Env{Globals: st, Halt: func() { halted = true }}); err != nil {
		t.Fatal(err)
	}
	if !halted {
		t.Error("halt callback not invoked")
	}
	if st.Get("before").Int() != 1 || !st.Get("after").Equal(None) {
		t.Errorf("state: before=%v after=%v", st.Get("before"), st.Get("after"))
	}
}

func TestExecHaltPropagatesThroughCallFn(t *testing.T) {
	cb := NewBuilder("inner", 0)
	cb.Halt()
	cb.Return(NoReg)
	inner := cb.Fn()

	b := NewBuilder("outer", 0)
	b.CallFn("inner")
	one := b.Int(1)
	b.Store("after", one)
	b.Return(NoReg)
	outer := b.Fn()

	st := NewState()
	if _, err := Exec(outer, &Env{Globals: st, Funcs: map[string]*Function{"inner": inner}}); err != nil {
		t.Fatal(err)
	}
	if !st.Get("after").Equal(None) {
		t.Error("halt did not abort the outer function")
	}
}

func TestExecStepLimit(t *testing.T) {
	b := NewBuilder("spin", 0)
	x := b.Int(1)
	_ = x
	b.Jump(Entry)
	fn := b.Fn()
	if _, err := Exec(fn, &Env{MaxSteps: 100}); !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestExecDivByZero(t *testing.T) {
	for _, op := range []BinOp{Div, Mod} {
		b := NewBuilder("f", 0)
		x := b.Int(1)
		y := b.Int(0)
		z := b.Bin(op, x, y)
		b.Return(z)
		if _, err := Exec(b.Fn(), &Env{}); !errors.Is(err, ErrDivByZero) {
			t.Errorf("%v: err = %v", op, err)
		}
	}
}

func TestEvalBinArithmetic(t *testing.T) {
	cases := []struct {
		op   BinOp
		a, b int64
		want int64
	}{
		{Add, 3, 4, 7}, {Sub, 3, 4, -1}, {Mul, 3, 4, 12}, {Div, 9, 2, 4},
		{Mod, 9, 2, 1}, {And, 6, 3, 2}, {Or, 6, 3, 7}, {Xor, 6, 3, 5},
		{Shl, 1, 4, 16}, {Shr, 16, 4, 1},
	}
	for _, c := range cases {
		got, err := EvalBin(c.op, IntVal(c.a), IntVal(c.b))
		if err != nil || got.Int() != c.want {
			t.Errorf("%d %s %d = %v (%v), want %d", c.a, c.op, c.b, got, err, c.want)
		}
	}
}

func TestEvalBinComparisons(t *testing.T) {
	if v, _ := EvalBin(Lt, IntVal(1), IntVal(2)); !v.Bool() {
		t.Error("1 < 2")
	}
	if v, _ := EvalBin(Ge, IntVal(1), IntVal(2)); v.Bool() {
		t.Error("1 >= 2")
	}
	if v, _ := EvalBin(Le, IntVal(2), IntVal(2)); !v.Bool() {
		t.Error("2 <= 2")
	}
	if v, _ := EvalBin(Gt, IntVal(3), IntVal(2)); !v.Bool() {
		t.Error("3 > 2")
	}
	if v, _ := EvalBin(Eq, StrVal("a"), StrVal("a")); !v.Bool() {
		t.Error("str eq")
	}
	if v, _ := EvalBin(Ne, StrVal("a"), IntVal(0)); !v.Bool() {
		t.Error("cross-kind ne")
	}
}

func TestEvalBinConcat(t *testing.T) {
	if v, _ := EvalBin(Add, StrVal("ab"), StrVal("cd")); v.Str() != "abcd" {
		t.Errorf("concat = %v", v)
	}
	v, _ := EvalBin(Add, BytesVal([]byte{1}), BytesVal([]byte{2}))
	if len(v.Bytes()) != 2 || v.Bytes()[1] != 2 {
		t.Errorf("bytes concat = %v", v)
	}
}

func TestEvalUn(t *testing.T) {
	if EvalUn(Neg, IntVal(5)).Int() != -5 {
		t.Error("neg")
	}
	if !EvalUn(Not, IntVal(0)).Bool() || EvalUn(Not, IntVal(1)).Bool() {
		t.Error("not")
	}
	if EvalUn(BNot, IntVal(0)).Int() != -1 {
		t.Error("bnot")
	}
	if EvalUn(Len, StrVal("abc")).Int() != 3 || EvalUn(Len, BytesVal([]byte{1, 2})).Int() != 2 {
		t.Error("len")
	}
	if EvalUn(Len, IntVal(9)).Int() != 0 {
		t.Error("len of int")
	}
}

func TestValidateCatchesBadFunctions(t *testing.T) {
	bad := []*Function{
		{Name: "noblocks"},
		{Name: "badreg", NumRegs: 1, Blocks: []Block{{
			Instrs: []Instr{{Op: OpMov, Dst: 0, A: 5}},
			Term:   Term{Kind: TermReturn, Ret: NoReg},
		}}},
		{Name: "badjump", NumRegs: 0, Blocks: []Block{{Term: Term{Kind: TermJump, To: 9}}}},
		{Name: "badbranch", NumRegs: 1, Blocks: []Block{{Term: Term{Kind: TermBranch, Cond: 0, To: 0, Else: 5}}}},
		{Name: "badret", NumRegs: 0, Blocks: []Block{{Term: Term{Kind: TermReturn, Ret: 3}}}},
		{Name: "badraise", NumRegs: 1, Blocks: []Block{{
			Instrs: []Instr{{Op: OpRaise, Dst: NoReg, Sym: "E", Args: []Reg{0}, ArgNames: nil}},
			Term:   Term{Kind: TermReturn, Ret: NoReg},
		}}},
	}
	for _, fn := range bad {
		if err := fn.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid function", fn.Name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(1)
	b.Raise("E", []string{"a"}, []Reg{x})
	b.Return(NoReg)
	fn := b.Fn()
	cp := fn.Clone()
	cp.Blocks[0].Instrs[1].ArgNames[0] = "changed"
	cp.Blocks[0].Instrs[1].Args[0] = 99
	if fn.Blocks[0].Instrs[1].ArgNames[0] != "a" || fn.Blocks[0].Instrs[1].Args[0] != x {
		t.Error("Clone shares slices with the original")
	}
}

func TestStringDisassembly(t *testing.T) {
	b := NewBuilder("demo", 1)
	p := b.Param(0)
	c := b.Int(2)
	m := b.Bin(Mul, p, c)
	b.Store("g", m)
	l := b.Load("g")
	n := b.Un(Neg, l)
	ar := b.Arg("size")
	ba := b.BindArg("key")
	cl := b.Call("f", ar)
	cf := b.CallFn("g", ba)
	_, _ = cl, cf
	b.Raise("E", []string{"x"}, []Reg{n})
	b.RaiseAsync("E2", nil, nil)
	b.RaiseAfter(10, "E3", nil, nil)
	b.Halt()
	b.Return(m)
	out := b.Fn().String()
	for _, want := range []string{"func demo", "const 2", "r0 * r1", `store "g"`, `load "g"`,
		"neg", `arg "size"`, `bindarg "key"`, `call "f"`, `callfn "g"`,
		`raise "E" [sync]`, `raise "E2" [async]`, "delay=10", "halt", "return r2"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q in:\n%s", want, out)
		}
	}
}

func TestStateSnapshotAndEqual(t *testing.T) {
	st := NewState()
	st.Set("a", IntVal(1))
	st.Set("b", BytesVal([]byte{9}))
	snap := st.Snapshot()
	if !st.EqualSnapshot(snap) {
		t.Error("snapshot should match")
	}
	// Mutating the store after snapshot breaks equality.
	st.Set("a", IntVal(2))
	if st.EqualSnapshot(snap) {
		t.Error("snapshot should differ after mutation")
	}
	st.Set("a", IntVal(1))
	if !st.EqualSnapshot(snap) {
		t.Error("restored store should match")
	}
	// Byte payloads must have been copied.
	st.Get("b").B[0] = 7
	if st.EqualSnapshot(snap) {
		t.Error("snapshot shares byte payloads")
	}
	st.Set("c", IntVal(3))
	if st.EqualSnapshot(snap) {
		t.Error("extra cell should break equality")
	}
	if len(st.Names()) != 3 || st.Names()[0] != "a" {
		t.Errorf("Names = %v", st.Names())
	}
	if st.Len() != 3 {
		t.Errorf("Len = %d", st.Len())
	}
}

// Property: EvalBin on Eq/Ne is consistent with Value.Equal, and
// comparisons are total on integer views.
func TestQuickEvalBinConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := IntVal(a), IntVal(b)
		eq, _ := EvalBin(Eq, va, vb)
		ne, _ := EvalBin(Ne, va, vb)
		if eq.Bool() == ne.Bool() {
			return false
		}
		lt, _ := EvalBin(Lt, va, vb)
		ge, _ := EvalBin(Ge, va, vb)
		return lt.Bool() != ge.Bool()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuilderMovAndPanics(t *testing.T) {
	b := NewBuilder("f", 1)
	p := b.Param(0)
	m := b.Mov(p)
	b.Return(m)
	got, err := Exec(b.Fn(), &Env{}, IntVal(9))
	if err != nil || got.Int() != 9 {
		t.Errorf("mov: %v, %v", got, err)
	}

	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("Param out of range", func() { NewBuilder("f", 1).Param(3) })
	expectPanic("SetBlock out of range", func() { NewBuilder("f", 0).SetBlock(9) })
	expectPanic("Raise mismatch", func() {
		nb := NewBuilder("f", 0)
		r := nb.Int(1)
		nb.Raise("E", []string{"a", "b"}, []Reg{r})
	})
	expectPanic("RaiseAsync mismatch", func() {
		nb := NewBuilder("f", 0)
		r := nb.Int(1)
		nb.RaiseAsync("E", nil, []Reg{r})
	})
	expectPanic("RaiseAfter mismatch", func() {
		nb := NewBuilder("f", 0)
		r := nb.Int(1)
		nb.RaiseAfter(5, "E", nil, []Reg{r})
	})
}

func TestValueKeyDistinguishesKinds(t *testing.T) {
	vals := []Value{
		IntVal(1), BoolVal(true), StrVal("1"), BytesVal([]byte("1")), None,
		BytesVal([]byte("2")),
	}
	seen := map[string]bool{}
	for _, v := range vals {
		k := v.Kind.String() + "|" + v.key()
		if seen[k] {
			t.Errorf("duplicate key for %v", v)
		}
		seen[k] = true
	}
	// Same bytes, same key.
	if BytesVal([]byte{9}).key() != BytesVal([]byte{9}).key() {
		t.Error("equal byte values must share a key")
	}
}

// slots serves a fixed intrinsic table through Env.LinkIntrinsic.
func slots(table map[string]Intrinsic) func(string) *IntrinsicSlot {
	return func(name string) *IntrinsicSlot {
		s := new(IntrinsicSlot)
		if in, ok := table[name]; ok {
			s.Store(in)
		}
		return s
	}
}
