package hir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicFunction(t *testing.T) {
	src := `
func demo (params=1, regs=7)
b0:
  r1 = const 5
  r2 = arg "size"
  r3 = r1 + r2
  store "total", r3
  r4 = load "total"
  r5 = neg r4
  r6 = call "mix"(r5, r0)
  raise "net" [sync] (len=r3, extra=r6)
  raise "later" [delay=100] ()
  branch r3 ? b1 : b2
b1:
  halt
  return
b2:
  return r6
`
	fn, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Name != "demo" || fn.NumParams != 1 || fn.NumRegs != 7 {
		t.Errorf("header: %s %d %d", fn.Name, fn.NumParams, fn.NumRegs)
	}
	if len(fn.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(fn.Blocks))
	}
	if fn.Blocks[0].Term.Kind != TermBranch {
		t.Errorf("b0 term = %v", fn.Blocks[0].Term)
	}
	// The parsed function must re-print to a parseable, stable form.
	again, err := Parse(fn.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != fn.String() {
		t.Errorf("not a fixpoint:\n%s\nvs\n%s", fn, again)
	}
	// And execute: 5 + size, stored.
	st := NewState()
	env := &Env{
		Globals: st,
		Args:    func(string) (Value, bool) { return IntVal(37), true },
		LinkIntrinsic: slots(map[string]Intrinsic{
			"mix": {Pure: true, Fn: func(a []Value) Value { return IntVal(a[0].Int() ^ a[1].Int()) }},
		}),
	}
	if _, err := Exec(fn, env); err != nil {
		t.Fatal(err)
	}
	if st.Get("total").Int() != 42 {
		t.Errorf("total = %v", st.Get("total"))
	}
}

func TestParseConstKinds(t *testing.T) {
	src := `
func k (params=0, regs=4)
b0:
  r0 = const true
  r1 = const false
  r2 = const "hello world"
  r3 = const -42
  return r3
`
	fn, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Exec(fn, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != -42 {
		t.Errorf("ret = %v", got)
	}
	ins := fn.Blocks[0].Instrs
	if !ins[0].Const.Equal(BoolVal(true)) || !ins[2].Const.Equal(StrVal("hello world")) {
		t.Errorf("consts = %v %v", ins[0].Const, ins[2].Const)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"notfunc x (params=0, regs=0)",
		"func f params=0",
		"func f (wat=3)",
		"func f (params=x)",
		"func f (params=0, regs=1)\n  r0 = const 1", // instr before block label
		"func f (params=0, regs=1)\nb0:\n  r0 = const bytes[3]",
		"func f (params=0, regs=1)\nb0:\n  wiggle r0",
		"func f (params=0, regs=1)\nb0:\n  r0 = r1 ?? r0",
		"func f (params=0, regs=1)\nb0:\n  jump b9",          // out-of-range target
		"func f (params=0, regs=1)\nb0:\n  branch r0 ? b0",   // malformed branch
		"func f (params=0, regs=1)\nb0:\n  raise \"E\" x=r0", // missing parens
		"func f (params=0, regs=1)\nb0:\n  store \"g\"",      // missing reg
		"func f (params=0, regs=1)\nb0:\n  r0 = arg size",    // unquoted
		"func f (params=0, regs=2)\nb0:\n  r5 = const 1",     // reg out of range
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseToleratesCommentsAndBlankLines(t *testing.T) {
	src := `
func f (params=0, regs=1)
// a comment
b0:
  # another comment
  r0 = const 7

  return r0
`
	fn, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Exec(fn, &Env{})
	if err != nil || got.Int() != 7 {
		t.Errorf("got %v, %v", got, err)
	}
}

// Property: the disassembly of a random generated function parses back
// to an identical disassembly (print-parse fixpoint), and both versions
// behave identically.
func TestQuickParsePrintFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		fn := genCompileProgram(seed)
		text := fn.String()
		back, err := Parse(text)
		if err != nil {
			t.Logf("seed %d: parse error: %v\n%s", seed, err, text)
			return false
		}
		if back.String() != text {
			t.Logf("seed %d: fixpoint mismatch\n%s\nvs\n%s", seed, text, back.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestParseRejectsByteConstantsExplicitly(t *testing.T) {
	b := NewBuilder("f", 0)
	b.Const(BytesVal([]byte{1, 2}))
	b.Return(NoReg)
	fn := b.Fn()
	if _, err := Parse(fn.String()); err == nil || !strings.Contains(err.Error(), "byte constants") {
		t.Errorf("err = %v", err)
	}
}
