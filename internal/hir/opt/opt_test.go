package opt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eventopt/internal/hir"
)

// countOp counts instructions with the given op.
func countOp(fn *hir.Function, op hir.Op) int {
	n := 0
	for bi := range fn.Blocks {
		for ii := range fn.Blocks[bi].Instrs {
			if fn.Blocks[bi].Instrs[ii].Op == op {
				n++
			}
		}
	}
	return n
}

func TestConstPropFoldsArithmetic(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	x := b.Int(6)
	y := b.Int(7)
	z := b.Bin(hir.Mul, x, y)
	b.Store("out", z)
	b.Return(hir.NoReg)
	fn := b.Fn()
	ConstProp(fn, &Info{})
	if got := countOp(fn, hir.OpBin); got != 0 {
		t.Errorf("OpBin remaining = %d\n%s", got, fn)
	}
	st := hir.NewState()
	if _, err := hir.Exec(fn, &hir.Env{Globals: st}); err != nil {
		t.Fatal(err)
	}
	if st.Get("out").Int() != 42 {
		t.Errorf("out = %v", st.Get("out"))
	}
}

func TestConstPropFoldsBranch(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	c := b.Const(hir.BoolVal(true))
	thenB := b.NewBlock()
	elseB := b.NewBlock()
	b.SetBlock(hir.Entry)
	b.Branch(c, thenB, elseB)
	b.SetBlock(thenB)
	one := b.Int(1)
	b.Store("path", one)
	b.Return(hir.NoReg)
	b.SetBlock(elseB)
	two := b.Int(2)
	b.Store("path", two)
	b.Return(hir.NoReg)
	fn := b.Fn()

	out := Optimize(fn, &Info{}, Default())
	// The else branch is unreachable after folding; only one store left.
	if got := countOp(out, hir.OpStore); got != 1 {
		t.Errorf("stores = %d\n%s", got, out)
	}
	st := hir.NewState()
	if _, err := hir.Exec(out, &hir.Env{Globals: st}); err != nil {
		t.Fatal(err)
	}
	if st.Get("path").Int() != 1 {
		t.Errorf("path = %v", st.Get("path"))
	}
}

func TestConstPropDoesNotFoldDivByZero(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	x := b.Int(1)
	y := b.Int(0)
	z := b.Bin(hir.Div, x, y)
	b.Store("out", z)
	b.Return(hir.NoReg)
	fn := b.Fn()
	ConstProp(fn, &Info{})
	if got := countOp(fn, hir.OpBin); got != 1 {
		t.Errorf("div folded away: %d OpBin left\n%s", got, fn)
	}
}

func TestConstPropFoldsPureIntrinsic(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	x := b.Int(4)
	y := b.Call("triple", x)
	b.Store("out", y)
	b.Return(hir.NoReg)
	fn := b.Fn()
	info := &Info{Intrinsics: map[string]hir.Intrinsic{
		"triple": {Fn: func(a []hir.Value) hir.Value { return hir.IntVal(a[0].Int() * 3) }, Pure: true},
	}}
	ConstProp(fn, info)
	if got := countOp(fn, hir.OpCall); got != 0 {
		t.Errorf("pure call not folded\n%s", fn)
	}
	st := hir.NewState()
	if _, err := hir.Exec(fn, &hir.Env{Globals: st}); err != nil {
		t.Fatal(err)
	}
	if st.Get("out").Int() != 12 {
		t.Errorf("out = %v", st.Get("out"))
	}
}

func TestConstPropKeepsImpureCall(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	x := b.Int(4)
	y := b.Call("effectful", x)
	b.Store("out", y)
	b.Return(hir.NoReg)
	fn := b.Fn()
	info := &Info{Intrinsics: map[string]hir.Intrinsic{
		"effectful": {Fn: func(a []hir.Value) hir.Value { return hir.IntVal(9) }, Pure: false},
	}}
	ConstProp(fn, info)
	if got := countOp(fn, hir.OpCall); got != 1 {
		t.Errorf("impure call folded\n%s", fn)
	}
}

func TestCSEDeduplicatesLoadsAndOps(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	l1 := b.Load("g")
	l2 := b.Load("g") // duplicate load
	s := b.Bin(hir.Add, l1, l2)
	s2 := b.Bin(hir.Add, l1, l2) // duplicate computation
	tot := b.Bin(hir.Add, s, s2)
	b.Store("out", tot)
	b.Return(hir.NoReg)
	fn := b.Fn()
	CSE(fn, &Info{})
	if got := countOp(fn, hir.OpLoad); got != 1 {
		t.Errorf("loads = %d\n%s", got, fn)
	}
	if got := countOp(fn, hir.OpBin); got != 2 {
		t.Errorf("bins = %d\n%s", got, fn)
	}
	st := hir.NewState()
	st.Set("g", hir.IntVal(5))
	if _, err := hir.Exec(fn, &hir.Env{Globals: st}); err != nil {
		t.Fatal(err)
	}
	if st.Get("out").Int() != 20 {
		t.Errorf("out = %v", st.Get("out"))
	}
}

func TestCSEStoreKillsLoad(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	l1 := b.Load("g")
	one := b.Int(1)
	inc := b.Bin(hir.Add, l1, one)
	b.Store("g", inc)
	l2 := b.Load("g") // must NOT be replaced by l1
	b.Store("out", l2)
	b.Return(hir.NoReg)
	fn := b.Fn()
	CSE(fn, &Info{})
	if got := countOp(fn, hir.OpLoad); got != 2 {
		t.Errorf("loads = %d (store kill violated)\n%s", got, fn)
	}
}

func TestCSERaiseKillsLoads(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	l1 := b.Load("g")
	b.Store("a", l1)
	b.Raise("E", nil, nil)
	l2 := b.Load("g")
	b.Store("b", l2)
	b.Return(hir.NoReg)
	fn := b.Fn()
	CSE(fn, &Info{})
	if got := countOp(fn, hir.OpLoad); got != 2 {
		t.Errorf("loads = %d (raise kill violated)\n%s", got, fn)
	}
}

func TestCSEDuplicateArgsCollapse(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	a1 := b.Arg("size")
	a2 := b.Arg("size")
	s := b.Bin(hir.Add, a1, a2)
	b.Store("out", s)
	b.Return(hir.NoReg)
	fn := b.Fn()
	CSE(fn, &Info{})
	if got := countOp(fn, hir.OpArg); got != 1 {
		t.Errorf("args = %d\n%s", got, fn)
	}
}

func TestDCERemovesDeadPureCode(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	x := b.Int(1)
	dead := b.Bin(hir.Add, x, x) // never used
	_ = dead
	deadLoad := b.Load("g") // never used
	_ = deadLoad
	b.Store("out", x)
	b.Return(hir.NoReg)
	fn := b.Fn()
	DCE(fn, &Info{})
	if got := fn.NumInstrs(); got != 2 { // const + store
		t.Errorf("instrs = %d\n%s", got, fn)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	x := b.Int(1)
	b.Store("g", x)
	y := b.Call("impure", x)
	_ = y
	b.Raise("E", nil, nil)
	b.Return(hir.NoReg)
	fn := b.Fn()
	DCE(fn, &Info{Intrinsics: map[string]hir.Intrinsic{"impure": {Fn: func([]hir.Value) hir.Value { return hir.None }}}})
	if countOp(fn, hir.OpStore) != 1 || countOp(fn, hir.OpCall) != 1 || countOp(fn, hir.OpRaise) != 1 {
		t.Errorf("side effects removed:\n%s", fn)
	}
}

func TestDCELoopLiveness(t *testing.T) {
	// A register defined before a loop and used inside it must stay live
	// around the back edge.
	b := hir.NewBuilder("f", 1)
	n := b.Param(0)
	step := b.Int(1)
	loop := b.NewBlock()
	exit := b.NewBlock()
	b.SetBlock(hir.Entry)
	b.Store("i", n)
	b.Jump(loop)
	b.SetBlock(loop)
	i := b.Load("i")
	i2 := b.Bin(hir.Sub, i, step)
	b.Store("i", i2)
	z := b.Int(0)
	c := b.Bin(hir.Gt, i2, z)
	b.Branch(c, loop, exit)
	b.SetBlock(exit)
	b.Return(hir.NoReg)
	fn := b.Fn()
	before := fn.NumInstrs()
	DCE(fn, &Info{})
	if fn.NumInstrs() != before {
		t.Errorf("DCE removed live loop code:\n%s", fn)
	}
	st := hir.NewState()
	if _, err := hir.Exec(fn, &hir.Env{Globals: st}, hir.IntVal(5)); err != nil {
		t.Fatal(err)
	}
	if st.Get("i").Int() != 0 {
		t.Errorf("i = %v", st.Get("i"))
	}
}

func TestPeepholeIdentities(t *testing.T) {
	// x + 0, x * 1, x ^ x, x * 0.
	b := hir.NewBuilder("f", 0)
	x := b.Arg("x")
	zero := b.Int(0)
	one := b.Int(1)
	a := b.Bin(hir.Add, x, zero)
	m := b.Bin(hir.Mul, a, one)
	xx := b.Bin(hir.Xor, m, m)
	mz := b.Bin(hir.Mul, x, zero)
	tot := b.Bin(hir.Add, xx, mz)
	b.Store("out", tot)
	b.Return(hir.NoReg)
	fn := b.Fn()
	env := func() (*hir.Env, *hir.State) {
		st := hir.NewState()
		return &hir.Env{
			Globals: st,
			Args: func(n string) (hir.Value, bool) {
				return hir.IntVal(37), true
			},
		}, st
	}
	e1, s1 := env()
	if _, err := hir.Exec(fn, e1); err != nil {
		t.Fatal(err)
	}
	out := Optimize(fn, &Info{}, Default())
	e2, s2 := env()
	if _, err := hir.Exec(out, e2); err != nil {
		t.Fatal(err)
	}
	if !s1.Get("out").Equal(s2.Get("out")) {
		t.Errorf("results differ: %v vs %v", s1.Get("out"), s2.Get("out"))
	}
	// x+0 is a no-op only for known ints; here x is an unknown arg, so the
	// add must survive. The x*0 and x^x still simplify:
	if got := countOp(out, hir.OpBin); got > 2 {
		t.Errorf("bins = %d, want <= 2\n%s", got, out)
	}
}

func TestPeepholeAddIdentityOnlyForInts(t *testing.T) {
	// "s" + 0 must not become a move: Add concatenates strings.
	b := hir.NewBuilder("f", 0)
	s := b.Const(hir.StrVal("s"))
	z := b.Int(0)
	r := b.Bin(hir.Add, s, z)
	b.Store("out", r)
	b.Return(hir.NoReg)
	fn := b.Fn()
	Peephole(fn)
	if got := countOp(fn, hir.OpBin); got != 1 {
		t.Errorf("string add simplified away\n%s", fn)
	}
}

func TestInlineSimpleCallee(t *testing.T) {
	cb := hir.NewBuilder("sq", 1)
	p := cb.Param(0)
	r := cb.Bin(hir.Mul, p, p)
	cb.Return(r)
	sq := cb.Fn()

	b := hir.NewBuilder("f", 0)
	x := b.Int(9)
	y := b.CallFn("sq", x)
	b.Store("out", y)
	b.Return(hir.NoReg)
	fn := b.Fn()

	info := &Info{Funcs: map[string]*hir.Function{"sq": sq}}
	Inline(fn, info, 0)
	if err := fn.Validate(); err != nil {
		t.Fatalf("invalid after inline: %v\n%s", err, fn)
	}
	if countOp(fn, hir.OpCallFn) != 0 {
		t.Errorf("call not inlined\n%s", fn)
	}
	st := hir.NewState()
	if _, err := hir.Exec(fn, &hir.Env{Globals: st}); err != nil {
		t.Fatal(err)
	}
	if st.Get("out").Int() != 81 {
		t.Errorf("out = %v", st.Get("out"))
	}
}

func TestInlineMultiBlockCallee(t *testing.T) {
	// abs(x): if x < 0 return -x else return x
	cb := hir.NewBuilder("abs", 1)
	p := cb.Param(0)
	z := cb.Int(0)
	c := cb.Bin(hir.Lt, p, z)
	neg := cb.NewBlock()
	pos := cb.NewBlock()
	cb.SetBlock(hir.Entry)
	cb.Branch(c, neg, pos)
	cb.SetBlock(neg)
	n := cb.Un(hir.Neg, p)
	cb.Return(n)
	cb.SetBlock(pos)
	cb.Return(p)
	abs := cb.Fn()

	b := hir.NewBuilder("f", 1)
	x := b.Param(0)
	y := b.CallFn("abs", x)
	two := b.Int(2)
	r := b.Bin(hir.Mul, y, two)
	b.Store("out", r)
	b.Return(hir.NoReg)
	fn := b.Fn()

	info := &Info{Funcs: map[string]*hir.Function{"abs": abs}}
	out := Optimize(fn, info, Default())
	if err := out.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if countOp(out, hir.OpCallFn) != 0 {
		t.Errorf("call survived\n%s", out)
	}
	for _, in := range []int64{-7, 7, 0} {
		st := hir.NewState()
		if _, err := hir.Exec(out, &hir.Env{Globals: st}, hir.IntVal(in)); err != nil {
			t.Fatal(err)
		}
		want := in
		if want < 0 {
			want = -want
		}
		if st.Get("out").Int() != want*2 {
			t.Errorf("f(%d): out = %v, want %d", in, st.Get("out"), want*2)
		}
	}
}

func TestInlineAfterConstArgsFoldsEverything(t *testing.T) {
	// Inlining a pure callee with constant arguments should let the whole
	// computation fold to a single constant store — the paper's point
	// that merging exposes value-based optimizations.
	cb := hir.NewBuilder("addk", 2)
	s := cb.Bin(hir.Add, cb.Param(0), cb.Param(1))
	cb.Return(s)
	addk := cb.Fn()

	b := hir.NewBuilder("f", 0)
	x := b.Int(40)
	y := b.Int(2)
	r := b.CallFn("addk", x, y)
	b.Store("out", r)
	b.Return(hir.NoReg)
	fn := b.Fn()

	out := Optimize(fn, &Info{Funcs: map[string]*hir.Function{"addk": addk}}, Default())
	if got := out.NumInstrs(); got != 2 { // const 42 + store
		t.Errorf("instrs = %d\n%s", got, out)
	}
	st := hir.NewState()
	if _, err := hir.Exec(out, &hir.Env{Globals: st}); err != nil {
		t.Fatal(err)
	}
	if st.Get("out").Int() != 42 {
		t.Errorf("out = %v", st.Get("out"))
	}
}

func TestInlineSkipsRecursionAndBigCallees(t *testing.T) {
	cb := hir.NewBuilder("rec", 0)
	cb.CallFn("rec")
	cb.Return(hir.NoReg)
	rec := cb.Fn()
	fn := rec.Clone()
	Inline(fn, &Info{Funcs: map[string]*hir.Function{"rec": rec}}, 0)
	if countOp(fn, hir.OpCallFn) != 1 {
		t.Error("self-recursive call inlined")
	}

	// Big callee exceeding the limit.
	bb := hir.NewBuilder("big", 0)
	prev := bb.Int(0)
	for i := 0; i < 10; i++ {
		prev = bb.Bin(hir.Add, prev, prev)
	}
	bb.Return(prev)
	big := bb.Fn()
	b2 := hir.NewBuilder("f", 0)
	b2.CallFn("big")
	b2.Return(hir.NoReg)
	f2 := b2.Fn()
	Inline(f2, &Info{Funcs: map[string]*hir.Function{"big": big}}, 5)
	if countOp(f2, hir.OpCallFn) != 1 {
		t.Error("oversized callee inlined")
	}
}

func TestSimplifyCFGMergesAndPrunes(t *testing.T) {
	b := hir.NewBuilder("f", 0)
	mid := b.NewBlock()
	end := b.NewBlock()
	dead := b.NewBlock()
	b.SetBlock(dead)
	x := b.Int(9)
	b.Store("dead", x)
	b.Return(hir.NoReg)
	b.SetBlock(hir.Entry)
	y := b.Int(1)
	_ = y
	b.Jump(mid)
	b.SetBlock(mid)
	b.Jump(end)
	b.SetBlock(end)
	z := b.Int(2)
	b.Store("out", z)
	b.Return(hir.NoReg)
	fn := b.Fn()

	SimplifyCFG(fn)
	if len(fn.Blocks) != 1 {
		t.Errorf("blocks = %d\n%s", len(fn.Blocks), fn)
	}
	if countOp(fn, hir.OpStore) != 1 {
		t.Errorf("dead block survived\n%s", fn)
	}
	if err := fn.Validate(); err != nil {
		t.Fatal(err)
	}
}

// genProgram builds a random but well-formed function mixing arithmetic,
// state access, args, branches and a possible raise, driven by seed.
func genProgram(seed int64) *hir.Function {
	rng := rand.New(rand.NewSource(seed))
	b := hir.NewBuilder("rand", 0)
	cells := []string{"c0", "c1", "c2"}
	args := []string{"a0", "a1"}
	var regs []hir.Reg
	emit := func(n int) {
		for i := 0; i < n; i++ {
			switch rng.Intn(7) {
			case 0:
				regs = append(regs, b.Int(int64(rng.Intn(9)-4)))
			case 1:
				regs = append(regs, b.Arg(args[rng.Intn(len(args))]))
			case 2:
				regs = append(regs, b.Load(cells[rng.Intn(len(cells))]))
			case 3:
				if len(regs) >= 2 {
					ops := []hir.BinOp{hir.Add, hir.Sub, hir.Mul, hir.And, hir.Or, hir.Xor, hir.Lt, hir.Eq}
					regs = append(regs, b.Bin(ops[rng.Intn(len(ops))],
						regs[rng.Intn(len(regs))], regs[rng.Intn(len(regs))]))
				}
			case 4:
				if len(regs) >= 1 {
					us := []hir.UnOp{hir.Neg, hir.Not, hir.BNot}
					regs = append(regs, b.Un(us[rng.Intn(len(us))], regs[rng.Intn(len(regs))]))
				}
			case 5:
				if len(regs) >= 1 {
					b.Store(cells[rng.Intn(len(cells))], regs[rng.Intn(len(regs))])
				}
			case 6:
				if len(regs) >= 1 && rng.Intn(3) == 0 {
					b.Raise("E", []string{"v"}, []hir.Reg{regs[rng.Intn(len(regs))]})
				}
			}
		}
	}
	emit(6 + rng.Intn(10))
	if len(regs) > 0 && rng.Intn(2) == 0 {
		cond := regs[rng.Intn(len(regs))]
		thenB := b.NewBlock()
		elseB := b.NewBlock()
		join := b.NewBlock()
		b.SetBlock(hir.Entry)
		b.Branch(cond, thenB, elseB)
		b.SetBlock(thenB)
		emit(3 + rng.Intn(6))
		b.Jump(join)
		b.SetBlock(elseB)
		emit(3 + rng.Intn(6))
		b.Jump(join)
		b.SetBlock(join)
		emit(2 + rng.Intn(4))
	}
	if len(regs) > 0 {
		b.Return(regs[rng.Intn(len(regs))])
	} else {
		b.Return(hir.NoReg)
	}
	return b.Fn()
}

type namedValue struct {
	Name string
	Val  hir.Value
}

type runResult struct {
	ret    hir.Value
	state  map[string]hir.Value
	raises []namedValue
	err    error
}

func run(fn *hir.Function) runResult {
	st := hir.NewState()
	st.Set("c0", hir.IntVal(11))
	var raises []namedValue
	env := &hir.Env{
		Globals: st,
		Args: func(n string) (hir.Value, bool) {
			switch n {
			case "a0":
				return hir.IntVal(3), true
			case "a1":
				return hir.IntVal(-2), true
			}
			return hir.None, false
		},
		LinkRaise: func(site hir.RaiseSite) func([]hir.Value) {
			return func(args []hir.Value) {
				for i, v := range args {
					raises = append(raises, namedValue{Name: site.Names[i], Val: v})
				}
			}
		},
	}
	ret, err := hir.Exec(fn, env)
	return runResult{ret: ret, state: st.Snapshot(), raises: raises, err: err}
}

func equalResults(a, b runResult) bool {
	if (a.err == nil) != (b.err == nil) {
		return false
	}
	if a.err != nil {
		return true // both errored (e.g. div-by-zero kept unfolded)
	}
	if !a.ret.Equal(b.ret) || len(a.raises) != len(b.raises) {
		return false
	}
	for i := range a.raises {
		if a.raises[i].Name != b.raises[i].Name || !a.raises[i].Val.Equal(b.raises[i].Val) {
			return false
		}
	}
	if len(a.state) != len(b.state) {
		return false
	}
	for k, v := range a.state {
		if w, ok := b.state[k]; !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// Property: the full optimization pipeline preserves the observable
// behavior (return value, final state, raise sequence) of random
// programs.
func TestQuickOptimizeSoundness(t *testing.T) {
	f := func(seed int64) bool {
		fn := genProgram(seed)
		orig := run(fn)
		out := Optimize(fn, &Info{}, Default())
		if err := out.Validate(); err != nil {
			t.Logf("seed %d: invalid output: %v", seed, err)
			return false
		}
		opt := run(out)
		if !equalResults(orig, opt) {
			t.Logf("seed %d mismatch:\nORIG(%v) %v\nOPT(%v) %v\nfn:\n%s\nout:\n%s",
				seed, orig.err, orig.state, opt.err, opt.state, fn, out)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: optimization never increases the instruction count on
// straight-line programs without raises (everything is foldable or
// removable, never duplicated).
func TestQuickOptimizeNeverGrowsStraightLine(t *testing.T) {
	f := func(seed int64) bool {
		fn := genProgram(seed)
		if len(fn.Blocks) != 1 {
			return true // branch-folding can duplicate nothing, but skip
		}
		out := Optimize(fn, &Info{}, Default())
		return out.NumInstrs() <= fn.NumInstrs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPeepholeKindSafety(t *testing.T) {
	// Regression: x*1 and x+0 must not be rewritten to a move when x is
	// not a known integer — Mul/Add coerce to int, Mov preserves kind.
	// Found by TestQuickHIRFusionSoundness: a bool flowing through x*1
	// reached an intrinsic as true instead of 1.
	b := hir.NewBuilder("f", 0)
	x := b.Arg("x") // unknown kind (could be bool at runtime)
	one := b.Int(1)
	m := b.Bin(hir.Mul, x, one)
	b.Store("m", m)
	zero := b.Int(0)
	a := b.Bin(hir.Add, x, zero)
	b.Store("a", a)
	fn := b.Fn()
	Peephole(fn)
	if got := countOp(fn, hir.OpBin); got != 2 {
		t.Fatalf("identity rewrites applied to unknown-kind operand:\n%s", fn)
	}
	// With a bool argument, results must be integer 1 under any pipeline.
	st := hir.NewState()
	env := &hir.Env{Globals: st, Args: func(string) (hir.Value, bool) {
		return hir.BoolVal(true), true
	}}
	out := Optimize(fn, &Info{}, Default())
	if _, err := hir.Exec(out, env); err != nil {
		t.Fatal(err)
	}
	if !st.Get("m").Equal(hir.IntVal(1)) || !st.Get("a").Equal(hir.IntVal(1)) {
		t.Errorf("m=%v a=%v, want integer 1", st.Get("m"), st.Get("a"))
	}
	// Known-int operands still simplify.
	b2 := hir.NewBuilder("g", 0)
	y := b2.Int(7)
	two := b2.Int(1)
	p := b2.Bin(hir.Mul, y, two)
	b2.Store("p", p)
	g := b2.Fn()
	Peephole(g)
	if got := countOp(g, hir.OpBin); got != 0 {
		t.Errorf("known-int identity not simplified:\n%s", g)
	}
}
