package hir

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompileStraightLine(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(6)
	y := b.Int(7)
	z := b.Bin(Mul, x, y)
	b.Store("out", z)
	b.Return(z)
	fn := b.Fn()
	st := NewState()
	c, err := Compile(fn, &Env{Globals: st})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "f" || c.NumRegs() != fn.NumRegs {
		t.Errorf("metadata: %s, %d", c.Name(), c.NumRegs())
	}
	got, _, err := c.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 || st.Get("out").Int() != 42 {
		t.Errorf("result %v, out %v", got, st.Get("out"))
	}
}

func TestCompileBranchesAndLoop(t *testing.T) {
	// Same loop as the interpreter test: sum 1..n via state cells.
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
	b.Store("sum", b.Bin(Add, s, i2))
	one := b.Int(1)
	b.Store("i", b.Bin(Sub, i2, one))
	b.Jump(cond)
	b.SetBlock(exit)
	res := b.Load("sum")
	b.Return(res)
	fn := b.Fn()

	comp, err := Compile(fn, &Env{Globals: NewState()})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := comp.Exec(nil, IntVal(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 55 {
		t.Errorf("sumdown(10) = %v", got)
	}
}

func TestCompileHaltSemantics(t *testing.T) {
	b := NewBuilder("f", 0)
	one := b.Int(1)
	b.Store("before", one)
	b.Halt()
	b.Store("after", one)
	b.Return(NoReg)
	fn := b.Fn()
	st := NewState()
	halted := false
	comp, err := Compile(fn, &Env{Globals: st, Halt: func() { halted = true }})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := comp.Exec(nil); err != nil {
		t.Fatal(err)
	}
	if !halted || st.Get("before").Int() != 1 || !st.Get("after").Equal(None) {
		t.Errorf("halted=%v before=%v after=%v", halted, st.Get("before"), st.Get("after"))
	}
}

func TestCompileHaltPropagatesThroughCallFn(t *testing.T) {
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
	comp, err := Compile(outer, &Env{Globals: st, Funcs: map[string]*Function{"inner": inner}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := comp.Exec(nil); err != nil {
		t.Fatal(err)
	}
	if !st.Get("after").Equal(None) {
		t.Error("halt did not abort the compiled caller")
	}
}

func TestCompileRecursiveCallFallsBackToInterp(t *testing.T) {
	// rec(n): if n > 0 { out += n; rec(n-1) }
	rb := NewBuilder("rec", 1)
	n := rb.Param(0)
	z := rb.Int(0)
	c := rb.Bin(Gt, n, z)
	body := rb.NewBlock()
	done := rb.NewBlock()
	rb.SetBlock(Entry)
	rb.Branch(c, body, done)
	rb.SetBlock(body)
	o := rb.Load("out")
	rb.Store("out", rb.Bin(Add, o, n))
	one := rb.Int(1)
	dec := rb.Bin(Sub, n, one)
	rb.CallFn("rec", dec)
	rb.Jump(done)
	rb.SetBlock(done)
	rb.Return(NoReg)
	rec := rb.Fn()

	st := NewState()
	comp, err := Compile(rec, &Env{Globals: st, Funcs: map[string]*Function{"rec": rec}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := comp.Exec(nil, IntVal(5)); err != nil {
		t.Fatal(err)
	}
	if st.Get("out").Int() != 15 {
		t.Errorf("out = %v", st.Get("out"))
	}
}

func TestCompileErrors(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(1)
	b.Call("missing", x)
	b.Return(NoReg)
	if _, err := Compile(b.Fn(), &Env{}); !errors.Is(err, ErrNoIntrinsic) {
		t.Errorf("missing intrinsic: %v", err)
	}

	b2 := NewBuilder("g", 0)
	b2.CallFn("nowhere")
	b2.Return(NoReg)
	if _, err := Compile(b2.Fn(), &Env{}); !errors.Is(err, ErrNoFunc) {
		t.Errorf("missing func: %v", err)
	}

	bad := &Function{Name: "bad"}
	if _, err := Compile(bad, &Env{}); err == nil {
		t.Error("invalid function compiled")
	}
}

func TestCompileStepLimit(t *testing.T) {
	b := NewBuilder("spin", 0)
	b.Jump(Entry)
	comp, err := Compile(b.Fn(), &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := comp.Exec(nil); !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v", err)
	}
}

func TestCompileDivByZeroSurfaces(t *testing.T) {
	b := NewBuilder("f", 0)
	x := b.Int(1)
	y := b.Int(0)
	z := b.Bin(Div, x, y)
	b.Return(z)
	comp, err := Compile(b.Fn(), &Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := comp.Exec(nil); !errors.Is(err, ErrDivByZero) {
		t.Errorf("err = %v", err)
	}
}

// genCompileProgram builds a random function over state, args, raises
// and branches (no loops: termination by construction).
func genCompileProgram(seed int64) *Function {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("rand", 0)
	cells := []string{"c0", "c1"}
	var regs []Reg
	pick := func() Reg { return regs[rng.Intn(len(regs))] }
	regs = append(regs, b.Arg("a0"), b.Arg("a1"), b.BindArg("k"))
	emit := func(k int) {
		for i := 0; i < k; i++ {
			switch rng.Intn(8) {
			case 0:
				regs = append(regs, b.Int(int64(rng.Intn(9)-4)))
			case 1:
				regs = append(regs, b.Load(cells[rng.Intn(2)]))
			case 2:
				ops := []BinOp{Add, Sub, Mul, Xor, And, Or, Lt, Le, Eq, Ne, Shl}
				regs = append(regs, b.Bin(ops[rng.Intn(len(ops))], pick(), pick()))
			case 3:
				us := []UnOp{Neg, Not, BNot, Len}
				regs = append(regs, b.Un(us[rng.Intn(len(us))], pick()))
			case 4:
				b.Store(cells[rng.Intn(2)], pick())
			case 5:
				args := make([]Reg, 1+rng.Intn(3))
				for j := range args {
					args[j] = pick()
				}
				regs = append(regs, b.Call("mix", args...))
			case 6:
				names := []string{"v0", "v1", "v2"}[:1+rng.Intn(3)]
				args := make([]Reg, len(names))
				for j := range args {
					args[j] = pick()
				}
				switch rng.Intn(3) {
				case 0:
					b.Raise("E", names, args)
				case 1:
					b.RaiseAsync("E", names, args)
				default:
					b.RaiseAfter(5, "E", names, args)
				}
			case 7:
				if rng.Intn(2) == 0 {
					b.Halt()
				}
			}
		}
	}
	emit(5 + rng.Intn(8))
	if rng.Intn(2) == 0 {
		c := pick()
		cur := b.Current()
		tB := b.NewBlock()
		eB := b.NewBlock()
		jB := b.NewBlock()
		b.SetBlock(cur)
		b.Branch(c, tB, eB)
		b.SetBlock(tB)
		emit(3)
		b.Jump(jB)
		b.SetBlock(eB)
		emit(3)
		b.Jump(jB)
		b.SetBlock(jB)
		emit(2)
	}
	b.Return(pick())
	return b.Fn()
}

// Property: the closure compiler agrees with the interpreter on return
// value, final state, raise log and halt behavior for random programs.
func TestQuickCompileMatchesInterp(t *testing.T) {
	f := func(seed int64) bool {
		fn := genCompileProgram(seed)

		runWith := func(exec func(env *Env) (Value, error)) (Value, map[string]Value, []string, bool, bool) {
			st := NewState()
			st.Set("c0", IntVal(3))
			var raises []string
			halted := false
			env := &Env{
				Globals: st,
				Args: func(n string) (Value, bool) {
					switch n {
					case "a0":
						return IntVal(7), true
					case "a1":
						return BoolVal(true), true
					}
					return None, false
				},
				BindArgs: func(n string) (Value, bool) { return StrVal("kk"), true },
				LinkIntrinsic: slots(map[string]Intrinsic{
					"mix": {Pure: true, Fn: func(a []Value) Value {
						h := int64(17)
						for _, v := range a {
							h = h*31 ^ v.Int()
						}
						return IntVal(h)
					}},
				}),
				LinkRaise: func(site RaiseSite) func([]Value) {
					return func(args []Value) {
						r := fmt.Sprintf("%s async=%v delay=%d", site.Event, site.Async, site.Delay)
						for i, v := range args {
							r += " " + site.Names[i] + "=" + v.String()
						}
						raises = append(raises, r)
					}
				},
				Halt: func() { halted = true },
			}
			v, err := exec(env)
			return v, st.Snapshot(), raises, halted, err == nil
		}

		iv, ist, ir, ih, iok := runWith(func(env *Env) (Value, error) { return Exec(fn, env) })
		cv, cst, cr, ch, cok := runWith(func(env *Env) (Value, error) {
			comp, err := Compile(fn, env)
			if err != nil {
				return None, err
			}
			v, _, err := comp.Exec(nil)
			return v, err
		})

		if iok != cok {
			t.Logf("seed %d: ok mismatch interp=%v compiled=%v", seed, iok, cok)
			return false
		}
		if !iok {
			return true // both failed (e.g. div-by-zero): equivalent
		}
		if !iv.Equal(cv) || ih != ch || len(ir) != len(cr) {
			t.Logf("seed %d: ret %v/%v halt %v/%v raises %v/%v\n%s", seed, iv, cv, ih, ch, ir, cr, fn)
			return false
		}
		for i := range ir {
			if ir[i] != cr[i] {
				return false
			}
		}
		if len(ist) != len(cst) {
			return false
		}
		for k, v := range ist {
			if w, ok := cst[k]; !ok || !v.Equal(w) {
				t.Logf("seed %d: cell %s %v/%v", seed, k, v, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStepBudgetMatchesAcrossTiers: both tiers honour Env.MaxSteps,
// charge every instruction and terminator, and share one budget with
// their callees. spin calls tick forever; an iteration costs 2 steps in
// spin (callfn + jump) and 5 in tick (4 instructions + return), so a
// budget of 1000 completes 142 iterations (1000 - 7*142 = 6 left, too few
// for tick's block in the next one).
func TestStepBudgetMatchesAcrossTiers(t *testing.T) {
	tb := NewBuilder("tick", 0)
	tb.Store("n", tb.Bin(Add, tb.Load("n"), tb.Int(1)))
	tb.Return(NoReg)
	tick := tb.Fn()
	sb := NewBuilder("spin", 0)
	sb.CallFn("tick")
	sb.Jump(Entry)
	spin := sb.Fn()

	tiers := map[string]func(*Env) error{
		"interp": func(env *Env) error { _, err := Exec(spin, env); return err },
		"compiled": func(env *Env) error {
			c, err := Compile(spin, env)
			if err != nil {
				return err
			}
			_, _, err = c.Exec(nil)
			return err
		},
	}
	for name, run := range tiers {
		st := NewState()
		err := run(&Env{Globals: st, Funcs: map[string]*Function{"tick": tick}, MaxSteps: 1000})
		if !errors.Is(err, ErrStepLimit) {
			t.Errorf("%s: err = %v, want ErrStepLimit", name, err)
		}
		if got := st.Get("n").Int(); got != 142 {
			t.Errorf("%s: %d iterations under MaxSteps 1000, want 142", name, got)
		}
	}
}
