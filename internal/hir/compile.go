package hir

import (
	"errors"
	"fmt"
)

// Compiled is a function lowered to threaded closures: each instruction
// becomes one Go closure with its operands and intrinsic targets resolved
// at compile time, so execution dispatches through direct calls instead
// of the interpreter's per-instruction switch. The environment is bound
// at compile time; hirrt's environments read the current activation
// through an indirection cell, so one Compiled value serves every
// activation of its handler.
type Compiled struct {
	name    string
	env     *Env
	numRegs int
	blocks  [][]instrFn
	terms   []termFn
}

// frame is the live register file of one execution.
type frame struct {
	regs   []Value
	budget *int
}

type instrFn func(f *frame) error

// termFn returns the next block, or done with an optional return value.
type termFn func(f *frame) (next BlockID, ret Value, done bool, err error)

// Name reports the compiled function's name.
func (c *Compiled) Name() string { return c.name }

// NumRegs reports the register file size needed to execute.
func (c *Compiled) NumRegs() int { return c.numRegs }

// Compile lowers fn against env. Intrinsic and function references are
// resolved eagerly: a missing intrinsic or OpCallFn target is a compile
// error rather than a runtime one. OpCallFn sites compile their callees
// transitively (recursion falls back to interpretation of the callee).
func Compile(fn *Function, env *Env) (*Compiled, error) {
	return compile(fn, env, map[string]bool{fn.Name: true})
}

func compile(fn *Function, env *Env, inProgress map[string]bool) (*Compiled, error) {
	if err := fn.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{name: fn.Name, env: env, numRegs: fn.NumRegs, terms: make([]termFn, len(fn.Blocks))}
	c.blocks = make([][]instrFn, len(fn.Blocks))
	for bi := range fn.Blocks {
		blk := &fn.Blocks[bi]
		steps := make([]instrFn, 0, len(blk.Instrs))
		for ii := range blk.Instrs {
			step, err := compileInstr(&blk.Instrs[ii], env, inProgress)
			if err != nil {
				return nil, fmt.Errorf("hir: compile %s b%d[%d]: %w", fn.Name, bi, ii, err)
			}
			steps = append(steps, step)
		}
		c.blocks[bi] = steps
		c.terms[bi] = compileTerm(blk.Term)
	}
	return c, nil
}

func compileInstr(in *Instr, env *Env, inProgress map[string]bool) (instrFn, error) {
	dst, a, b := in.Dst, in.A, in.B
	sym := in.Sym
	switch in.Op {
	case OpConst:
		v := in.Const
		return func(f *frame) error { f.regs[dst] = v; return nil }, nil
	case OpMov:
		return func(f *frame) error { f.regs[dst] = f.regs[a]; return nil }, nil
	case OpArg:
		lookup := env.Args
		if lookup == nil {
			return func(f *frame) error { f.regs[dst] = None; return nil }, nil
		}
		return func(f *frame) error {
			v, ok := lookup(sym)
			if !ok {
				v = None
			}
			f.regs[dst] = v
			return nil
		}, nil
	case OpBindArg:
		lookup := env.BindArgs
		if lookup == nil {
			return func(f *frame) error { f.regs[dst] = None; return nil }, nil
		}
		return func(f *frame) error {
			v, ok := lookup(sym)
			if !ok {
				v = None
			}
			f.regs[dst] = v
			return nil
		}, nil
	case OpLoad:
		st := env.Globals
		if st == nil {
			return func(f *frame) error { f.regs[dst] = None; return nil }, nil
		}
		return func(f *frame) error { f.regs[dst] = st.Get(sym); return nil }, nil
	case OpStore:
		st := env.Globals
		if st == nil {
			return func(*frame) error { return nil }, nil
		}
		return func(f *frame) error { st.Set(sym, f.regs[a]); return nil }, nil
	case OpBin:
		op := in.Bin
		// Specialize the hottest operators; the rest share EvalBin.
		switch op {
		case Add:
			return func(f *frame) error {
				x, y := f.regs[a], f.regs[b]
				if x.Kind == KInt && y.Kind == KInt {
					f.regs[dst] = Value{Kind: KInt, I: x.I + y.I}
					return nil
				}
				v, err := EvalBin(Add, x, y)
				f.regs[dst] = v
				return err
			}, nil
		case Sub:
			return func(f *frame) error {
				x, y := f.regs[a], f.regs[b]
				if x.Kind == KInt && y.Kind == KInt {
					f.regs[dst] = Value{Kind: KInt, I: x.I - y.I}
					return nil
				}
				v, err := EvalBin(Sub, x, y)
				f.regs[dst] = v
				return err
			}, nil
		default:
			return func(f *frame) error {
				v, err := EvalBin(op, f.regs[a], f.regs[b])
				f.regs[dst] = v
				return err
			}, nil
		}
	case OpUn:
		op := in.Un
		return func(f *frame) error { f.regs[dst] = EvalUn(op, f.regs[a]); return nil }, nil
	case OpCall:
		intr, ok := env.intrinsicSlot(sym).Load()
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoIntrinsic, sym)
		}
		call := intr.Fn
		args := append([]Reg(nil), in.Args...)
		switch len(args) {
		case 1:
			a0 := args[0]
			return func(f *frame) error {
				var buf [1]Value
				buf[0] = f.regs[a0]
				f.regs[dst] = call(buf[:])
				return nil
			}, nil
		case 2:
			a0, a1 := args[0], args[1]
			return func(f *frame) error {
				var buf [2]Value
				buf[0], buf[1] = f.regs[a0], f.regs[a1]
				f.regs[dst] = call(buf[:])
				return nil
			}, nil
		default:
			return func(f *frame) error {
				vals := make([]Value, len(args))
				for i, r := range args {
					vals[i] = f.regs[r]
				}
				f.regs[dst] = call(vals)
				return nil
			}, nil
		}
	case OpCallFn:
		callee, ok := env.Funcs[sym]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoFunc, sym)
		}
		args := append([]Reg(nil), in.Args...)
		if inProgress[sym] {
			// Recursive call: interpret the callee; a halt inside it
			// aborts the caller, matching interpreter semantics.
			lc, err := Link(callee, env)
			if err != nil {
				return nil, err
			}
			return func(f *frame) error {
				vals := make([]Value, len(args))
				for i, r := range args {
					vals[i] = f.regs[r]
				}
				v, err := lc.run(make([]Value, lc.stack), vals, f.budget, 0)
				f.regs[dst] = v
				return err
			}, nil
		}
		inProgress[sym] = true
		sub, err := compile(callee, env, inProgress)
		delete(inProgress, sym)
		if err != nil {
			return nil, err
		}
		return func(f *frame) error {
			vals := make([]Value, len(args))
			for i, r := range args {
				vals[i] = f.regs[r]
			}
			v, err := sub.run(make([]Value, sub.numRegs), vals, f.budget)
			f.regs[dst] = v
			return err
		}, nil
	case OpRaise:
		var raise func([]Value)
		if env.LinkRaise != nil {
			raise = env.LinkRaise(RaiseSite{Event: sym, Names: in.ArgNames, Async: in.Async, Delay: in.Delay})
		}
		if raise == nil {
			return func(*frame) error { return nil }, nil
		}
		args := append([]Reg(nil), in.Args...)
		return func(f *frame) error {
			vals := make([]Value, len(args))
			for i, r := range args {
				vals[i] = f.regs[r]
			}
			raise(vals)
			return nil
		}, nil
	case OpGuard:
		guard := env.guard(in)
		return func(f *frame) error { f.regs[dst] = BoolVal(guard()); return nil }, nil
	case OpHalt:
		halt := env.Halt
		return func(*frame) error {
			if halt != nil {
				halt()
			}
			return ErrHalted
		}, nil
	default:
		return nil, fmt.Errorf("hir: cannot compile op %v", in.Op)
	}
}

func compileTerm(t Term) termFn {
	switch t.Kind {
	case TermJump:
		to := t.To
		return func(*frame) (BlockID, Value, bool, error) { return to, None, false, nil }
	case TermBranch:
		cond, to, els := t.Cond, t.To, t.Else
		return func(f *frame) (BlockID, Value, bool, error) {
			if f.regs[cond].Bool() {
				return to, None, false, nil
			}
			return els, None, false, nil
		}
	default: // TermReturn
		ret := t.Ret
		if ret == NoReg {
			return func(*frame) (BlockID, Value, bool, error) { return 0, None, true, nil }
		}
		return func(f *frame) (BlockID, Value, bool, error) { return 0, f.regs[ret], true, nil }
	}
}

// Exec runs the compiled function. scratch is reused for the register
// file when large enough (as in Linked.Exec); the grown scratch is
// returned. OpHalt terminates execution normally, matching the
// interpreter's contract, and the step budget (Env.MaxSteps) is counted
// the interpreter's way and shared with every callee.
func (c *Compiled) Exec(scratch []Value, params ...Value) (Value, []Value, error) {
	if cap(scratch) < c.numRegs {
		scratch = make([]Value, c.numRegs)
	}
	budget := c.env.maxSteps()
	v, err := c.run(scratch[:c.numRegs], params, &budget)
	if errors.Is(err, ErrHalted) {
		return None, scratch, nil
	}
	return v, scratch, err
}

// run executes c on regs, charging budget; it returns ErrHalted when
// OpHalt ran, so compiled call sites can propagate the halt.
func (c *Compiled) run(regs, params []Value, budget *int) (Value, error) {
	clear(regs)
	copy(regs, params)
	f := &frame{regs: regs, budget: budget}
	bid := Entry
	for {
		steps := c.blocks[bid]
		if *budget -= len(steps) + 1; *budget <= 0 {
			return None, ErrStepLimit
		}
		for _, step := range steps {
			if err := step(f); err != nil {
				if errors.Is(err, ErrHalted) {
					return None, ErrHalted
				}
				return None, fmt.Errorf("%s: %w", c.name, err)
			}
		}
		next, ret, done, err := c.terms[bid](f)
		if err != nil {
			return None, err
		}
		if done {
			return ret, nil
		}
		bid = next
	}
}
