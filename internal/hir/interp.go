package hir

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Intrinsic is a host function callable from HIR. Pure intrinsics may be
// subject to common-subexpression elimination and dead-code elimination.
// The args slice is only valid during the call: executions pass
// arguments through a reused argument area, so an intrinsic that keeps
// its arguments must copy them.
type Intrinsic struct {
	Fn   func(args []Value) Value
	Pure bool
}

// IntrinsicSlot is a late-bound reference to one named intrinsic.
// Linking binds each OpCall site to a slot once; the host may fill or
// replace the slot's intrinsic at any time, and the site's next call
// sees the change. A call through an empty slot fails with
// ErrNoIntrinsic. Slots are safe for concurrent use.
type IntrinsicSlot struct {
	p atomic.Pointer[Intrinsic]
}

// Load returns the slot's intrinsic, or false when the slot is empty.
func (s *IntrinsicSlot) Load() (Intrinsic, bool) {
	if p := s.p.Load(); p != nil {
		return *p, true
	}
	return Intrinsic{}, false
}

// Store fills the slot.
func (s *IntrinsicSlot) Store(in Intrinsic) { s.p.Store(&in) }

// RaiseSite describes one OpRaise call site to Env.LinkRaise.
type RaiseSite struct {
	Event string
	// Names are the argument names, in the order of the values passed
	// to the linked raise function.
	Names []string
	Async bool
	Delay int64 // timed activation delay (ns); implies Async semantics
}

// Env supplies everything an HIR execution needs from its host. Any nil
// callback degrades gracefully (lookups miss, raises and halts are
// ignored), which keeps analysis-time partial evaluation simple.
//
// Names resolve at link time (see Link): state cells, intrinsic slots,
// helper functions and raise targets are looked up once per call site,
// not per execution.
type Env struct {
	// Args resolves dynamic event arguments (OpArg).
	Args func(name string) (Value, bool)
	// BindArgs resolves static bind-time arguments (OpBindArg).
	BindArgs func(name string) (Value, bool)
	// Globals is the shared state store (OpLoad/OpStore).
	Globals *State
	// LinkIntrinsic resolves OpCall targets: each call site holds the
	// returned slot, so later updates to the slot are seen by the site's
	// next call. With a nil LinkIntrinsic every call fails.
	LinkIntrinsic func(name string) *IntrinsicSlot
	// Funcs resolves OpCallFn targets.
	Funcs map[string]*Function
	// LinkRaise binds one OpRaise site. It returns the function every
	// execution of the site calls with the argument values (ordered as
	// site.Names, valid only during the call); a nil result, or a nil
	// LinkRaise, makes the site a no-op.
	LinkRaise func(site RaiseSite) func(args []Value)
	// Halt stops the remaining handlers of the current event (OpHalt).
	Halt func()
	// MaxSteps bounds execution (0 means the default of 1<<22); exceeded
	// budgets return ErrStepLimit, protecting tests from runaway loops.
	// Every instruction and every block terminator is one step; a block
	// is charged on entry, and callees share their caller's budget.
	MaxSteps int
}

func (env *Env) maxSteps() int {
	if env.MaxSteps > 0 {
		return env.MaxSteps
	}
	return defaultMaxSteps
}

// intrinsicSlot resolves an OpCall target to the slot its site holds.
func (env *Env) intrinsicSlot(name string) *IntrinsicSlot {
	if env.LinkIntrinsic == nil {
		return new(IntrinsicSlot)
	}
	return env.LinkIntrinsic(name)
}

// Errors returned by Exec.
var (
	ErrStepLimit    = errors.New("hir: step limit exceeded")
	ErrDivByZero    = errors.New("hir: division by zero")
	ErrNoIntrinsic  = errors.New("hir: unknown intrinsic")
	ErrNoFunc       = errors.New("hir: unknown function")
	ErrHalted       = errors.New("hir: halted") // internal sentinel
	errCallDepth    = errors.New("hir: call depth exceeded")
	maxCallDepth    = 64
	defaultMaxSteps = 1 << 22
)

// Exec links fn against env and runs it with the given positional
// parameters, returning the function result (None for functions that
// return nothing).
func Exec(fn *Function, env *Env, params ...Value) (Value, error) {
	v, _, err := ExecReuse(fn, env, nil, params...)
	return v, err
}

// ExecReuse is Exec with a caller-supplied scratch buffer, as in
// Linked.Exec. Hot paths should Link once and call Linked.Exec instead:
// ExecReuse links on every call.
func ExecReuse(fn *Function, env *Env, scratch []Value, params ...Value) (Value, []Value, error) {
	l, err := Link(fn, env)
	if err != nil {
		return None, scratch, err
	}
	return l.Exec(scratch, params...)
}

// Linked is a Function whose names have been resolved against an Env:
// loads and stores hold their *Cell, calls their IntrinsicSlot, callfn
// sites their linked callee, and raises the function LinkRaise returned
// for them. Linking is done once per body (at bind or install time), so
// executing a Linked body does no name lookups and, given a large
// enough scratch buffer, no allocations. A Linked body carries mutable
// host state and must not run concurrently with itself on one scratch
// buffer.
type Linked struct {
	name    string
	env     *Env
	numRegs int
	frame   int // registers plus the call and raise argument area
	stack   int // frame plus the stack of the deepest non-recursive callee
	blocks  []linkedBlock
}

type linkedBlock struct {
	code  []linkedInstr
	steps int // instructions plus the terminator: the block's step charge
	term  Term
}

// linkedInstr is an Instr with its name operand resolved.
type linkedInstr struct {
	op        Op
	bin       BinOp
	un        UnOp
	dst, a, b Reg
	args      []Reg
	sym       string // OpArg/OpBindArg name; diagnostics
	k         Value  // OpConst
	cell      *Cell
	slot      *IntrinsicSlot
	raise     func(args []Value)
	callee    *Linked // nil when OpCallFn's target is unknown
}

// Link resolves fn's names against env once. Unknown intrinsics and
// helper functions are not link errors: executing such a site fails with
// ErrNoIntrinsic or ErrNoFunc, so bodies whose runs never reach it still
// work. Link fails only when fn or a callee does not validate.
func Link(fn *Function, env *Env) (*Linked, error) {
	lk := &linker{env: env, done: make(map[*Function]*Linked)}
	l, err := lk.link(fn)
	if err != nil {
		return nil, err
	}
	sizeStack(l, make(map[*Linked]bool))
	return l, nil
}

type linker struct {
	env  *Env
	done map[*Function]*Linked
}

func (lk *linker) link(fn *Function) (*Linked, error) {
	if l, ok := lk.done[fn]; ok {
		return l, nil // already linked, or a recursive call in progress
	}
	if err := fn.Validate(); err != nil {
		return nil, err
	}
	env := lk.env
	l := &Linked{name: fn.Name, env: env, numRegs: fn.NumRegs, blocks: make([]linkedBlock, len(fn.Blocks))}
	lk.done[fn] = l
	maxArgs := 0
	for bi := range fn.Blocks {
		blk := &fn.Blocks[bi]
		code := make([]linkedInstr, len(blk.Instrs))
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			maxArgs = max(maxArgs, len(in.Args))
			li := linkedInstr{
				op: in.Op, bin: in.Bin, un: in.Un, dst: in.Dst, a: in.A, b: in.B,
				args: in.Args, sym: in.Sym, k: in.Const,
			}
			switch in.Op {
			case OpArg:
				if env.Args == nil {
					li.op, li.k = OpConst, None
				}
			case OpBindArg:
				if env.BindArgs == nil {
					li.op, li.k = OpConst, None
				}
			case OpLoad:
				if env.Globals == nil {
					li.op, li.k = OpConst, None
				} else {
					li.cell = env.Globals.CellRef(in.Sym)
				}
			case OpStore:
				if env.Globals == nil {
					li.cell = new(Cell) // no store: every load of this link reads None
				} else {
					li.cell = env.Globals.CellRef(in.Sym)
				}
			case OpCall:
				li.slot = env.intrinsicSlot(in.Sym)
			case OpCallFn:
				if callee, ok := env.Funcs[in.Sym]; ok {
					c, err := lk.link(callee)
					if err != nil {
						return nil, err
					}
					li.callee = c
				}
			case OpRaise:
				if env.LinkRaise != nil {
					li.raise = env.LinkRaise(RaiseSite{Event: in.Sym, Names: in.ArgNames, Async: in.Async, Delay: in.Delay})
				}
			}
			code[ii] = li
		}
		l.blocks[bi] = linkedBlock{code: code, steps: len(code) + 1, term: blk.Term}
	}
	l.frame = fn.NumRegs + maxArgs
	return l, nil
}

// sizeStack sets l.stack: the scratch one execution of l needs so that
// no non-recursive callfn allocates. Recursive calls get the stack
// without the cycle and allocate when they run out.
func sizeStack(l *Linked, onPath map[*Linked]bool) int {
	if l.stack > 0 {
		return l.stack
	}
	onPath[l] = true
	deepest := 0
	for bi := range l.blocks {
		for ii := range l.blocks[bi].code {
			if c := l.blocks[bi].code[ii].callee; c != nil && !onPath[c] {
				deepest = max(deepest, sizeStack(c, onPath))
			}
		}
	}
	delete(onPath, l)
	l.stack = l.frame + deepest
	return l.stack
}

// Exec runs the linked function with the given positional parameters
// and returns its result. scratch is reused for the register file, the
// argument area and callee frames when large enough; the grown scratch
// is returned. Each live execution needs its own scratch (hirrt keeps
// one per nesting depth). OpHalt terminates execution normally after
// notifying the host.
func (l *Linked) Exec(scratch []Value, params ...Value) (Value, []Value, error) {
	if cap(scratch) < l.stack {
		scratch = make([]Value, l.stack)
	}
	budget := l.env.maxSteps()
	v, err := l.run(scratch[:l.stack], params, &budget, 0)
	if errors.Is(err, ErrHalted) {
		return None, scratch, nil
	}
	return v, scratch, err
}

// run executes l on stack (at least l.stack long): registers first, then
// the argument area, then the callee frames. It returns ErrHalted when
// OpHalt ran.
func (l *Linked) run(stack, params []Value, budget *int, depth int) (Value, error) {
	if depth > maxCallDepth {
		return None, errCallDepth
	}
	regs := stack[:l.numRegs]
	clear(regs)
	copy(regs, params)
	area, rest := stack[l.numRegs:l.frame], stack[l.frame:]
	env := l.env
	bid := Entry
	for {
		blk := &l.blocks[bid]
		if *budget -= blk.steps; *budget <= 0 {
			return None, ErrStepLimit
		}
		for ii := range blk.code {
			in := &blk.code[ii]
			switch in.op {
			case OpConst:
				regs[in.dst] = in.k
			case OpMov:
				regs[in.dst] = regs[in.a]
			case OpArg:
				v, ok := env.Args(in.sym)
				if !ok {
					v = None
				}
				regs[in.dst] = v
			case OpBindArg:
				v, ok := env.BindArgs(in.sym)
				if !ok {
					v = None
				}
				regs[in.dst] = v
			case OpLoad:
				regs[in.dst] = in.cell.v
			case OpStore:
				in.cell.Set(regs[in.a])
			case OpBin:
				x, y := &regs[in.a], &regs[in.b]
				if x.Kind == KInt && y.Kind == KInt {
					if i, k := intBin(in.bin, x.I, y.I); k != KNone {
						regs[in.dst] = Value{Kind: k, I: i}
						continue
					}
				}
				v, err := EvalBin(in.bin, *x, *y)
				if err != nil {
					return None, fmt.Errorf("%s: b%d[%d]: %w", l.name, bid, ii, err)
				}
				regs[in.dst] = v
			case OpUn:
				regs[in.dst] = EvalUn(in.un, regs[in.a])
			case OpCall:
				intr := in.slot.p.Load()
				if intr == nil {
					return None, fmt.Errorf("%s: %w: %q", l.name, ErrNoIntrinsic, in.sym)
				}
				regs[in.dst] = intr.Fn(argsIn(area, regs, in.args))
			case OpCallFn:
				c := in.callee
				if c == nil {
					return None, fmt.Errorf("%s: %w: %q", l.name, ErrNoFunc, in.sym)
				}
				sub := rest
				if len(sub) < c.stack {
					sub = make([]Value, c.stack) // recursion deeper than the sized stack
				}
				v, err := c.run(sub, argsIn(area, regs, in.args), budget, depth+1)
				if err != nil {
					return None, err // ErrHalted included: a halt ends the caller too
				}
				regs[in.dst] = v
			case OpRaise:
				if in.raise != nil {
					in.raise(argsIn(area, regs, in.args))
				}
			case OpHalt:
				if env.Halt != nil {
					env.Halt()
				}
				return None, ErrHalted
			default:
				return None, fmt.Errorf("%s: unknown op %v", l.name, in.op)
			}
		}
		switch t := &blk.term; t.Kind {
		case TermJump:
			bid = t.To
		case TermBranch:
			if regs[t.Cond].Bool() {
				bid = t.To
			} else {
				bid = t.Else
			}
		case TermReturn:
			if t.Ret != NoReg {
				return regs[t.Ret], nil
			}
			return None, nil
		default:
			return None, fmt.Errorf("%s: unknown terminator", l.name)
		}
	}
}

// argsIn copies the argument registers rs into the argument area.
func argsIn(area, regs []Value, rs []Reg) []Value {
	args := area[:len(rs)]
	for i, r := range rs {
		args[i] = regs[r]
	}
	return args
}

// intBin is EvalBin on two ints for every operator that cannot fault:
// it returns the result payload and kind, or KNone when EvalBin must
// decide (division or modulo by zero).
func intBin(op BinOp, x, y int64) (int64, Kind) {
	switch op {
	case Add:
		return x + y, KInt
	case Sub:
		return x - y, KInt
	case Mul:
		return x * y, KInt
	case Div:
		if y != 0 {
			return x / y, KInt
		}
	case Mod:
		if y != 0 {
			return x % y, KInt
		}
	case And:
		return x & y, KInt
	case Or:
		return x | y, KInt
	case Xor:
		return x ^ y, KInt
	case Shl:
		return x << (uint64(y) & 63), KInt
	case Shr:
		return x >> (uint64(y) & 63), KInt
	case Eq:
		return b2i(x == y), KBool
	case Ne:
		return b2i(x != y), KBool
	case Lt:
		return b2i(x < y), KBool
	case Le:
		return b2i(x <= y), KBool
	case Gt:
		return b2i(x > y), KBool
	case Ge:
		return b2i(x >= y), KBool
	}
	return 0, KNone
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// EvalBin evaluates a binary operator on two values. Arithmetic and
// bitwise operators work on integer views; comparisons Eq/Ne compare
// structurally, the ordered comparisons compare integer views, and
// Add concatenates strings or byte slices when both operands match.
func EvalBin(op BinOp, a, b Value) (Value, error) {
	switch op {
	case Eq:
		return BoolVal(a.Equal(b)), nil
	case Ne:
		return BoolVal(!a.Equal(b)), nil
	}
	if op == Add {
		if a.Kind == KStr && b.Kind == KStr {
			return StrVal(a.S + b.S), nil
		}
		if a.Kind == KBytes && b.Kind == KBytes {
			out := make([]byte, 0, len(a.B)+len(b.B))
			out = append(out, a.B...)
			out = append(out, b.B...)
			return BytesVal(out), nil
		}
	}
	x, y := a.Int(), b.Int()
	switch op {
	case Add:
		return IntVal(x + y), nil
	case Sub:
		return IntVal(x - y), nil
	case Mul:
		return IntVal(x * y), nil
	case Div:
		if y == 0 {
			return None, ErrDivByZero
		}
		return IntVal(x / y), nil
	case Mod:
		if y == 0 {
			return None, ErrDivByZero
		}
		return IntVal(x % y), nil
	case And:
		return IntVal(x & y), nil
	case Or:
		return IntVal(x | y), nil
	case Xor:
		return IntVal(x ^ y), nil
	case Shl:
		return IntVal(x << (uint64(y) & 63)), nil
	case Shr:
		return IntVal(x >> (uint64(y) & 63)), nil
	case Lt:
		return BoolVal(x < y), nil
	case Le:
		return BoolVal(x <= y), nil
	case Gt:
		return BoolVal(x > y), nil
	case Ge:
		return BoolVal(x >= y), nil
	default:
		return None, fmt.Errorf("hir: unknown binop %v", op)
	}
}

// EvalUn evaluates a unary operator.
func EvalUn(op UnOp, a Value) Value {
	switch op {
	case Neg:
		return IntVal(-a.Int())
	case Not:
		return BoolVal(!a.Bool())
	case BNot:
		return IntVal(^a.Int())
	case Len:
		switch a.Kind {
		case KStr:
			return IntVal(int64(len(a.S)))
		case KBytes:
			return IntVal(int64(len(a.B)))
		default:
			return IntVal(0)
		}
	default:
		return None
	}
}
