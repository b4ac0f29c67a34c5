package hir

import (
	"fmt"
	"slices"
	"strings"
)

// Reg is a virtual register index within a Function.
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// BlockID indexes a basic block within a Function.
type BlockID int32

// Op enumerates HIR instructions.
type Op uint8

const (
	// OpConst: Dst = Const.
	OpConst Op = iota
	// OpMov: Dst = A.
	OpMov
	// OpArg: Dst = dynamic event argument named Sym (None if absent).
	OpArg
	// OpBindArg: Dst = static bind-time argument named Sym (None if absent).
	OpBindArg
	// OpLoad: Dst = global state cell Sym.
	OpLoad
	// OpStore: state cell Sym = A.
	OpStore
	// OpBin: Dst = A <Bin> B.
	OpBin
	// OpUn: Dst = <Un> A.
	OpUn
	// OpCall: Dst = intrinsic Sym(Args...). Purity comes from the
	// intrinsic registry at analysis time.
	OpCall
	// OpCallFn: Dst = HIR function Sym(Args...); inlinable.
	OpCallFn
	// OpRaise: raise event Sym with named arguments (ArgNames[i] bound to
	// Args[i]); Async/Delay select the activation mode. The optimizer's
	// subsumption replaces synchronous OpRaise instructions with the
	// inlined handler code of the raised event.
	OpRaise
	// OpHalt: stop execution of the remaining handlers of the current
	// event (and of the current function).
	OpHalt
	// OpGuard: Dst = whether the statically spliced copy of event Sym's
	// segment may run in place of its raise: the host checks that
	// segment Const (an int index) of the running super-handler is still
	// Sym with its planned binding version, and that nothing observes
	// the run. It reads host state, so the passes never fold, merge or
	// drop it.
	OpGuard
)

var opNames = [...]string{
	OpConst: "const", OpMov: "mov", OpArg: "arg", OpBindArg: "bindarg",
	OpLoad: "load", OpStore: "store", OpBin: "bin", OpUn: "un",
	OpCall: "call", OpCallFn: "callfn", OpRaise: "raise", OpHalt: "halt",
	OpGuard: "guard",
}

// String names the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	And
	Or
	Xor
	Shl
	Shr
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
)

var binNames = [...]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%", And: "&", Or: "|",
	Xor: "^", Shl: "<<", Shr: ">>", Eq: "==", Ne: "!=", Lt: "<", Le: "<=",
	Gt: ">", Ge: ">=",
}

// String renders the operator.
func (b BinOp) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("BinOp(%d)", uint8(b))
}

// UnOp enumerates unary operators.
type UnOp uint8

const (
	// Neg is arithmetic negation.
	Neg UnOp = iota
	// Not is logical negation (any value; uses Value.Bool).
	Not
	// BNot is bitwise complement.
	BNot
	// Len yields the length of a string or byte value.
	Len
)

var unNames = [...]string{Neg: "neg", Not: "not", BNot: "bnot", Len: "len"}

// String renders the operator.
func (u UnOp) String() string {
	if int(u) < len(unNames) {
		return unNames[u]
	}
	return fmt.Sprintf("UnOp(%d)", uint8(u))
}

// Instr is one HIR instruction.
type Instr struct {
	Op       Op
	Dst      Reg
	A, B     Reg
	Args     []Reg
	ArgNames []string
	Sym      string
	Const    Value
	Bin      BinOp
	Un       UnOp
	Async    bool  // OpRaise: asynchronous activation
	Delay    int64 // OpRaise: timed activation delay (ns); implies Async semantics
}

// HasDst reports whether the instruction writes a register.
func (in *Instr) HasDst() bool {
	switch in.Op {
	case OpStore, OpRaise, OpHalt:
		return false
	default:
		return in.Dst != NoReg
	}
}

// uses appends the registers the instruction reads to buf.
func (in *Instr) uses(buf []Reg) []Reg {
	switch in.Op {
	case OpMov, OpUn, OpStore:
		if in.A != NoReg {
			buf = append(buf, in.A)
		}
	case OpBin:
		buf = append(buf, in.A, in.B)
	case OpCall, OpCallFn, OpRaise:
		buf = append(buf, in.Args...)
	}
	return buf
}

// ReadBeforeWrite returns, in ascending order, the registers that some
// path from the entry block reads before writing: the registers whose
// entry value (None in a fresh execution) the function can observe.
func (f *Function) ReadBeforeWrite() []Reg {
	liveIn := make([]map[Reg]bool, len(f.Blocks))
	for changed := true; changed; {
		changed = false
		for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
			blk := &f.Blocks[bi]
			live := make(map[Reg]bool)
			t := blk.Term
			switch t.Kind {
			case TermJump:
				for r := range liveIn[t.To] {
					live[r] = true
				}
			case TermBranch:
				for r := range liveIn[t.To] {
					live[r] = true
				}
				for r := range liveIn[t.Else] {
					live[r] = true
				}
				live[t.Cond] = true
			case TermReturn:
				if t.Ret != NoReg {
					live[t.Ret] = true
				}
			}
			var buf []Reg
			for ii := len(blk.Instrs) - 1; ii >= 0; ii-- {
				in := &blk.Instrs[ii]
				if in.HasDst() {
					delete(live, in.Dst)
				}
				buf = in.uses(buf[:0])
				for _, r := range buf {
					live[r] = true
				}
			}
			if len(live) != len(liveIn[bi]) {
				liveIn[bi], changed = live, true
			}
		}
	}
	out := make([]Reg, 0, len(liveIn[Entry]))
	for r := range liveIn[Entry] {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// String renders the instruction.
func (in *Instr) String() string {
	var b strings.Builder
	if in.HasDst() {
		fmt.Fprintf(&b, "r%d = ", in.Dst)
	}
	switch in.Op {
	case OpConst:
		fmt.Fprintf(&b, "const %s", in.Const)
	case OpMov:
		fmt.Fprintf(&b, "r%d", in.A)
	case OpArg:
		fmt.Fprintf(&b, "arg %q", in.Sym)
	case OpBindArg:
		fmt.Fprintf(&b, "bindarg %q", in.Sym)
	case OpLoad:
		fmt.Fprintf(&b, "load %q", in.Sym)
	case OpStore:
		fmt.Fprintf(&b, "store %q, r%d", in.Sym, in.A)
	case OpBin:
		fmt.Fprintf(&b, "r%d %s r%d", in.A, in.Bin, in.B)
	case OpUn:
		fmt.Fprintf(&b, "%s r%d", in.Un, in.A)
	case OpCall, OpCallFn:
		fmt.Fprintf(&b, "%s %q(", in.Op, in.Sym)
		for i, r := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "r%d", r)
		}
		b.WriteByte(')')
	case OpRaise:
		mode := "sync"
		if in.Delay > 0 {
			mode = fmt.Sprintf("delay=%d", in.Delay)
		} else if in.Async {
			mode = "async"
		}
		fmt.Fprintf(&b, "raise %q [%s] (", in.Sym, mode)
		for i, r := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=r%d", in.ArgNames[i], r)
		}
		b.WriteByte(')')
	case OpHalt:
		b.WriteString("halt")
	case OpGuard:
		fmt.Fprintf(&b, "guard %q, %s", in.Sym, in.Const)
	default:
		fmt.Fprintf(&b, "%s ?", in.Op)
	}
	return b.String()
}

// TermKind enumerates block terminators.
type TermKind uint8

const (
	// TermJump transfers to To.
	TermJump TermKind = iota
	// TermBranch transfers to To when Cond is true, otherwise Else.
	TermBranch
	// TermReturn leaves the function, optionally yielding Ret.
	TermReturn
)

// Term is a block terminator.
type Term struct {
	Kind TermKind
	Cond Reg
	To   BlockID
	Else BlockID
	Ret  Reg // NoReg for no result
}

// String renders the terminator.
func (t Term) String() string {
	switch t.Kind {
	case TermJump:
		return fmt.Sprintf("jump b%d", t.To)
	case TermBranch:
		return fmt.Sprintf("branch r%d ? b%d : b%d", t.Cond, t.To, t.Else)
	case TermReturn:
		if t.Ret != NoReg {
			return fmt.Sprintf("return r%d", t.Ret)
		}
		return "return"
	default:
		return "?"
	}
}

// Block is one basic block.
type Block struct {
	Instrs []Instr
	Term   Term
}

// Function is an HIR function. Registers 0..NumParams-1 hold the
// positional parameters (used by OpCallFn); handler bodies usually take
// zero parameters and read event arguments with OpArg instead.
type Function struct {
	Name      string
	NumParams int
	NumRegs   int
	Blocks    []Block
}

// Entry is the entry block of every function.
const Entry BlockID = 0

// NumInstrs counts instructions across all blocks (the code-size metric
// used for the paper's objdump comparison).
func (f *Function) NumInstrs() int {
	n := 0
	for i := range f.Blocks {
		n += len(f.Blocks[i].Instrs)
	}
	return n
}

// Clone deep-copies the function.
func (f *Function) Clone() *Function {
	g := &Function{Name: f.Name, NumParams: f.NumParams, NumRegs: f.NumRegs}
	g.Blocks = make([]Block, len(f.Blocks))
	for i := range f.Blocks {
		src := &f.Blocks[i]
		dst := &g.Blocks[i]
		dst.Term = src.Term
		dst.Instrs = make([]Instr, len(src.Instrs))
		for j := range src.Instrs {
			in := src.Instrs[j]
			if in.Args != nil {
				in.Args = append([]Reg(nil), in.Args...)
			}
			if in.ArgNames != nil {
				in.ArgNames = append([]string(nil), in.ArgNames...)
			}
			dst.Instrs[j] = in
		}
	}
	return g
}

// String disassembles the function.
func (f *Function) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (params=%d, regs=%d)\n", f.Name, f.NumParams, f.NumRegs)
	for i := range f.Blocks {
		fmt.Fprintf(&b, "b%d:\n", i)
		for j := range f.Blocks[i].Instrs {
			fmt.Fprintf(&b, "  %s\n", f.Blocks[i].Instrs[j].String())
		}
		fmt.Fprintf(&b, "  %s\n", f.Blocks[i].Term)
	}
	return b.String()
}
