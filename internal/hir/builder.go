package hir

import "fmt"

// Builder constructs Functions incrementally. All emit methods append to
// the current block; NewBlock opens a fresh block and SetBlock switches
// between blocks (to fill branch arms out of order).
type Builder struct {
	fn  *Function
	cur BlockID
}

// NewBuilder starts a function with the given name and number of
// positional parameters (registers 0..numParams-1).
func NewBuilder(name string, numParams int) *Builder {
	fn := &Function{Name: name, NumParams: numParams, NumRegs: numParams}
	fn.Blocks = append(fn.Blocks, Block{Term: Term{Kind: TermReturn, Ret: NoReg}})
	return &Builder{fn: fn}
}

// Param returns the register of positional parameter i.
func (b *Builder) Param(i int) Reg {
	if i < 0 || i >= b.fn.NumParams {
		panic(fmt.Sprintf("hir: Param(%d) out of range", i))
	}
	return Reg(i)
}

// NewBlock appends an empty block (terminated by a plain return until
// sealed) and makes it current.
func (b *Builder) NewBlock() BlockID {
	id := BlockID(len(b.fn.Blocks))
	b.fn.Blocks = append(b.fn.Blocks, Block{Term: Term{Kind: TermReturn, Ret: NoReg}})
	b.cur = id
	return id
}

// SetBlock makes an existing block current.
func (b *Builder) SetBlock(id BlockID) {
	if int(id) >= len(b.fn.Blocks) {
		panic(fmt.Sprintf("hir: SetBlock(%d) out of range", id))
	}
	b.cur = id
}

// Current returns the current block.
func (b *Builder) Current() BlockID { return b.cur }

func (b *Builder) newReg() Reg {
	r := Reg(b.fn.NumRegs)
	b.fn.NumRegs++
	return r
}

func (b *Builder) emit(in Instr) Reg {
	blk := &b.fn.Blocks[b.cur]
	blk.Instrs = append(blk.Instrs, in)
	return in.Dst
}

// Const emits dst = v.
func (b *Builder) Const(v Value) Reg {
	return b.emit(Instr{Op: OpConst, Dst: b.newReg(), Const: v})
}

// Int emits dst = IntVal(i).
func (b *Builder) Int(i int64) Reg { return b.Const(IntVal(i)) }

// Mov emits dst = src.
func (b *Builder) Mov(src Reg) Reg {
	return b.emit(Instr{Op: OpMov, Dst: b.newReg(), A: src})
}

// Arg emits dst = dynamic event argument name.
func (b *Builder) Arg(name string) Reg {
	return b.emit(Instr{Op: OpArg, Dst: b.newReg(), Sym: name})
}

// BindArg emits dst = static bind-time argument name.
func (b *Builder) BindArg(name string) Reg {
	return b.emit(Instr{Op: OpBindArg, Dst: b.newReg(), Sym: name})
}

// Load emits dst = global cell name.
func (b *Builder) Load(name string) Reg {
	return b.emit(Instr{Op: OpLoad, Dst: b.newReg(), Sym: name})
}

// Store emits cell name = src.
func (b *Builder) Store(name string, src Reg) {
	b.emit(Instr{Op: OpStore, A: src, Sym: name, Dst: NoReg})
}

// Bin emits dst = x op y.
func (b *Builder) Bin(op BinOp, x, y Reg) Reg {
	return b.emit(Instr{Op: OpBin, Dst: b.newReg(), A: x, B: y, Bin: op})
}

// Un emits dst = op x.
func (b *Builder) Un(op UnOp, x Reg) Reg {
	return b.emit(Instr{Op: OpUn, Dst: b.newReg(), A: x, Un: op})
}

// Call emits dst = intrinsic name(args...).
func (b *Builder) Call(name string, args ...Reg) Reg {
	return b.emit(Instr{Op: OpCall, Dst: b.newReg(), Sym: name, Args: args})
}

// CallFn emits dst = HIR function name(args...).
func (b *Builder) CallFn(name string, args ...Reg) Reg {
	return b.emit(Instr{Op: OpCallFn, Dst: b.newReg(), Sym: name, Args: args})
}

// Raise emits a synchronous raise of the named event. names and regs run
// in parallel.
func (b *Builder) Raise(eventName string, names []string, regs []Reg) {
	if len(names) != len(regs) {
		panic("hir: Raise: names/regs length mismatch")
	}
	b.emit(Instr{Op: OpRaise, Dst: NoReg, Sym: eventName, ArgNames: names, Args: regs})
}

// RaiseAsync emits an asynchronous raise.
func (b *Builder) RaiseAsync(eventName string, names []string, regs []Reg) {
	if len(names) != len(regs) {
		panic("hir: RaiseAsync: names/regs length mismatch")
	}
	b.emit(Instr{Op: OpRaise, Dst: NoReg, Sym: eventName, ArgNames: names, Args: regs, Async: true})
}

// RaiseAfter emits a timed raise with the given delay in nanoseconds.
func (b *Builder) RaiseAfter(delay int64, eventName string, names []string, regs []Reg) {
	if len(names) != len(regs) {
		panic("hir: RaiseAfter: names/regs length mismatch")
	}
	b.emit(Instr{Op: OpRaise, Dst: NoReg, Sym: eventName, ArgNames: names, Args: regs, Async: true, Delay: delay})
}

// Halt emits a halt of the current event's handler list.
func (b *Builder) Halt() {
	b.emit(Instr{Op: OpHalt, Dst: NoReg})
}

// Jump seals the current block with a jump.
func (b *Builder) Jump(to BlockID) {
	b.fn.Blocks[b.cur].Term = Term{Kind: TermJump, To: to}
}

// Branch seals the current block with a conditional branch.
func (b *Builder) Branch(cond Reg, then, els BlockID) {
	b.fn.Blocks[b.cur].Term = Term{Kind: TermBranch, Cond: cond, To: then, Else: els}
}

// Return seals the current block with a return (NoReg for none).
func (b *Builder) Return(ret Reg) {
	b.fn.Blocks[b.cur].Term = Term{Kind: TermReturn, Ret: ret}
}

// Fn validates and returns the constructed function.
func (b *Builder) Fn() *Function {
	if err := b.fn.Validate(); err != nil {
		panic("hir: invalid function from builder: " + err.Error())
	}
	return b.fn
}

// Validate checks structural well-formedness: register and block indices
// in range, argument lists consistent.
func (f *Function) Validate() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("hir: %s: no blocks", f.Name)
	}
	checkReg := func(r Reg, what string, bi BlockID, ii int) error {
		if r < 0 || int(r) >= f.NumRegs {
			return fmt.Errorf("hir: %s: b%d[%d]: %s register r%d out of range [0,%d)", f.Name, bi, ii, what, r, f.NumRegs)
		}
		return nil
	}
	for bi := range f.Blocks {
		blk := &f.Blocks[bi]
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			if in.HasDst() {
				if err := checkReg(in.Dst, "dst", BlockID(bi), ii); err != nil {
					return err
				}
			}
			for _, u := range in.uses(nil) {
				if err := checkReg(u, "use", BlockID(bi), ii); err != nil {
					return err
				}
			}
			if in.Op == OpRaise && len(in.Args) != len(in.ArgNames) {
				return fmt.Errorf("hir: %s: b%d[%d]: raise arg mismatch", f.Name, bi, ii)
			}
			if in.Op == OpGuard && (in.Const.Kind != KInt || in.Const.I < 0) {
				return fmt.Errorf("hir: %s: b%d[%d]: guard segment %s is not a non-negative int", f.Name, bi, ii, in.Const)
			}
		}
		t := blk.Term
		switch t.Kind {
		case TermJump:
			if int(t.To) >= len(f.Blocks) || t.To < 0 {
				return fmt.Errorf("hir: %s: b%d: jump target b%d out of range", f.Name, bi, t.To)
			}
		case TermBranch:
			if int(t.To) >= len(f.Blocks) || t.To < 0 || int(t.Else) >= len(f.Blocks) || t.Else < 0 {
				return fmt.Errorf("hir: %s: b%d: branch target out of range", f.Name, bi)
			}
			if err := checkReg(t.Cond, "cond", BlockID(bi), -1); err != nil {
				return err
			}
		case TermReturn:
			if t.Ret != NoReg {
				if err := checkReg(t.Ret, "ret", BlockID(bi), -1); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("hir: %s: b%d: unknown terminator", f.Name, bi)
		}
	}
	return nil
}
