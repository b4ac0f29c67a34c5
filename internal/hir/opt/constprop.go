package opt

import (
	"eventopt/internal/hir"
)

// latKind is the constant-propagation lattice: unreached < const < varying.
type latKind uint8

const (
	latUnreached latKind = iota
	latConst
	latVarying
)

type lat struct {
	kind latKind
	val  hir.Value
}

func meet(a, b lat) lat {
	switch {
	case a.kind == latUnreached:
		return b
	case b.kind == latUnreached:
		return a
	case a.kind == latVarying || b.kind == latVarying:
		return lat{kind: latVarying}
	case a.val.Equal(b.val):
		return a
	default:
		return lat{kind: latVarying}
	}
}

type cpState []lat

func (s cpState) clone() cpState {
	out := make(cpState, len(s))
	copy(out, s)
	return out
}

func (s cpState) meetWith(o cpState) bool {
	changed := false
	for i := range s {
		m := meet(s[i], o[i])
		if m.kind != s[i].kind || (m.kind == latConst && !m.val.Equal(s[i].val)) {
			s[i] = m
			changed = true
		}
	}
	return changed
}

// ConstProp runs an iterative constant-propagation dataflow over the CFG,
// folds instructions whose operands are constant, and resolves branches
// with constant conditions into jumps. Registers start as the constant
// None (matching interpreter semantics for uninitialized registers)
// except the positional parameters, which are unknown.
func ConstProp(fn *hir.Function, info *Info) {
	n := len(fn.Blocks)
	in := make([]cpState, n)
	entry := make(cpState, fn.NumRegs)
	for r := 0; r < fn.NumRegs; r++ {
		if r < fn.NumParams {
			entry[r] = lat{kind: latVarying}
		} else {
			entry[r] = lat{kind: latConst, val: hir.None}
		}
	}
	in[hir.Entry] = entry

	// Iterate to fixpoint over reachable blocks in RPO, revisiting only
	// blocks whose input changed since their last visit. Each visit
	// transfers a copy of the block's input in one reused buffer.
	order := rpo(fn)
	buf := make(cpState, fn.NumRegs)
	dirty := make([]bool, n)
	dirty[hir.Entry] = true
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if !dirty[b] {
				continue
			}
			dirty[b] = false
			copy(buf, in[b])
			out := transfer(fn, info, b, buf, nil)
			for _, s := range successors(&fn.Blocks[b]) {
				if in[s] == nil {
					in[s] = out.clone()
				} else if !in[s].meetWith(out) {
					continue
				}
				dirty[s], changed = true, true
			}
		}
	}

	// Rewrite: fold constant pure instructions and constant branches.
	for _, b := range order {
		if in[b] == nil {
			continue
		}
		copy(buf, in[b])
		transfer(fn, info, b, buf, func(ii int, dst hir.Reg, v hir.Value) {
			instr := &fn.Blocks[b].Instrs[ii]
			if pure(instr, info) && instr.Op != hir.OpConst {
				*instr = hir.Instr{Op: hir.OpConst, Dst: dst, Const: v}
			}
		})
		t := &fn.Blocks[b].Term
		if t.Kind == hir.TermBranch && buf[t.Cond].kind == latConst {
			to := t.Else
			if buf[t.Cond].val.Bool() {
				to = t.To
			}
			*t = hir.Term{Kind: hir.TermJump, To: to}
		}
	}
}

// transfer applies the block's instructions to st; when fold is non-nil
// it is invoked for every instruction whose result is a known constant.
func transfer(fn *hir.Function, info *Info, b hir.BlockID, st cpState, fold func(ii int, dst hir.Reg, v hir.Value)) cpState {
	blk := &fn.Blocks[b]
	for ii := range blk.Instrs {
		instr := &blk.Instrs[ii]
		if !instr.HasDst() {
			continue
		}
		res := lat{kind: latVarying}
		switch instr.Op {
		case hir.OpConst:
			res = lat{kind: latConst, val: instr.Const}
		case hir.OpMov:
			res = st[instr.A]
		case hir.OpBin:
			a, bb := st[instr.A], st[instr.B]
			if a.kind == latConst && bb.kind == latConst {
				if v, err := hir.EvalBin(instr.Bin, a.val, bb.val); err == nil {
					res = lat{kind: latConst, val: v}
				}
			}
		case hir.OpUn:
			if a := st[instr.A]; a.kind == latConst {
				res = lat{kind: latConst, val: hir.EvalUn(instr.Un, a.val)}
			}
		case hir.OpCall:
			// Fold pure intrinsic calls with all-constant arguments.
			if intr, ok := info.intrinsic(instr.Sym); ok && intr.Pure {
				args := make([]hir.Value, len(instr.Args))
				allConst := true
				for i, r := range instr.Args {
					if st[r].kind != latConst {
						allConst = false
						break
					}
					args[i] = st[r].val
				}
				if allConst {
					res = lat{kind: latConst, val: intr.Fn(args)}
				}
			}
		}
		if res.kind == latConst && fold != nil {
			fold(ii, instr.Dst, res.val)
		}
		st[instr.Dst] = res
	}
	return st
}
