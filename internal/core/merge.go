package core

import (
	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
)

// handlerPart is one handler body to merge: its HIR and its bind-time
// arguments (which become constants in the merged code — the value-based
// optimization opportunity the paper notes indirect calls hide).
type handlerPart struct {
	name     string
	body     *hir.Function
	bindArgs *event.Args
}

// mergeBodies builds the intra-event super-handler body (paper Fig. 7):
// the parts run in sequence in one function. Each part's OpBindArg
// instructions are replaced by constants from its binding, and each
// part's OpHalt lowers to a jump past all remaining parts — exactly the
// "halt remaining handlers of this event" semantics.
func mergeBodies(name string, parts []handlerPart) *hir.Function {
	out := &hir.Function{Name: name}
	var retFixups []hir.BlockID // blocks whose jump target is the next part
	var endFixups []hir.BlockID // blocks that must jump to the merged end

	for _, part := range parts {
		entry := hir.BlockID(len(out.Blocks))
		// Patch the previous part's returns to fall through into this one.
		for _, b := range retFixups {
			out.Blocks[b].Term = hir.Term{Kind: hir.TermJump, To: entry}
		}
		retFixups = retFixups[:0]

		regOff := hir.Reg(out.NumRegs)
		blockOff := entry
		body := part.body.Clone()
		out.NumRegs += body.NumRegs

		for bi := range body.Blocks {
			blk := body.Blocks[bi]
			var instrs []hir.Instr
			halted := false
			for ii := range blk.Instrs {
				in := blk.Instrs[ii]
				offsetRegs(&in, regOff)
				switch in.Op {
				case hir.OpBindArg:
					v := hir.None
					if part.bindArgs != nil {
						if raw, ok := part.bindArgs.Lookup(in.Sym); ok {
							v = hirrt.ToValue(raw)
						}
					}
					in = hir.Instr{Op: hir.OpConst, Dst: in.Dst, Const: v}
				case hir.OpHalt:
					// Truncate: the rest of the block is unreachable.
					halted = true
				}
				if halted {
					break
				}
				instrs = append(instrs, in)
			}
			term := blk.Term
			if halted {
				term = hir.Term{Kind: hir.TermJump, To: -1} // patched below
				endFixups = append(endFixups, hir.BlockID(len(out.Blocks)))
			} else {
				switch term.Kind {
				case hir.TermJump:
					term.To += blockOff
				case hir.TermBranch:
					term.Cond += regOff
					term.To += blockOff
					term.Else += blockOff
				case hir.TermReturn:
					term = hir.Term{Kind: hir.TermJump, To: -1} // patched
					retFixups = append(retFixups, hir.BlockID(len(out.Blocks)))
				}
			}
			out.Blocks = append(out.Blocks, hir.Block{Instrs: instrs, Term: term})
		}
	}

	end := hir.BlockID(len(out.Blocks))
	out.Blocks = append(out.Blocks, hir.Block{Term: hir.Term{Kind: hir.TermReturn, Ret: hir.NoReg}})
	for _, b := range retFixups {
		out.Blocks[b].Term = hir.Term{Kind: hir.TermJump, To: end}
	}
	for _, b := range endFixups {
		out.Blocks[b].Term = hir.Term{Kind: hir.TermJump, To: end}
	}
	if len(parts) == 0 {
		return out
	}
	return out
}

func offsetRegs(in *hir.Instr, off hir.Reg) {
	bump := func(r hir.Reg) hir.Reg {
		if r == hir.NoReg {
			return r
		}
		return r + off
	}
	in.Dst = bump(in.Dst)
	in.A = bump(in.A)
	in.B = bump(in.B)
	if in.Args != nil {
		in.Args = append([]hir.Reg(nil), in.Args...)
		for i := range in.Args {
			in.Args[i] = bump(in.Args[i])
		}
	}
}

// spliceTarget is one covered event whose synchronous raises may be
// spliced: its fused body, its segment index in the super-handler (the
// guard's operand) and the body registers it reads before writing.
type spliceTarget struct {
	body *hir.Function
	seg  int
	live []hir.Reg
}

// spliceTargets indexes the covered events' bodies by event name for
// spliceRaises. bodies[i] is segment i's fused body (nil when it has
// none); the entry (segment 0) is never a target: a raise of it is a
// cycle and keeps dynamic dispatch.
func spliceTargets(segs []event.Segment, bodies []*hir.Function) map[string]*spliceTarget {
	out := make(map[string]*spliceTarget, len(segs))
	for i := 1; i < len(segs); i++ {
		if _, dup := out[segs[i].EventName]; dup || bodies[i] == nil || segs[i].EventName == segs[0].EventName {
			continue
		}
		out[segs[i].EventName] = &spliceTarget{body: bodies[i], seg: i, live: bodies[i].ReadBeforeWrite()}
	}
	return out
}

// spliceRaises performs static subsumption (paper Fig. 9): synchronous
// OpRaise instructions targeting covered events are replaced by the
// inlined body of the raised event, with the callee's OpArg
// instructions wired to the raise-site argument registers.
//
// Guarded, each splice sits behind an OpGuard on the target's segment
// (Fig. 14's per-event guard): when the guard fails, the original raise
// runs and takes the dynamic segment route. Unguarded (the basic form),
// the raise is removed outright.
//
// The budget bounds expansion so cyclic raise patterns terminate; any
// raise left over dispatches dynamically, which remains correct.
func spliceRaises(fn *hir.Function, covered map[string]*spliceTarget, guarded bool) {
	budget := 3*len(covered) + 8
	fallback := make(map[hir.BlockID]bool) // blocks holding a guarded splice's original raise
	for n := 0; n < budget; n++ {
		b, ii := findSyncRaise(fn, covered, fallback)
		if ii < 0 {
			return
		}
		expandRaise(fn, b, ii, covered[fn.Blocks[b].Instrs[ii].Sym], guarded, fallback)
	}
}

func findSyncRaise(fn *hir.Function, covered map[string]*spliceTarget, skip map[hir.BlockID]bool) (hir.BlockID, int) {
	for bi := range fn.Blocks {
		if skip[hir.BlockID(bi)] {
			continue
		}
		for ii := range fn.Blocks[bi].Instrs {
			in := &fn.Blocks[bi].Instrs[ii]
			if in.Op == hir.OpRaise && !in.Async && in.Delay == 0 && covered[in.Sym] != nil {
				return hir.BlockID(bi), ii
			}
		}
	}
	return 0, -1
}

// expandRaise splices the target's body at the raise site in block b,
// index ii. The callee gets fresh registers; those it reads before
// writing are reset to None first, since a raise site that runs twice in
// one activation (a loop) would otherwise show the callee the values of
// the previous run, where a dispatched activation starts from a cleared
// register file. Guarded, b ends in a branch on the guard, and the
// original raise moves to a fallback block recorded in fallback.
func expandRaise(fn *hir.Function, b hir.BlockID, ii int, t *spliceTarget, guarded bool, fallback map[hir.BlockID]bool) {
	raise := fn.Blocks[b].Instrs[ii] // copy
	argOf := make(map[string]hir.Reg, len(raise.ArgNames))
	for i, n := range raise.ArgNames {
		if _, dup := argOf[n]; !dup { // the first binding wins, as in Args.Get
			argOf[n] = raise.Args[i]
		}
	}
	callee := t.body
	regOff := hir.Reg(fn.NumRegs)
	fn.NumRegs += callee.NumRegs

	cont := hir.BlockID(len(fn.Blocks))
	fn.Blocks = append(fn.Blocks, hir.Block{
		Instrs: append([]hir.Instr(nil), fn.Blocks[b].Instrs[ii+1:]...),
		Term:   fn.Blocks[b].Term,
	})
	fn.Blocks[b].Instrs = fn.Blocks[b].Instrs[:ii]
	blockOff := hir.BlockID(len(fn.Blocks))
	if guarded {
		g := hir.Reg(fn.NumRegs)
		fn.NumRegs++
		fb := hir.BlockID(len(fn.Blocks))
		fn.Blocks = append(fn.Blocks, hir.Block{Instrs: []hir.Instr{raise}, Term: hir.Term{Kind: hir.TermJump, To: cont}})
		fallback[fb] = true
		blockOff++
		fn.Blocks[b].Instrs = append(fn.Blocks[b].Instrs,
			hir.Instr{Op: hir.OpGuard, Dst: g, Sym: raise.Sym, Const: hir.IntVal(int64(t.seg))})
		fn.Blocks[b].Term = hir.Term{Kind: hir.TermBranch, Cond: g, To: blockOff, Else: fb}
	} else {
		fn.Blocks[b].Term = hir.Term{Kind: hir.TermJump, To: blockOff}
	}

	clone := callee.Clone()
	for ci := range clone.Blocks {
		cb := clone.Blocks[ci]
		for j := range cb.Instrs {
			in := &cb.Instrs[j]
			offsetRegs(in, regOff)
			if in.Op == hir.OpArg {
				// The callee reads the raise's arguments, which live in
				// caller registers (pre-offset values).
				if src, ok := argOf[in.Sym]; ok {
					*in = hir.Instr{Op: hir.OpMov, Dst: in.Dst, A: src}
				} else {
					*in = hir.Instr{Op: hir.OpConst, Dst: in.Dst, Const: hir.None}
				}
			}
		}
		if ci == int(hir.Entry) && len(t.live) > 0 {
			reset := make([]hir.Instr, 0, len(t.live)+len(cb.Instrs))
			for _, r := range t.live {
				reset = append(reset, hir.Instr{Op: hir.OpConst, Dst: r + regOff, Const: hir.None})
			}
			cb.Instrs = append(reset, cb.Instrs...)
		}
		switch cb.Term.Kind {
		case hir.TermJump:
			cb.Term.To += blockOff
		case hir.TermBranch:
			cb.Term.Cond += regOff
			cb.Term.To += blockOff
			cb.Term.Else += blockOff
		case hir.TermReturn:
			cb.Term = hir.Term{Kind: hir.TermJump, To: cont}
		}
		fn.Blocks = append(fn.Blocks, cb)
	}
}
