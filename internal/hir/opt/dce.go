package opt

import (
	"eventopt/internal/hir"
)

// DCE removes pure instructions whose results are never used, via an
// iterative backward liveness analysis over the CFG. Stores, raises,
// halts, guards and impure calls are always retained.
func DCE(fn *hir.Function, info *Info) {
	n := len(fn.Blocks)
	liveIn := make([]map[hir.Reg]bool, n)
	for i := range liveIn {
		liveIn[i] = make(map[hir.Reg]bool)
	}

	// Predecessor lists for propagation.
	preds := make([][]hir.BlockID, n)
	for i := range fn.Blocks {
		for _, s := range successors(&fn.Blocks[i]) {
			preds[s] = append(preds[s], hir.BlockID(i))
		}
	}

	liveOutOf := func(b hir.BlockID) map[hir.Reg]bool {
		out := make(map[hir.Reg]bool)
		for _, s := range successors(&fn.Blocks[b]) {
			for r := range liveIn[s] {
				out[r] = true
			}
		}
		return out
	}

	flow := func(b hir.BlockID, remove bool) bool {
		blk := &fn.Blocks[b]
		live := liveOutOf(b)
		switch blk.Term.Kind {
		case hir.TermBranch:
			live[blk.Term.Cond] = true
		case hir.TermReturn:
			if blk.Term.Ret != hir.NoReg {
				live[blk.Term.Ret] = true
			}
		}
		var kept []hir.Instr
		if remove {
			kept = make([]hir.Instr, 0, len(blk.Instrs))
		}
		for ii := len(blk.Instrs) - 1; ii >= 0; ii-- {
			in := &blk.Instrs[ii]
			dead := in.HasDst() && !live[in.Dst] && pure(in, info)
			// A self-move is dead even when its target is live.
			if in.Op == hir.OpMov && in.Dst == in.A {
				dead = true
			}
			if dead {
				continue
			}
			if remove {
				kept = append(kept, *in)
			}
			if in.HasDst() {
				delete(live, in.Dst)
			}
			for _, u := range usesOf(in) {
				live[u] = true
			}
		}
		if remove {
			// kept was built backwards.
			for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
				kept[i], kept[j] = kept[j], kept[i]
			}
			blk.Instrs = kept
		}
		changed := false
		if len(live) != len(liveIn[b]) {
			changed = true
		} else {
			for r := range live {
				if !liveIn[b][r] {
					changed = true
					break
				}
			}
		}
		liveIn[b] = live
		return changed
	}

	// Fixpoint.
	work := make([]hir.BlockID, 0, n)
	for i := n - 1; i >= 0; i-- {
		work = append(work, hir.BlockID(i))
	}
	inWork := make([]bool, n)
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b] = false
		if flow(b, false) {
			for _, p := range preds[b] {
				if !inWork[p] {
					inWork[p] = true
					work = append(work, p)
				}
			}
		}
	}
	// Final removal sweep with stable liveness.
	for i := range fn.Blocks {
		flow(hir.BlockID(i), true)
	}
}

func usesOf(in *hir.Instr) []hir.Reg {
	var buf [4]hir.Reg
	switch in.Op {
	case hir.OpMov, hir.OpUn, hir.OpStore:
		return append(buf[:0], in.A)
	case hir.OpBin:
		return append(buf[:0], in.A, in.B)
	case hir.OpCall, hir.OpCallFn, hir.OpRaise:
		return in.Args
	default:
		return nil
	}
}
