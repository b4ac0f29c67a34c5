// Package opt implements the compiler optimizations of paper section
// 3.2.2 over HIR functions: function inlining, constant propagation with
// folding and branch elimination, local common-subexpression elimination
// (the paper's "redundant code elimination" across merged handlers),
// algebraic peephole simplification, dead-code elimination, and CFG
// cleanup. The passes are what make handler merging profitable beyond
// saved indirect calls: once formerly separate handler bodies sit in one
// function, bind-time constants propagate, repeated loads and checks
// collapse, and unreachable fallback code disappears.
package opt

import (
	"eventopt/internal/hir"
)

// Info supplies the inter-procedural facts the passes may rely on.
type Info struct {
	// Intrinsics gives purity (and, for folding, implementations) of
	// OpCall targets. A missing entry is treated as impure.
	Intrinsics map[string]hir.Intrinsic
	// Funcs resolves OpCallFn targets for inlining.
	Funcs map[string]*hir.Function
}

func (in *Info) intrinsic(sym string) (hir.Intrinsic, bool) {
	if in == nil {
		return hir.Intrinsic{}, false
	}
	i, ok := in.Intrinsics[sym]
	return i, ok
}

func (in *Info) pureCall(sym string) bool {
	i, ok := in.intrinsic(sym)
	return ok && i.Pure
}

func (in *Info) fn(sym string) *hir.Function {
	if in == nil {
		return nil
	}
	return in.Funcs[sym]
}

// Options selects passes. The zero value runs nothing; use Default for
// the full pipeline.
type Options struct {
	Inline    bool
	InlineMax int // max callee instruction count to inline (0: 64)
	ConstProp bool
	CSE       bool
	Peephole  bool
	DCE       bool
	// Iterations repeats the pipeline to let passes feed each other
	// (inlined constants fold, folded branches unreach code, ...). 0
	// means 3.
	Iterations int
}

// Default enables every pass.
func Default() Options {
	return Options{Inline: true, ConstProp: true, CSE: true, Peephole: true, DCE: true}
}

// Optimize returns an optimized deep copy of fn; the input is never
// mutated. The result always validates.
func Optimize(fn *hir.Function, info *Info, opts Options) *hir.Function {
	out := fn.Clone()
	iters := opts.Iterations
	if iters <= 0 {
		iters = 3
	}
	for i := 0; i < iters; i++ {
		if opts.Inline {
			Inline(out, info, opts.InlineMax)
		}
		if opts.ConstProp {
			ConstProp(out, info)
		}
		SimplifyCFG(out)
		if opts.CSE {
			CSE(out, info)
		}
		if opts.Peephole {
			Peephole(out)
		}
		CopyProp(out)
		if opts.DCE {
			DCE(out, info)
		}
		SimplifyCFG(out)
	}
	return out
}

// pure reports whether an instruction has no side effects (so it may be
// removed when its result is dead, and reused by value numbering).
func pure(in *hir.Instr, info *Info) bool {
	switch in.Op {
	case hir.OpConst, hir.OpMov, hir.OpArg, hir.OpBindArg, hir.OpLoad, hir.OpBin, hir.OpUn:
		return true
	case hir.OpCall:
		return info.pureCall(in.Sym)
	default:
		// OpStore, OpRaise, OpHalt, OpGuard (reads host state), OpCallFn
		// (callee effects unknown).
		return false
	}
}

// successors returns the successor block ids of b.
func successors(b *hir.Block) []hir.BlockID {
	switch b.Term.Kind {
	case hir.TermJump:
		return []hir.BlockID{b.Term.To}
	case hir.TermBranch:
		if b.Term.To == b.Term.Else {
			return []hir.BlockID{b.Term.To}
		}
		return []hir.BlockID{b.Term.To, b.Term.Else}
	default:
		return nil
	}
}

// reachable returns the set of blocks reachable from entry.
func reachable(fn *hir.Function) []bool {
	seen := make([]bool, len(fn.Blocks))
	stack := []hir.BlockID{hir.Entry}
	seen[hir.Entry] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range successors(&fn.Blocks[b]) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// rpo returns reachable blocks in reverse postorder.
func rpo(fn *hir.Function) []hir.BlockID {
	seen := make([]bool, len(fn.Blocks))
	var order []hir.BlockID
	var dfs func(b hir.BlockID)
	dfs = func(b hir.BlockID) {
		seen[b] = true
		for _, s := range successors(&fn.Blocks[b]) {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(hir.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// SimplifyCFG removes unreachable blocks, threads jumps to trivial jump
// blocks, turns same-target branches into jumps, and merges straight-line
// block pairs. It preserves block 0 as the entry.
func SimplifyCFG(fn *hir.Function) {
	changed := true
	for changed {
		changed = false

		// Branch with identical arms -> jump.
		for i := range fn.Blocks {
			t := &fn.Blocks[i].Term
			if t.Kind == hir.TermBranch && t.To == t.Else {
				*t = hir.Term{Kind: hir.TermJump, To: t.To}
				changed = true
			}
		}

		// Thread jumps through empty jump-only blocks.
		target := func(b hir.BlockID) hir.BlockID {
			hops := 0
			for hops < len(fn.Blocks) {
				blk := &fn.Blocks[b]
				if len(blk.Instrs) != 0 || blk.Term.Kind != hir.TermJump || blk.Term.To == b {
					return b
				}
				b = blk.Term.To
				hops++
			}
			return b
		}
		for i := range fn.Blocks {
			t := &fn.Blocks[i].Term
			switch t.Kind {
			case hir.TermJump:
				if nt := target(t.To); nt != t.To {
					t.To = nt
					changed = true
				}
			case hir.TermBranch:
				if nt := target(t.To); nt != t.To {
					t.To = nt
					changed = true
				}
				if nt := target(t.Else); nt != t.Else {
					t.Else = nt
					changed = true
				}
			}
		}

		// Merge b -> c when b jumps to c and c has exactly one predecessor.
		preds := make([]int, len(fn.Blocks))
		seen := reachable(fn)
		for i := range fn.Blocks {
			if !seen[i] {
				continue
			}
			for _, s := range successors(&fn.Blocks[i]) {
				preds[s]++
			}
		}
		for i := range fn.Blocks {
			if !seen[i] {
				continue
			}
			t := fn.Blocks[i].Term
			if t.Kind != hir.TermJump {
				continue
			}
			c := t.To
			if int(c) == i || c == hir.Entry || preds[c] != 1 {
				continue
			}
			fn.Blocks[i].Instrs = append(fn.Blocks[i].Instrs, fn.Blocks[c].Instrs...)
			fn.Blocks[i].Term = fn.Blocks[c].Term
			fn.Blocks[c].Instrs = nil
			fn.Blocks[c].Term = hir.Term{Kind: hir.TermReturn, Ret: hir.NoReg}
			changed = true
			break // predecessor counts are stale; recompute
		}
	}
	compact(fn)
}

// compact drops unreachable blocks and renumbers the survivors.
func compact(fn *hir.Function) {
	seen := reachable(fn)
	remap := make([]hir.BlockID, len(fn.Blocks))
	var out []hir.Block
	for i := range fn.Blocks {
		if seen[i] {
			remap[i] = hir.BlockID(len(out))
			out = append(out, fn.Blocks[i])
		}
	}
	for i := range out {
		t := &out[i].Term
		switch t.Kind {
		case hir.TermJump:
			t.To = remap[t.To]
		case hir.TermBranch:
			t.To = remap[t.To]
			t.Else = remap[t.Else]
		}
	}
	fn.Blocks = out
}
