package opt

import (
	"fmt"
	"strings"

	"eventopt/internal/hir"
)

// CSE performs local value numbering per basic block: pure computations
// (including argument resolutions, bind-argument reads and state loads)
// already performed earlier in the block are replaced by register moves.
// A store kills the load of its cell; raises, impure calls and function
// calls kill all loads (their handlers may mutate state). This is the
// paper's "redundant code elimination": once handlers are merged into one
// super-handler, repeated initializations and checks across the former
// handler bodies become block-local duplicates that this pass removes.
func CSE(fn *hir.Function, info *Info) {
	for bi := range fn.Blocks {
		cseBlock(fn, info, &fn.Blocks[bi])
	}
}

func cseBlock(fn *hir.Function, info *Info, blk *hir.Block) {
	nextVN := 1
	regVN := make(map[hir.Reg]int)      // current value number of each register
	exprReg := make(map[string]hir.Reg) // expression key -> register holding it
	exprVN := make(map[string]int)

	vnOf := func(r hir.Reg) int {
		if v, ok := regVN[r]; ok {
			return v
		}
		nextVN++
		regVN[r] = nextVN
		return nextVN
	}
	killLoads := func(cell string) {
		for k := range exprReg {
			if cell == "" && strings.HasPrefix(k, "load:") {
				delete(exprReg, k)
				delete(exprVN, k)
			} else if cell != "" && k == "load:"+cell {
				delete(exprReg, k)
				delete(exprVN, k)
			}
		}
	}

	for ii := range blk.Instrs {
		in := &blk.Instrs[ii]
		var key string
		switch in.Op {
		case hir.OpConst:
			key = "const:" + in.Const.String() + "/" + in.Const.Kind.String()
		case hir.OpArg:
			key = "arg:" + in.Sym
		case hir.OpBindArg:
			key = "bindarg:" + in.Sym
		case hir.OpLoad:
			key = "load:" + in.Sym
		case hir.OpBin:
			key = fmt.Sprintf("bin:%d:%d:%d", in.Bin, vnOf(in.A), vnOf(in.B))
		case hir.OpUn:
			key = fmt.Sprintf("un:%d:%d", in.Un, vnOf(in.A))
		case hir.OpCall:
			if info.pureCall(in.Sym) {
				parts := make([]string, len(in.Args))
				for i, r := range in.Args {
					parts[i] = fmt.Sprint(vnOf(r))
				}
				key = "call:" + in.Sym + ":" + strings.Join(parts, ",")
			}
		case hir.OpMov:
			// Copy propagation at the VN level.
			regVN[in.Dst] = vnOf(in.A)
			continue
		case hir.OpStore:
			killLoads(in.Sym)
			continue
		case hir.OpRaise, hir.OpCallFn:
			killLoads("")
			if in.Op == hir.OpCallFn {
				nextVN++
				regVN[in.Dst] = nextVN
			}
			continue
		case hir.OpGuard:
			// Host state: every execution is a fresh value.
			nextVN++
			regVN[in.Dst] = nextVN
			continue
		default:
			continue
		}
		if key == "" { // impure call
			killLoads("")
			nextVN++
			regVN[in.Dst] = nextVN
			continue
		}
		if vn, ok := exprVN[key]; ok {
			src := exprReg[key]
			// The register must still hold the value it held when the
			// expression was computed.
			if regVN[src] == vn {
				*in = hir.Instr{Op: hir.OpMov, Dst: in.Dst, A: src}
				regVN[in.Dst] = vn
				continue
			}
		}
		nextVN++
		regVN[in.Dst] = nextVN
		exprVN[key] = nextVN
		exprReg[key] = in.Dst
	}
}
