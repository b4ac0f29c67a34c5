package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
	"eventopt/internal/profile"
	"eventopt/internal/trace"
)

// genHIRSystem builds a random all-HIR event system: a DAG of nEvents
// events (handlers may synchronously raise only strictly-higher events,
// so activation always terminates), each with 1..3 generated handler
// bodies mixing state arithmetic, argument reads, bind-time constants,
// branches, impure intrinsic calls, nested raises and halts. Two shapes
// target static subsumption: bounded state-cell loops around a raise (a
// raise site that runs several times in one activation), and registers
// defined on one arm of a branch and read after the join (a register
// whose entry value the body observes).
func genHIRSystem(seed int64, nEvents int) (*event.System, *hirrt.Module, []event.ID, *[]string) {
	rng := rand.New(rand.NewSource(seed))
	sys := event.New()
	mod := hirrt.NewModule(sys)
	callLog := &[]string{}
	mod.RegisterIntrinsic("emit", false, func(a []hir.Value) hir.Value {
		*callLog = append(*callLog, fmt.Sprintf("emit(%s)", a[0]))
		return hir.None
	})
	mod.RegisterIntrinsic("mix", true, func(a []hir.Value) hir.Value {
		return hir.IntVal(a[0].Int()*31 ^ a[1].Int())
	})

	ids := make([]event.ID, nEvents)
	for i := range ids {
		ids[i] = sys.Define(fmt.Sprintf("E%d", i))
	}

	genBody := func(name string, evIdx int) *hir.Function {
		b := hir.NewBuilder(name, 0)
		cells := []string{"c0", "c1", "c2", "c3"}
		var regs []hir.Reg
		pick := func() hir.Reg { return regs[rng.Intn(len(regs))] }
		regs = append(regs, b.Arg("n"))
		regs = append(regs, b.BindArg("k"))
		steps := 4 + rng.Intn(8)
		looped := false
		for s := 0; s < steps; s++ {
			switch rng.Intn(10) {
			case 0:
				regs = append(regs, b.Int(int64(rng.Intn(11)-5)))
			case 1:
				regs = append(regs, b.Load(cells[rng.Intn(len(cells))]))
			case 2:
				ops := []hir.BinOp{hir.Add, hir.Sub, hir.Mul, hir.Xor, hir.And, hir.Or, hir.Lt, hir.Eq}
				regs = append(regs, b.Bin(ops[rng.Intn(len(ops))], pick(), pick()))
			case 3:
				b.Store(cells[rng.Intn(len(cells))], pick())
			case 4:
				regs = append(regs, b.Call("mix", pick(), pick()))
			case 5:
				b.Call("emit", pick())
			case 6:
				// Synchronous raise of a strictly-higher event.
				if evIdx+1 < nEvents {
					target := evIdx + 1 + rng.Intn(nEvents-evIdx-1)
					b.Raise(fmt.Sprintf("E%d", target), []string{"n"}, []hir.Reg{pick()})
				}
			case 7:
				// A diamond: branch on a fresh comparison, both arms
				// store, control rejoins and emission continues there.
				c := b.Bin(hir.Gt, pick(), pick())
				cur := b.Current()
				thenB := b.NewBlock()
				elseB := b.NewBlock()
				join := b.NewBlock()
				b.SetBlock(cur)
				b.Branch(c, thenB, elseB)
				b.SetBlock(thenB)
				b.Store(cells[rng.Intn(len(cells))], pick())
				b.Jump(join)
				b.SetBlock(elseB)
				b.Store(cells[rng.Intn(len(cells))], pick())
				b.Jump(join)
				b.SetBlock(join)
			case 8:
				// A loop of 2..3 passes counted in a state cell of its
				// own, raising a strictly-higher event on every pass. One
				// per body keeps the spliced chains small.
				if evIdx+1 >= nEvents || looped {
					continue
				}
				looped = true
				target := evIdx + 1 + rng.Intn(nEvents-evIdx-1)
				cell := fmt.Sprintf("loop_%s_%d", name, s)
				b.Store(cell, b.Int(0))
				cur := b.Current()
				body := b.NewBlock()
				exit := b.NewBlock()
				b.SetBlock(cur)
				b.Jump(body)
				b.SetBlock(body)
				i := b.Load(cell)
				arg := b.Bin(hir.Add, i, pick())
				b.Raise(fmt.Sprintf("E%d", target), []string{"n"}, []hir.Reg{arg})
				next := b.Bin(hir.Add, i, b.Int(1))
				b.Store(cell, next)
				b.Branch(b.Bin(hir.Lt, next, b.Int(int64(2+rng.Intn(2)))), body, exit)
				b.SetBlock(exit)
				regs = append(regs, next)
			case 9:
				// A register defined only on the then arm and read after
				// the join: on the else path it holds its entry value.
				c := b.Bin(hir.Gt, pick(), pick())
				cur := b.Current()
				thenB := b.NewBlock()
				join := b.NewBlock()
				b.SetBlock(cur)
				b.Branch(c, thenB, join)
				b.SetBlock(thenB)
				x := b.Bin(hir.Add, pick(), b.Int(int64(1+rng.Intn(5))))
				b.Jump(join)
				b.SetBlock(join)
				b.Call("emit", x)
				regs = append(regs, x)
			}
		}
		b.Return(hir.NoReg)
		return b.Fn()
	}

	for i := 0; i < nEvents; i++ {
		nh := 1 + rng.Intn(3)
		for h := 0; h < nh; h++ {
			name := fmt.Sprintf("h%d_%d", i, h)
			mod.Bind(ids[i], name, genBody(name, i),
				event.WithOrder(h), event.WithBindArgs(event.A("k", rng.Intn(50))))
		}
	}
	return sys, mod, ids, callLog
}

// runWorkload drives the system deterministically and returns the final
// state snapshot plus the impure-intrinsic call log. With rebind >= 0,
// halfway through it binds one more HIR handler on ids[rebind].
func runWorkload(sys *event.System, mod *hirrt.Module, ids []event.ID, callLog *[]string, seed int64, rebind int) (map[string]hir.Value, []string) {
	*callLog = nil
	// Zero every cell the generator can touch: profiling runs populate
	// different subsets, and an absent cell reads as None rather than 0.
	for _, c := range []string{"c0", "c1", "c2", "c3"} {
		mod.Globals.Set(c, hir.IntVal(0))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 25; i++ {
		if i == 12 && rebind >= 0 {
			b := hir.NewBuilder("h_rebound", 0)
			sum := b.Bin(hir.Add, b.Load("c1"), b.Arg("n"))
			b.Store("c1", sum)
			b.Call("emit", sum)
			b.Return(hir.NoReg)
			mod.Bind(ids[rebind], "h_rebound", b.Fn(), event.WithOrder(99))
		}
		sys.Raise(ids[rng.Intn(len(ids))], event.A("n", i))
	}
	return mod.Globals.Snapshot(), append([]string(nil), *callLog...)
}

// interiorEvent returns the index in ids of the first installed
// super-handler's second covered event, or -1 when every installed
// super-handler covers one event.
func interiorEvent(sys *event.System, ids []event.ID) int {
	for _, ev := range ids {
		if sh := sys.FastPath(ev); sh != nil && len(sh.Segments) > 1 {
			for k, id := range ids {
				if id == sh.Segments[1].Event {
					return k
				}
			}
		}
	}
	return -1
}

func optimizeRandom(t testingT, sys *event.System, mod *hirrt.Module, ids []event.ID, seed int64, opts Options) bool {
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	sys.SetTracer(rec)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 40; i++ {
		sys.Raise(ids[rng.Intn(len(ids))], event.A("n", i))
	}
	sys.SetTracer(nil)
	prof, err := profile.Analyze(rec.Entries())
	if err != nil {
		t.Logf("analyze: %v", err)
		return false
	}
	if _, _, err := Apply(sys, prof, mod, opts); err != nil {
		t.Logf("apply: %v", err)
		return false
	}
	return true
}

type testingT interface {
	Logf(format string, args ...any)
}

// TestQuickHIRFusionSoundness is the repository's strongest equivalence
// property: for random all-HIR event systems and every optimization
// level (steps-only, per-segment fusion with guarded subsumption, full
// fusion with static subsumption), the optimized system leaves the same
// state and performs the same impure intrinsic calls in the same order
// as the original. The rebind variant binds one more handler on an
// interior event of an installed chain halfway through the run, in the
// reference too: from then on that event's guard fails, and its raises
// must take the dynamic route.
func TestQuickHIRFusionSoundness(t *testing.T) {
	variants := []struct {
		name   string
		mk     func() Options
		rebind bool
	}{
		{"steps", func() Options { o := DefaultOptions(); o.MergeAll = true; o.FuseHIR = false; return o }, false},
		{"fused", func() Options { o := DefaultOptions(); o.MergeAll = true; return o }, false},
		{"fused-rebind", func() Options { o := DefaultOptions(); o.MergeAll = true; return o }, true},
		{"full", func() Options {
			o := DefaultOptions()
			o.MergeAll = true
			o.FullFusion = true
			o.Partitioned = false
			return o
		}, false},
		{"full-compiled", func() Options {
			o := DefaultOptions()
			o.MergeAll = true
			o.FullFusion = true
			o.Partitioned = false
			o.CompileClosures = true
			return o
		}, false},
	}
	rebinds, guards := 0, 0
	f := func(seed int64) bool {
		nEvents := 3 + int(uint64(seed)%4)
		refSys, refMod, refIDs, refLog := genHIRSystem(seed, nEvents)
		refState, refCalls := runWorkload(refSys, refMod, refIDs, refLog, seed+7, -1)

		for _, v := range variants {
			sys, mod, ids, log := genHIRSystem(seed, nEvents)
			if !optimizeRandom(t, sys, mod, ids, seed+13, v.mk()) {
				return false
			}
			guards += countGuards(sys, ids)
			wantState, wantCalls, rebind := refState, refCalls, -1
			if v.rebind {
				if rebind = interiorEvent(sys, ids); rebind >= 0 {
					rebinds++
					rs, rm, ri, rl := genHIRSystem(seed, nEvents)
					wantState, wantCalls = runWorkload(rs, rm, ri, rl, seed+7, rebind)
				}
			}
			gotState, gotCalls := runWorkload(sys, mod, ids, log, seed+7, rebind)
			if !reflect.DeepEqual(wantCalls, gotCalls) {
				t.Logf("seed %d %s: call logs diverge\nwant %v\ngot  %v", seed, v.name, wantCalls, gotCalls)
				return false
			}
			for k, wv := range wantState {
				if gv, ok := gotState[k]; !ok || !gv.Equal(wv) {
					t.Logf("seed %d %s: cell %s = %v, want %v", seed, v.name, k, gv, wv)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if rebinds == 0 || guards == 0 {
		t.Errorf("vacuous run: %d interior rebinds, %d guarded splices installed", rebinds, guards)
	}
}

// countGuards counts the guarded splices in the installed fused bodies.
func countGuards(sys *event.System, ids []event.ID) int {
	n := 0
	for _, ev := range ids {
		sh := sys.FastPath(ev)
		if sh == nil {
			continue
		}
		for i := range sh.Segments {
			body, _ := sh.Segments[i].FusedIR.(*hir.Function)
			if body == nil {
				continue
			}
			for _, blk := range body.Blocks {
				for _, in := range blk.Instrs {
					if in.Op == hir.OpGuard {
						n++
					}
				}
			}
		}
	}
	return n
}
