package core

import (
	"testing"

	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
	"eventopt/internal/profile"
	"eventopt/internal/trace"
)

// buildHIRPipeline constructs an all-HIR two-event pipeline mirroring the
// paper's SegFromUser/Seg2Net nesting:
//
//	push: h_seq  — seq = seq+1
//	      h_send — raise net(len = arg size + bindarg hdr) synchronously
//	net:  h_count — sent = sent+1; bytes = bytes + arg len
//
// Returns the system, the module, and the push event id.
func buildHIRPipeline(t *testing.T) (*event.System, *hirrt.Module, event.ID) {
	t.Helper()
	sys := event.New()
	mod := hirrt.NewModule(sys)
	push := sys.Define("push")
	net := sys.Define("net")

	b1 := hir.NewBuilder("h_seq", 0)
	s := b1.Load("seq")
	one := b1.Int(1)
	s2 := b1.Bin(hir.Add, s, one)
	b1.Store("seq", s2)
	b1.Return(hir.NoReg)
	mod.Bind(push, "h_seq", b1.Fn(), event.WithOrder(1))

	b2 := hir.NewBuilder("h_send", 0)
	size := b2.Arg("size")
	hdr := b2.BindArg("hdr")
	ln := b2.Bin(hir.Add, size, hdr)
	b2.Raise("net", []string{"len"}, []hir.Reg{ln})
	b2.Return(hir.NoReg)
	mod.Bind(push, "h_send", b2.Fn(), event.WithOrder(2),
		event.WithBindArgs(event.A("hdr", 20)))

	b3 := hir.NewBuilder("h_count", 0)
	sent := b3.Load("sent")
	o := b3.Int(1)
	b3.Store("sent", b3.Bin(hir.Add, sent, o))
	bytes := b3.Load("bytes")
	l := b3.Arg("len")
	b3.Store("bytes", b3.Bin(hir.Add, bytes, l))
	b3.Return(hir.NoReg)
	mod.Bind(net, "h_count", b3.Fn())

	return sys, mod, push
}

func runPushWorkload(sys *event.System, push event.ID, n int) {
	for i := 0; i < n; i++ {
		sys.Raise(push, event.A("size", 100+i))
	}
}

func profileOf(t *testing.T, sys *event.System, run func()) *profile.Profile {
	t.Helper()
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	sys.SetTracer(rec)
	run()
	sys.SetTracer(nil)
	p, err := profile.Analyze(rec.Entries())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// zeroCells resets every populated cell of a module to integer zero so a
// post-profiling run starts from a known state.
func zeroCells(mod *hirrt.Module) {
	for _, n := range mod.Globals.Names() {
		mod.Globals.Set(n, hir.IntVal(0))
	}
}

func fusionEquivalence(t *testing.T, opts Options) (*event.System, *hirrt.Module) {
	t.Helper()
	// Reference: a fresh system, cells zeroed, 13 pushes.
	sysRef, modRef, pushRef := buildHIRPipeline(t)
	runPushWorkload(sysRef, pushRef, 1) // populate cells
	zeroCells(modRef)
	runPushWorkload(sysRef, pushRef, 13)
	want := modRef.Globals.Snapshot()

	// Optimized: profile, apply, zero cells, same 13 pushes.
	sys, mod, push := buildHIRPipeline(t)
	prof := profileOf(t, sys, func() { runPushWorkload(sys, push, 40) })
	plan, ins, err := Apply(sys, prof, mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Supers) == 0 {
		t.Fatalf("nothing installed:\n%s", plan.Describe(sys))
	}
	zeroCells(mod)
	sys.Stats().Reset()
	runPushWorkload(sys, push, 13)
	if !mod.Globals.EqualSnapshot(want) {
		t.Errorf("state diverges:\nwant %v\ngot  %v", want, mod.Globals.Snapshot())
	}
	if sys.Stats().FastRuns.Load() != 13 {
		t.Errorf("FastRuns = %d, want 13", sys.Stats().FastRuns.Load())
	}
	return sys, mod
}

func TestPerSegmentFusionEquivalence(t *testing.T) {
	opts := DefaultOptions()
	opts.FullFusion = false
	sys, _ := fusionEquivalence(t, opts)
	// Unobserved, the nested net raise runs as the guarded splice in the
	// push body: it is not an activation.
	if got := sys.Stats().Raises.Load(); got != 13 {
		t.Errorf("Raises = %d, want 13 (nested net raise spliced)", got)
	}
	// Observed, the guard fails and the nested raise is dispatched
	// through its segment: the nested net activation is counted.
	sys.SetTracer(trace.NewRecorder())
	sys.Stats().Reset()
	runPushWorkload(sys, sys.Lookup("push"), 13)
	sys.SetTracer(nil)
	if got := sys.Stats().Raises.Load(); got != 26 {
		t.Errorf("traced Raises = %d, want 26 (13 push + 13 nested net)", got)
	}
	// Verify segments actually fused.
	sh := sys.FastPath(sys.Lookup("push"))
	if sh == nil {
		t.Fatal("no fast path on push")
	}
	fused := 0
	for i := range sh.Segments {
		if sh.Segments[i].Fused != nil {
			fused++
		}
	}
	if fused != len(sh.Segments) {
		t.Errorf("fused segments = %d / %d", fused, len(sh.Segments))
	}
}

func TestFullFusionEquivalenceAndStaticSubsumption(t *testing.T) {
	opts := DefaultOptions()
	opts.FullFusion = true
	opts.Partitioned = false
	sys, _ := fusionEquivalence(t, opts)
	// Full fusion splices the nested raise away: only the 13 entry
	// activations are dispatched at all.
	if got := sys.Stats().Raises.Load(); got != 13 {
		t.Errorf("Raises = %d, want 13 (nested raise spliced)", got)
	}
}

func TestFusionFallsBackAfterRebind(t *testing.T) {
	sys, mod, push := buildHIRPipeline(t)
	prof := profileOf(t, sys, func() { runPushWorkload(sys, push, 40) })
	if _, _, err := Apply(sys, prof, mod, DefaultOptions()); err != nil {
		t.Fatal(err)
	}

	// Rebind net with an extra native handler; the fused net segment is
	// now stale and must fall back per segment (partitioned default).
	extra := 0
	net := sys.Lookup("net")
	sys.Bind(net, "h_extra", func(*event.Ctx) { extra++ })

	sys.Stats().Reset()
	runPushWorkload(sys, push, 5)
	if extra != 5 {
		t.Errorf("new handler ran %d times, want 5", extra)
	}
	if sys.Stats().SegFallbacks.Load() != 5 {
		t.Errorf("SegFallbacks = %d, want 5", sys.Stats().SegFallbacks.Load())
	}
	if sys.Stats().FastRuns.Load() != 5 {
		t.Errorf("FastRuns = %d, want 5 (entry still fast)", sys.Stats().FastRuns.Load())
	}
}

func TestMixedIRAndNativePreventsFullFusionButStillWorks(t *testing.T) {
	sys, mod, push := buildHIRPipeline(t)
	// Add a native handler to net: its segment cannot fuse.
	native := 0
	sys.Bind(sys.Lookup("net"), "h_native", func(*event.Ctx) { native++ }, event.WithOrder(9))
	prof := profileOf(t, sys, func() { runPushWorkload(sys, push, 40) })
	nativeDuringProfile := native

	opts := DefaultOptions()
	opts.FullFusion = true // must silently degrade: not all handlers have IR
	_, ins, err := Apply(sys, prof, mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Supers) == 0 {
		t.Fatal("nothing installed")
	}
	sys.Stats().Reset()
	runPushWorkload(sys, push, 8)
	if native-nativeDuringProfile != 8 {
		t.Errorf("native handler ran %d times, want 8", native-nativeDuringProfile)
	}
	if sys.Stats().FastRuns.Load() != 8 {
		t.Errorf("FastRuns = %d", sys.Stats().FastRuns.Load())
	}
	// The push segment may fuse; the net segment must not be fused.
	sh := sys.FastPath(push)
	for i := range sh.Segments {
		if sh.Segments[i].EventName == "net" && sh.Segments[i].Fused != nil {
			t.Error("mixed segment was fused")
		}
	}
}

func TestFusedChainMatchesStepSequenceSemantics(t *testing.T) {
	// The same workload under (a) no optimization, (b) steps-only merge,
	// (c) per-segment fusion, (d) full fusion must leave identical state.
	variants := []struct {
		name string
		opts func() (Options, bool)
	}{
		{"steps-only", func() (Options, bool) { o := DefaultOptions(); o.FuseHIR = false; return o, false }},
		{"per-segment", func() (Options, bool) { return DefaultOptions(), false }},
		{"full-fusion", func() (Options, bool) {
			o := DefaultOptions()
			o.FullFusion = true
			o.Partitioned = false
			return o, false
		}},
		{"compiled", func() (Options, bool) {
			o := DefaultOptions()
			o.CompileClosures = true
			return o, false
		}},
		{"full-fusion-compiled", func() (Options, bool) {
			o := DefaultOptions()
			o.FullFusion = true
			o.Partitioned = false
			o.CompileClosures = true
			return o, false
		}},
	}

	ref, refMod, refPush := buildHIRPipeline(t)
	runPushWorkload(ref, refPush, 9)
	want := refMod.Globals.Snapshot()

	for _, v := range variants {
		sys, mod, push := buildHIRPipeline(t)
		prof := profileOf(t, sys, func() { runPushWorkload(sys, push, 25) })
		opts, _ := v.opts()
		if _, _, err := Apply(sys, prof, mod, opts); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		// Zero the cells that profiling populated.
		for _, n := range mod.Globals.Names() {
			mod.Globals.Set(n, hir.IntVal(0))
		}
		runPushWorkload(sys, push, 9)
		got := mod.Globals.Snapshot()
		// Compare only cells present in the reference (profiling left the
		// same cells populated, all zeroed before the run).
		for k, wv := range want {
			if gv, ok := got[k]; !ok || !gv.Equal(wv) {
				t.Errorf("%s: cell %s = %v, want %v", v.name, k, gv, wv)
			}
		}
	}
}

// TestFullFusionPartitionedSeesInteriorRebind binds a second HIR handler
// on the interior event net after a FullFusion plan with the default
// partitioned guards is installed. The spliced copy of net sits behind
// net's own guard, so the new handler must run on every push.
func TestFullFusionPartitionedSeesInteriorRebind(t *testing.T) {
	sys, mod, push := buildHIRPipeline(t)
	prof := profileOf(t, sys, func() { runPushWorkload(sys, push, 40) })
	opts := DefaultOptions()
	opts.FullFusion = true
	if _, _, err := Apply(sys, prof, mod, opts); err != nil {
		t.Fatal(err)
	}
	b := hir.NewBuilder("h_extra", 0)
	n := b.Load("extra")
	b.Store("extra", b.Bin(hir.Add, n, b.Int(1)))
	b.Return(hir.NoReg)
	mod.Bind(sys.Lookup("net"), "h_extra", b.Fn(), event.WithOrder(5))
	mod.Globals.Set("extra", hir.IntVal(0))

	runPushWorkload(sys, push, 3)
	if got := mod.Globals.Get("extra").Int(); got != 3 {
		t.Errorf("handler bound on net after install ran %d of 3 times", got)
	}
}

// buildLoopRaise builds go, whose one handler raises leaf from a loop
// counted in the state cell i (flag true on the first pass, false on the
// second), and leaf, whose handler defines r only on its true arm and
// stores r after the join. Each activation of leaf starts from cleared
// registers, so the second raise stores none.
func buildLoopRaise(t *testing.T) (*event.System, *hirrt.Module, event.ID) {
	t.Helper()
	sys := event.New()
	mod := hirrt.NewModule(sys)
	goEv := sys.Define("go")
	leaf := sys.Define("leaf")

	g := hir.NewBuilder("h_go", 0)
	g.Store("i", g.Int(0))
	loop := g.NewBlock()
	done := g.NewBlock()
	g.SetBlock(hir.Entry)
	g.Jump(loop)
	g.SetBlock(loop)
	i := g.Load("i")
	flag := g.Bin(hir.Eq, i, g.Int(0))
	g.Raise("leaf", []string{"flag"}, []hir.Reg{flag})
	next := g.Bin(hir.Add, i, g.Int(1))
	g.Store("i", next)
	g.Branch(g.Bin(hir.Lt, next, g.Int(2)), loop, done)
	g.SetBlock(done)
	g.Return(hir.NoReg)
	mod.Bind(goEv, "h_go", g.Fn())

	l := hir.NewBuilder("h_leaf", 0)
	f := l.Arg("flag")
	thenB := l.NewBlock()
	join := l.NewBlock()
	l.SetBlock(hir.Entry)
	l.Branch(f, thenB, join)
	l.SetBlock(thenB)
	r := l.Int(1)
	l.Jump(join)
	l.SetBlock(join)
	l.Store("out", r)
	l.Store("outs", l.Bin(hir.Add, l.Load("outs"), l.Int(1)))
	l.Return(hir.NoReg)
	mod.Bind(leaf, "h_leaf", l.Fn())
	return sys, mod, goEv
}

// TestSplicedCalleeStartsFromClearedRegisters runs a raise site twice in
// one activation under both splice forms: the second run of the spliced
// leaf must not see the register its first run defined.
func TestSplicedCalleeStartsFromClearedRegisters(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func() Options
	}{
		{"guarded", DefaultOptions},
		{"basic", func() Options {
			o := DefaultOptions()
			o.FullFusion = true
			o.Partitioned = false
			return o
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, mod, goEv := buildLoopRaise(t)
			prof := profileOf(t, sys, func() {
				for k := 0; k < 20; k++ {
					sys.Raise(goEv)
				}
			})
			if _, ins, err := Apply(sys, prof, mod, tc.opts()); err != nil {
				t.Fatal(err)
			} else if len(ins.Supers) == 0 || len(ins.Supers[0].Segments) != 2 {
				t.Fatalf("go -> leaf chain not planned: %+v", ins.Supers)
			}
			mod.Globals.Set("out", hir.IntVal(7))
			mod.Globals.Set("outs", hir.IntVal(0))
			sys.Stats().Reset()
			sys.Raise(goEv)
			if got := mod.Globals.Get("outs").Int(); got != 2 {
				t.Fatalf("leaf ran %d times, want 2", got)
			}
			if got := sys.Stats().Raises.Load(); got != 1 {
				t.Errorf("Raises = %d, want 1 (both leaf raises spliced)", got)
			}
			if got := mod.Globals.Get("out"); !got.Equal(hir.None) {
				t.Errorf("second leaf run stored %v, want none (generic dispatch)", got)
			}
		})
	}
}
