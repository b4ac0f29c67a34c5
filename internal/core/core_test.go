package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/profile"
	"eventopt/internal/trace"
)

// runProfiled executes workload under a recorder and returns the profile.
func runProfiled(t *testing.T, sys *event.System, workload func()) *profile.Profile {
	t.Helper()
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	sys.SetTracer(rec)
	workload()
	sys.SetTracer(nil)
	p, err := profile.Analyze(rec.Entries())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// handlerSeq captures the handler execution order of a workload.
func handlerSeq(sys *event.System, workload func()) []string {
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	sys.SetTracer(rec)
	workload()
	sys.SetTracer(nil)
	var seq []string
	for _, e := range rec.Entries() {
		if e.Kind == trace.HandlerEnter {
			seq = append(seq, e.EventName+"/"+e.Handler)
		}
	}
	return seq
}

// buildVideoLike creates a three-event chain A -> B -> C where A's second
// handler raises B synchronously and B's handler raises C synchronously,
// with a shared counter to detect behavioral divergence.
func buildVideoLike() (*event.System, map[string]*int, []event.ID) {
	sys := event.New()
	a := sys.Define("A")
	b := sys.Define("B")
	c := sys.Define("C")
	counts := map[string]*int{}
	cnt := func(n string) *int { v := new(int); counts[n] = v; return v }
	ca1, ca2, cb1, cb2, cc1 := cnt("a1"), cnt("a2"), cnt("b1"), cnt("b2"), cnt("c1")
	sys.Bind(a, "a1", func(cx *event.Ctx) { *ca1 += cx.Args.Int("n") }, event.WithOrder(1))
	sys.Bind(a, "a2", func(cx *event.Ctx) {
		*ca2++
		cx.Raise(b, event.A("n", cx.Args.Int("n")*2))
	}, event.WithOrder(2))
	sys.Bind(b, "b1", func(cx *event.Ctx) { *cb1 += cx.Args.Int("n") }, event.WithOrder(1))
	sys.Bind(b, "b2", func(cx *event.Ctx) {
		*cb2++
		cx.Raise(c, event.A("n", 1))
	}, event.WithOrder(2))
	sys.Bind(c, "c1", func(cx *event.Ctx) { *cc1 += cx.Args.Int("n") })
	return sys, counts, []event.ID{a, b, c}
}

func snapshotCounts(m map[string]*int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = *v
	}
	return out
}

func TestBuildPlanFindsChain(t *testing.T) {
	sys, _, ids := buildVideoLike()
	prof := runProfiled(t, sys, func() {
		for i := 0; i < 50; i++ {
			sys.Raise(ids[0], event.A("n", 3))
		}
	})
	plan, err := BuildPlan(sys, prof, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) == 0 {
		t.Fatal("empty plan")
	}
	// The A entry must cover B and C through subsumption.
	var aEntry *PlanEntry
	for i := range plan.Entries {
		if plan.Entries[i].Event == ids[0] {
			aEntry = &plan.Entries[i]
		}
	}
	if aEntry == nil {
		t.Fatalf("no entry for A in plan:\n%s", plan.Describe(sys))
	}
	if len(aEntry.Chain) != 3 {
		t.Errorf("A chain = %v, want 3 events\n%s", aEntry.Chain, plan.Describe(sys))
	}
	if !strings.Contains(plan.Describe(sys), "chain=[A B C]") {
		t.Errorf("Describe:\n%s", plan.Describe(sys))
	}
}

func TestBuildPlanNoSubsume(t *testing.T) {
	sys, _, ids := buildVideoLike()
	prof := runProfiled(t, sys, func() {
		for i := 0; i < 50; i++ {
			sys.Raise(ids[0], event.A("n", 3))
		}
	})
	opts := DefaultOptions()
	opts.Subsume = false
	plan, err := BuildPlan(sys, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Entries {
		if len(e.Chain) != 1 {
			t.Errorf("chain for %s = %v, want singleton", e.EventName, e.Chain)
		}
	}
}

func TestBuildPlanMergeAllIncludesColdEvents(t *testing.T) {
	sys := event.New()
	hotE := sys.Define("hot")
	coldE := sys.Define("cold")
	single := sys.Define("single")
	sys.Bind(hotE, "h1", func(*event.Ctx) {})
	sys.Bind(hotE, "h2", func(*event.Ctx) {})
	sys.Bind(coldE, "c1", func(*event.Ctx) {})
	sys.Bind(coldE, "c2", func(*event.Ctx) {})
	sys.Bind(single, "s1", func(*event.Ctx) {})
	prof := runProfiled(t, sys, func() {
		for i := 0; i < 100; i++ {
			sys.Raise(hotE)
		}
		sys.Raise(coldE)
	})

	plan, err := BuildPlan(sys, prof, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Entries {
		if e.Event == coldE {
			t.Error("cold event planned without MergeAll")
		}
	}

	opts := DefaultOptions()
	opts.MergeAll = true
	plan, err = BuildPlan(sys, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	foundCold, foundSingle := false, false
	for _, e := range plan.Entries {
		if e.Event == coldE {
			foundCold = true
		}
		if e.Event == single {
			foundSingle = true
		}
	}
	if !foundCold {
		t.Error("MergeAll did not include the cold multi-handler event")
	}
	if foundSingle {
		t.Error("MergeAll included a single-handler event")
	}
}

func TestBuildPlanNilProfile(t *testing.T) {
	if _, err := BuildPlan(event.New(), nil, DefaultOptions()); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestAutoThreshold(t *testing.T) {
	g := profile.NewEventGraph()
	if AutoThreshold(g) != 2 {
		t.Errorf("empty graph threshold = %d", AutoThreshold(g))
	}
	g.AddEdge(0, 1, 500, 500)
	if AutoThreshold(g) != 50 {
		t.Errorf("threshold = %d, want 50", AutoThreshold(g))
	}
}

func TestInstallPreservesBehaviorNativeHandlers(t *testing.T) {
	// Reference run on an identical system.
	sysRef, countsRef, idsRef := buildVideoLike()
	refSeq := handlerSeq(sysRef, func() {
		for i := 0; i < 7; i++ {
			sysRef.Raise(idsRef[0], event.A("n", i))
		}
	})
	refCounts := snapshotCounts(countsRef)

	// Optimized run.
	sys, counts, ids := buildVideoLike()
	prof := runProfiled(t, sys, func() {
		for i := 0; i < 50; i++ {
			sys.Raise(ids[0], event.A("n", 1))
		}
	})
	for _, v := range counts {
		*v = 0
	}
	plan, ins, err := Apply(sys, prof, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Supers) == 0 {
		t.Fatalf("nothing installed; plan:\n%s", plan.Describe(sys))
	}
	sys.Stats().Reset()
	optSeq := handlerSeq(sys, func() {
		for i := 0; i < 7; i++ {
			sys.Raise(ids[0], event.A("n", i))
		}
	})
	if !reflect.DeepEqual(refSeq, optSeq) {
		t.Errorf("handler sequences diverge:\nref: %v\nopt: %v", refSeq, optSeq)
	}
	if !reflect.DeepEqual(refCounts, snapshotCounts(counts)) {
		t.Errorf("state diverges: ref=%v opt=%v", refCounts, snapshotCounts(counts))
	}
	if sys.Stats().FastRuns.Load() == 0 {
		t.Error("optimized run never took the fast path")
	}
	if sys.Stats().Fallbacks.Load() != 0 {
		t.Errorf("unexpected fallbacks: %d", sys.Stats().Fallbacks.Load())
	}

	// Uninstall restores generic dispatch.
	ins.Uninstall()
	sys.Stats().Reset()
	sys.Raise(ids[0], event.A("n", 1))
	if sys.Stats().FastRuns.Load() != 0 {
		t.Error("fast path ran after Uninstall")
	}
}

func TestInstallReducesGenericWork(t *testing.T) {
	sys, _, ids := buildVideoLike()
	prof := runProfiled(t, sys, func() {
		for i := 0; i < 50; i++ {
			sys.Raise(ids[0], event.A("n", 1))
		}
	})

	sys.Stats().Reset()
	for i := 0; i < 100; i++ {
		sys.Raise(ids[0], event.A("n", 1))
	}
	genericMarshals := sys.Stats().Marshals.Load()
	genericLocks := sys.Stats().Locks.Load()

	if _, _, err := Apply(sys, prof, nil, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	sys.Stats().Reset()
	for i := 0; i < 100; i++ {
		sys.Raise(ids[0], event.A("n", 1))
	}
	st := sys.Stats()
	if st.Marshals.Load() != 0 {
		t.Errorf("optimized path still marshals: %d (generic did %d)", st.Marshals.Load(), genericMarshals)
	}
	if st.Locks.Load() >= genericLocks {
		t.Errorf("lock traffic not reduced: %d vs %d", st.Locks.Load(), genericLocks)
	}
	if st.Indirect.Load() != 0 {
		t.Errorf("optimized path made generic indirect calls: %d", st.Indirect.Load())
	}
}

func TestMergeBodiesHaltAndBindArgs(t *testing.T) {
	// h1 stores bindarg k, h2 halts if arg stop, h3 stores 3.
	b1 := hir.NewBuilder("h1", 0)
	k := b1.BindArg("k")
	b1.Store("s1", k)
	b1.Return(hir.NoReg)

	b2 := hir.NewBuilder("h2", 0)
	stop := b2.Arg("stop")
	thenB := b2.NewBlock()
	done := b2.NewBlock()
	b2.SetBlock(hir.Entry)
	b2.Branch(stop, thenB, done)
	b2.SetBlock(thenB)
	b2.Halt()
	b2.Jump(done)
	b2.SetBlock(done)
	b2.Return(hir.NoReg)

	b3 := hir.NewBuilder("h3", 0)
	three := b3.Int(3)
	b3.Store("s3", three)
	b3.Return(hir.NoReg)

	merged := mergeBodies("super", []handlerPart{
		{name: "h1", body: b1.Fn(), bindArgs: event.MakeArgs([]event.Arg{event.A("k", 7)})},
		{name: "h2", body: b2.Fn()},
		{name: "h3", body: b3.Fn()},
	})
	if err := merged.Validate(); err != nil {
		t.Fatalf("invalid merged body: %v\n%s", err, merged)
	}
	// No bindarg instructions must remain.
	for bi := range merged.Blocks {
		for ii := range merged.Blocks[bi].Instrs {
			if merged.Blocks[bi].Instrs[ii].Op == hir.OpBindArg {
				t.Fatalf("bindarg survived merge:\n%s", merged)
			}
		}
	}
	run := func(stop bool) *hir.State {
		st := hir.NewState()
		env := &hir.Env{Globals: st, Args: func(n string) (hir.Value, bool) {
			if n == "stop" {
				return hir.BoolVal(stop), true
			}
			return hir.None, false
		}}
		if _, err := hir.Exec(merged, env); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := run(false)
	if st.Get("s1").Int() != 7 || st.Get("s3").Int() != 3 {
		t.Errorf("no-halt run: s1=%v s3=%v", st.Get("s1"), st.Get("s3"))
	}
	st = run(true)
	if st.Get("s1").Int() != 7 {
		t.Errorf("halt run: s1=%v", st.Get("s1"))
	}
	if !st.Get("s3").Equal(hir.None) {
		t.Errorf("halt did not skip h3: s3=%v", st.Get("s3"))
	}
}

// targetsOf wraps bare bodies as splice targets (segment indices in map
// order are irrelevant to the unguarded form).
func targetsOf(bodies map[string]*hir.Function) map[string]*spliceTarget {
	out := make(map[string]*spliceTarget, len(bodies))
	for name, body := range bodies {
		out[name] = &spliceTarget{body: body, seg: 1, live: body.ReadBeforeWrite()}
	}
	return out
}

func TestSpliceRaisesMapsArgs(t *testing.T) {
	// caller: raise "X"(v=40+2); callee X: store "got" = arg v + arg missing.
	cb := hir.NewBuilder("xbody", 0)
	v := cb.Arg("v")
	m := cb.Arg("missing")
	s := cb.Bin(hir.Add, v, m)
	cb.Store("got", s)
	cb.Return(hir.NoReg)

	b := hir.NewBuilder("caller", 0)
	x := b.Int(42)
	b.Raise("X", []string{"v"}, []hir.Reg{x})
	one := b.Int(1)
	b.Store("after", one)
	b.Return(hir.NoReg)
	fn := b.Fn()

	spliceRaises(fn, targetsOf(map[string]*hir.Function{"X": cb.Fn()}), false)
	if err := fn.Validate(); err != nil {
		t.Fatalf("invalid: %v\n%s", err, fn)
	}
	for bi := range fn.Blocks {
		for ii := range fn.Blocks[bi].Instrs {
			if fn.Blocks[bi].Instrs[ii].Op == hir.OpRaise {
				t.Fatalf("raise survived splice:\n%s", fn)
			}
		}
	}
	st := hir.NewState()
	if _, err := hir.Exec(fn, &hir.Env{Globals: st}); err != nil {
		t.Fatal(err)
	}
	if st.Get("got").Int() != 42 || st.Get("after").Int() != 1 {
		t.Errorf("got=%v after=%v", st.Get("got"), st.Get("after"))
	}
}

func TestSpliceRaisesCyclicBudget(t *testing.T) {
	// A raises B, B raises A: splicing must terminate and leave a
	// residual dynamic raise.
	ab := hir.NewBuilder("abody", 0)
	ab.Raise("B", nil, nil)
	ab.Return(hir.NoReg)
	bb := hir.NewBuilder("bbody", 0)
	bb.Raise("A", nil, nil)
	bb.Return(hir.NoReg)
	bodyA := ab.Fn().Clone()
	spliceRaises(bodyA, targetsOf(map[string]*hir.Function{"A": ab.Fn(), "B": bb.Fn()}), false)
	if err := bodyA.Validate(); err != nil {
		t.Fatal(err)
	}
	raises := 0
	for bi := range bodyA.Blocks {
		for ii := range bodyA.Blocks[bi].Instrs {
			if bodyA.Blocks[bi].Instrs[ii].Op == hir.OpRaise {
				raises++
			}
		}
	}
	if raises == 0 {
		t.Error("cyclic splice should leave a residual raise")
	}
}

func TestSpliceSkipsAsyncRaises(t *testing.T) {
	cb := hir.NewBuilder("xbody", 0)
	cb.Return(hir.NoReg)
	b := hir.NewBuilder("caller", 0)
	b.RaiseAsync("X", nil, nil)
	b.RaiseAfter(50, "X", nil, nil)
	b.Return(hir.NoReg)
	fn := b.Fn()
	spliceRaises(fn, targetsOf(map[string]*hir.Function{"X": cb.Fn()}), false)
	raises := 0
	for bi := range fn.Blocks {
		for ii := range fn.Blocks[bi].Instrs {
			if fn.Blocks[bi].Instrs[ii].Op == hir.OpRaise {
				raises++
			}
		}
	}
	if raises != 2 {
		t.Errorf("async raises = %d, want 2 (must not be spliced)", raises)
	}
}

// Property: for random event topologies and workloads, installing the
// optimizer's plan never changes the observable handler sequence.
func TestQuickOptimizedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		build := func() (*event.System, []event.ID) {
			rng := rand.New(rand.NewSource(seed))
			sys := event.New()
			const n = 5
			ids := make([]event.ID, n)
			for i := range ids {
				ids[i] = sys.Define(fmt.Sprintf("E%d", i))
			}
			for i := 0; i < n; i++ {
				nh := 1 + rng.Intn(3)
				for h := 0; h < nh; h++ {
					name := fmt.Sprintf("h%d_%d", i, h)
					// Deterministic behavior per handler, chosen at build time.
					kind := rng.Intn(4)
					target := ids[rng.Intn(n)]
					self := ids[i]
					sys.Bind(self, name, func(cx *event.Ctx) {
						switch kind {
						case 0: // pure work
						case 1: // conditional sync raise deeper
							if cx.Depth() < 3 && cx.Args.Int("n")%2 == 0 && target != self {
								cx.Raise(target, event.A("n", cx.Args.Int("n")+1))
							}
						case 2: // unconditional sync raise deeper
							if cx.Depth() < 3 && target != self {
								cx.Raise(target, event.A("n", cx.Args.Int("n")))
							}
						case 3: // halt sometimes
							if cx.Args.Int("n")%5 == 4 {
								cx.Halt()
							}
						}
					}, event.WithOrder(h))
				}
			}
			return sys, ids
		}
		workload := func(sys *event.System, ids []event.ID) func() {
			return func() {
				rng := rand.New(rand.NewSource(seed + 1))
				for i := 0; i < 30; i++ {
					sys.Raise(ids[rng.Intn(len(ids))], event.A("n", i))
				}
			}
		}

		sysRef, idsRef := build()
		refSeq := handlerSeq(sysRef, workload(sysRef, idsRef))

		sysOpt, idsOpt := build()
		rec := trace.NewRecorder()
		rec.EnableHandlerProfiling()
		sysOpt.SetTracer(rec)
		workload(sysOpt, idsOpt)()
		sysOpt.SetTracer(nil)
		prof, err := profile.Analyze(rec.Entries())
		if err != nil {
			return false
		}
		opts := DefaultOptions()
		opts.MergeAll = true
		if _, _, err := Apply(sysOpt, prof, nil, opts); err != nil {
			return false
		}
		optSeq := handlerSeq(sysOpt, workload(sysOpt, idsOpt))
		if !reflect.DeepEqual(refSeq, optSeq) {
			t.Logf("seed %d: sequences diverge\nref: %v\nopt: %v", seed, refSeq, optSeq)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
