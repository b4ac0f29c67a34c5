package hirrt_test

import (
	"fmt"
	"strings"
	"testing"

	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
	"eventopt/internal/profile"
	"eventopt/internal/trace"
)

// TestAllocRegression is the allocation gate of interpreted HIR
// handlers: once warm, a body doing a load, a store, int arithmetic, a
// two-argument intrinsic call and a synchronous raise with small-int
// arguments allocates nothing. Calls and raises pass their arguments
// through the per-depth argument area, and loads, stores, intrinsics and
// raise targets are resolved when the body is bound.
func TestAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sys := event.New()
	mod := hirrt.NewModule(sys)
	ev := sys.Define("E")
	out := sys.Define("Out")
	mod.RegisterIntrinsic("mix", false, func(a []hir.Value) hir.Value {
		return hir.IntVal(a[0].Int()*31 + a[1].Int())
	})
	sink := int64(0)
	sys.Bind(out, "sink", func(c *event.Ctx) { sink += c.Args.Int64("v") + c.Args.Int64("w") })

	b := hir.NewBuilder("h", 0)
	n := b.Arg("n")
	one := b.Int(1)
	b.Store("count", b.Bin(hir.Add, b.Load("count"), one))
	m := b.Call("mix", n, one)
	v := b.Bin(hir.And, m, b.Int(127))
	b.Raise("Out", []string{"v", "w"}, []hir.Reg{v, one})
	b.Return(hir.NoReg)
	mod.Bind(ev, "h", b.Fn())

	args := []event.Arg{{Name: "n", Val: 3}}
	if err := sys.Raise(ev, args...); err != nil { // warm-up: grows the scratch
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { _ = sys.Raise(ev, args...) }); got != 0 {
		t.Errorf("interpreted HIR handler: %.1f allocs/op, want 0", got)
	}
	if got := mod.Globals.Get("count").Int(); got != 202 {
		t.Errorf("count = %d, want 202", got)
	}
	if want := int64(202 * ((3*31+1)&127 + 1)); sink != want {
		t.Errorf("sink = %d, want %d", sink, want)
	}
}

// TestAllocRegressionUnboxedRaise gates the HIR-to-event argument
// boundary: a body raising an int far outside the runtime's small-int
// cache and a bytes argument, synchronously and delayed, allocates
// nothing once warm. The values cross as unboxed argument words
// (ArgOf) and come back through Args.Int64/Bytes without boxing.
func TestAllocRegressionUnboxedRaise(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sys := event.New(event.WithClock(event.NewVirtualClock()))
	mod := hirrt.NewModule(sys)
	ev := sys.Define("E")
	now := sys.Define("Now")
	later := sys.Define("Later")
	var seqSum int64
	var lenSum int
	sink := func(c *event.Ctx) {
		seqSum += c.Args.Int64("seq")
		lenSum += len(c.Args.Bytes("seg"))
	}
	sys.Bind(now, "sink", sink)
	sys.Bind(later, "sink", sink)

	b := hir.NewBuilder("h", 0)
	seq := b.Bin(hir.Add, b.Arg("n"), b.Int(1<<40))
	seg := b.Arg("seg")
	b.Raise("Now", []string{"seq", "seg"}, []hir.Reg{seq, seg})
	b.RaiseAfter(1000, "Later", []string{"seq", "seg"}, []hir.Reg{seq, seg})
	b.Return(hir.NoReg)
	mod.Bind(ev, "h", b.Fn())

	payload := make([]byte, 48)
	n := int64(0)
	raise := func() {
		n++
		_ = sys.Raise(ev, event.Int64("n", n), event.Bytes("seg", payload))
		sys.Drain()
	}
	raise() // warm-up: grows the scratch and the timer free list
	if got := testing.AllocsPerRun(200, raise); got != 0 {
		t.Errorf("HIR raise of unboxed int and bytes, sync and delayed: %.1f allocs/op, want 0", got)
	}
	if want := 2 * (202<<40 + 202*203/2); seqSum != int64(want) || lenSum != 2*202*48 {
		t.Errorf("sinks saw seq sum %d (want %d), len sum %d (want %d)", seqSum, want, lenSum, 2*202*48)
	}
}

// callBody is a body storing intrinsic(n) into cell.
func callBody(name, intrinsic, cell string) *hir.Function {
	b := hir.NewBuilder(name, 0)
	b.Store(cell, b.Call(intrinsic, b.Arg("n")))
	b.Return(hir.NoReg)
	return b.Fn()
}

func TestWrapIntrinsicAfterHandlerFunc(t *testing.T) {
	sys := event.New()
	mod := hirrt.NewModule(sys)
	ev := sys.Define("E")
	mod.RegisterIntrinsic("f", false, func(a []hir.Value) hir.Value { return a[0] })
	mod.Bind(ev, "h", callBody("h", "f", "out"))

	sys.Raise(ev, event.A("n", 5))
	if got := mod.Globals.Get("out").Int(); got != 5 {
		t.Fatalf("out = %d before wrap", got)
	}
	mod.WrapIntrinsic("f", func(in hir.Intrinsic) hir.Intrinsic {
		base := in.Fn
		in.Fn = func(a []hir.Value) hir.Value { return hir.IntVal(base(a).Int() + 100) }
		return in
	})
	sys.Raise(ev, event.A("n", 5))
	if got := mod.Globals.Get("out").Int(); got != 105 {
		t.Errorf("out = %d after wrap, want 105: the bound handler missed the wrapper", got)
	}
}

func TestWrapIntrinsicAfterPlanInstall(t *testing.T) {
	sys := event.New()
	mod := hirrt.NewModule(sys)
	a := sys.Define("A")
	bEv := sys.Define("B")
	mod.RegisterIntrinsic("f", false, func(a []hir.Value) hir.Value { return a[0] })

	ab := hir.NewBuilder("ah", 0)
	n := ab.Arg("n")
	ab.Store("x", ab.Call("f", n))
	ab.Raise("B", []string{"n"}, []hir.Reg{n})
	ab.Return(hir.NoReg)
	mod.Bind(a, "ah", ab.Fn())
	mod.Bind(bEv, "bh", callBody("bh", "f", "y"))

	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	sys.SetTracer(rec)
	for i := 0; i < 50; i++ {
		sys.Raise(a, event.A("n", i))
	}
	sys.SetTracer(nil)
	prof, err := profile.Analyze(rec.Entries())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Apply(sys, prof, mod, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if sys.FastPath(a) == nil {
		t.Fatal("no fast path installed on A")
	}

	calls := 0
	mod.WrapIntrinsic("f", func(in hir.Intrinsic) hir.Intrinsic {
		base := in.Fn
		in.Fn = func(a []hir.Value) hir.Value { calls++; return base(a) }
		return in
	})
	fast := sys.Stats().FastRuns.Load()
	sys.Raise(a, event.A("n", 7))
	if sys.Stats().FastRuns.Load() == fast {
		t.Fatal("raise did not run the installed super-handler")
	}
	if calls != 2 {
		t.Errorf("wrapper saw %d calls, want 2 (one per fused handler)", calls)
	}
	if mod.Globals.Get("x").Int() != 7 || mod.Globals.Get("y").Int() != 7 {
		t.Errorf("x, y = %v, %v", mod.Globals.Get("x"), mod.Globals.Get("y"))
	}
}

func TestIntrinsicRegisteredAfterBind(t *testing.T) {
	sys := event.New()
	mod := hirrt.NewModule(sys)
	ev := sys.Define("E")
	mod.Bind(ev, "h", callBody("h", "late", "out"))

	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), hir.ErrNoIntrinsic.Error()) {
				t.Errorf("unregistered intrinsic: recovered %v, want %q", r, hir.ErrNoIntrinsic)
			}
		}()
		sys.Raise(ev, event.A("n", 1))
	}()
	if _, ok := mod.OptInfo().Intrinsics["late"]; ok {
		t.Error("a linked but unregistered intrinsic shows in OptInfo")
	}
	if mod.WrapIntrinsic("late", func(in hir.Intrinsic) hir.Intrinsic { return in }) {
		t.Error("WrapIntrinsic reported an unregistered intrinsic as present")
	}

	mod.RegisterIntrinsic("late", false, func(a []hir.Value) hir.Value { return hir.IntVal(a[0].Int() * 3) })
	sys.Raise(ev, event.A("n", 4))
	if got := mod.Globals.Get("out").Int(); got != 12 {
		t.Errorf("out = %d, want 12 once registered", got)
	}
}

func TestRaiseOfUndefinedEventIgnored(t *testing.T) {
	sys := event.New()
	mod := hirrt.NewModule(sys)
	ev := sys.Define("E")
	b := hir.NewBuilder("h", 0)
	one := b.Int(1)
	b.Raise("Later", []string{"v"}, []hir.Reg{one})
	b.Store("done", b.Bin(hir.Add, b.Load("done"), one))
	b.Return(hir.NoReg)
	mod.Bind(ev, "h", b.Fn())

	if err := sys.Raise(ev); err != nil {
		t.Fatal(err)
	}
	if got := mod.Globals.Get("done").Int(); got != 1 {
		t.Fatalf("done = %d: the body did not run past the ignored raise", got)
	}

	// An event defined after binding is found by the next raise.
	later := sys.Define("Later")
	hits := int64(0)
	sys.Bind(later, "lh", func(c *event.Ctx) { hits += c.Args.Int64("v") })
	sys.Raise(ev)
	if hits != 1 {
		t.Errorf("hits = %d after defining the event, want 1", hits)
	}
}

// TestArgumentAreaReentrancy: an intrinsic synchronously raises into the
// same HIR body, which runs one nesting depth deeper and calls the same
// intrinsic with other arguments. The outer call's arguments, and the
// arguments of the raise that follows it, must be unchanged afterwards.
func TestArgumentAreaReentrancy(t *testing.T) {
	sys := event.New()
	mod := hirrt.NewModule(sys)
	ev := sys.Define("E")
	done := sys.Define("Done")

	var cur *event.Ctx
	sys.Bind(ev, "grab", func(c *event.Ctx) { cur = c }, event.WithOrder(1))
	var clobbered []string
	mod.RegisterIntrinsic("probe", false, func(a []hir.Value) hir.Value {
		d, tag := a[0].Int(), a[1].Int()
		if d > 0 {
			cur.Raise(ev, event.A("depth", d-1)) // reenters the body at depth+1
		}
		if a[0].Int() != d || a[1].Int() != tag {
			clobbered = append(clobbered, fmt.Sprintf("depth %d: args %v, %v became %v, %v", d, d, tag, a[0], a[1]))
		}
		return hir.IntVal(d + tag)
	})
	var got []string
	sys.Bind(done, "record", func(c *event.Ctx) {
		got = append(got, fmt.Sprintf("%d/%d/%d", c.Args.Int64("d"), c.Args.Int64("tag"), c.Args.Int64("r")))
	})

	b := hir.NewBuilder("h", 0)
	d := b.Arg("depth")
	tag := b.Bin(hir.Add, b.Bin(hir.Mul, d, b.Int(1000)), b.Int(7))
	r := b.Call("probe", d, tag)
	b.Raise("Done", []string{"d", "tag", "r"}, []hir.Reg{d, tag, r})
	b.Return(hir.NoReg)
	mod.Bind(ev, "h", b.Fn(), event.WithOrder(2))

	sys.Raise(ev, event.A("depth", 3))
	for _, c := range clobbered {
		t.Error(c)
	}
	want := []string{"0/7/7", "1/1007/1008", "2/2007/2009", "3/3007/3010"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Done raises = %v, want %v", got, want)
	}
}

func TestHandlerFuncInvalidBodyPanicsOnActivation(t *testing.T) {
	sys := event.New()
	mod := hirrt.NewModule(sys)
	ev := sys.Define("E")
	mod.Bind(ev, "bad", &hir.Function{Name: "bad"}) // no blocks: does not link
	defer func() {
		if r := recover(); r == nil {
			t.Error("activating a body that failed to link did not panic")
		}
	}()
	sys.Raise(ev)
}

// TestWrapIntrinsicConcurrentWithExecution: bodies read intrinsic slots
// while another goroutine wraps and re-registers them; run under -race.
func TestWrapIntrinsicConcurrentWithExecution(t *testing.T) {
	sys := event.New()
	mod := hirrt.NewModule(sys)
	ev := sys.Define("E")
	mod.RegisterIntrinsic("f", false, func(a []hir.Value) hir.Value { return a[0] })
	mod.Bind(ev, "h", callBody("h", "f", "out"))

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				sys.Raise(ev, event.A("n", 1))
			}
		}
	}()
	for i := 0; i < 200; i++ {
		mod.WrapIntrinsic("f", func(in hir.Intrinsic) hir.Intrinsic { return in })
		mod.RegisterIntrinsic("f", false, func(a []hir.Value) hir.Value { return a[0] })
	}
	close(stop)
	<-done
}
