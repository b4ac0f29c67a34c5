package event

import (
	"testing"
	"time"
	"unsafe"

	"eventopt/internal/span"
	"eventopt/internal/telemetry"
)

// TestAllocRegression is the allocation gate of the zero-allocation hot
// raise path: a steady-state synchronous raise (generic or optimized,
// with up to inlineArgs arguments, untraced) allocates nothing, and an
// asynchronous raise-plus-step allocates at most one object per
// activation. A regression here means some dispatch layer started
// retaining or reallocating per-activation state.
func TestAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	// The args slices are hoisted outside the measured loops: building a
	// variadic []Arg at the call site is the caller's stack allocation
	// (or, for large values, the caller's boxing), not the dispatcher's.
	args := []Arg{{Name: "n", Val: 7}, {Name: "s", Val: "x"}}

	t.Run("SyncGeneric", func(t *testing.T) {
		s := New()
		ev := s.Define("hot")
		sink := 0
		s.Bind(ev, "h", func(ctx *Ctx) { sink += ctx.Args.Int("n") }, WithParams("n", "s"))
		if err := s.Raise(ev, args...); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(ev, args...)
		}); got != 0 {
			t.Errorf("sync generic raise: %.1f allocs/op, want 0", got)
		}
	})

	t.Run("SyncFastPath", func(t *testing.T) {
		s := New()
		ev := s.Define("hot")
		sink := 0
		fn := func(ctx *Ctx) { sink += ctx.Args.Int("n") }
		s.Bind(ev, "h", fn, WithParams("n", "s"))
		sh := &SuperHandler{
			Entry: ev,
			Segments: []Segment{{
				Event: ev, EventName: "hot", Version: s.Version(ev),
				Steps: []Step{{Event: ev, EventName: "hot", Handler: "h", Fn: fn}},
			}},
		}
		if err := s.InstallFastPath(sh); err != nil {
			t.Fatal(err)
		}
		if err := s.Raise(ev, args...); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(ev, args...)
		}); got != 0 {
			t.Errorf("sync fast-path raise: %.1f allocs/op, want 0", got)
		}
		if n := s.Stats().FastRuns.Load(); n == 0 {
			t.Fatal("fast path never ran; the gate measured the wrong path")
		}
	})

	t.Run("AsyncRaiseStep", func(t *testing.T) {
		s := New()
		ev := s.Define("hot")
		sink := 0
		s.Bind(ev, "h", func(ctx *Ctx) { sink += ctx.Args.Int("n") })
		s.RaiseAsync(ev, args...)
		s.Step()
		if got := testing.AllocsPerRun(200, func() {
			s.RaiseAsync(ev, args...)
			s.Step()
		}); got > 1 {
			t.Errorf("async raise+step: %.1f allocs/op, want <= 1", got)
		}
	})

	t.Run("BatchedDrain", func(t *testing.T) {
		// The batched drain loop — popRunnableBatch into the reusable
		// batch buffer, hoisted resolution across the batch — must add
		// nothing to the async path's budget: once the ring, pool and
		// batch buffer have grown, a raise burst plus DrainBatched is
		// allocation-free.
		s := New()
		ev := s.Define("hot")
		sink := 0
		s.Bind(ev, "h", func(ctx *Ctx) { sink += ctx.Args.Int("n") })
		for i := 0; i < 8; i++ {
			s.RaiseAsync(ev, args...)
		}
		s.DrainBatched(8)
		if got := testing.AllocsPerRun(200, func() {
			for i := 0; i < 8; i++ {
				s.RaiseAsync(ev, args...)
			}
			s.DrainBatched(8)
		}); got != 0 {
			t.Errorf("batched drain of 8: %.1f allocs/op, want 0", got)
		}
	})

	t.Run("ObservedBatchedDrain", func(t *testing.T) {
		// The pipeline_burst configuration: a raise burst drained in
		// batches of 8 with telemetry and span tracing both sampling every
		// activation. Each batched activation takes the same observed
		// dispatch as a stepped one, and none of it may allocate.
		s := New(
			WithTelemetry(telemetry.Config{SampleEvery: 1, TimeSampleEvery: 1}),
			WithSpanTracing(span.Config{SampleEvery: 1}),
		)
		ev := s.Define("hot")
		sink := 0
		s.Bind(ev, "h", func(ctx *Ctx) { sink += ctx.Args.Int("n") })
		for i := 0; i < 8; i++ {
			s.RaiseAsync(ev, args...)
		}
		s.DrainBatched(8)
		if got := testing.AllocsPerRun(200, func() {
			for i := 0; i < 8; i++ {
				s.RaiseAsync(ev, args...)
			}
			s.DrainBatched(8)
		}); got != 0 {
			t.Errorf("observed batched drain of 8: %.1f allocs/op, want 0", got)
		}
		if st := s.Spans().Stats(); st.Spans == 0 {
			t.Fatal("no spans recorded; the gate measured the wrong path")
		}
	})

	t.Run("ObservedCrossDomainContinuation", func(t *testing.T) {
		// The pipeline_rpc configuration: a head on domain 0 whose
		// interior async raise is captured into domain 1's continuation
		// FIFO, with telemetry and span tracing on. Capture, pop and the
		// continuation's observed dispatch reuse pooled records and the
		// FIFO's backing array.
		s := New(
			WithDomains(2),
			WithTelemetry(telemetry.Config{}),
			WithSpanTracing(span.Config{SampleEvery: 1}),
		)
		head, _, _ := pipelineSH(t, s)
		one := []Arg{{Name: "n", Val: 1}}
		_ = s.Raise(head, one...)
		s.Drain()
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(head, one...)
			s.Drain()
		}); got != 0 {
			t.Errorf("observed cross-domain continuation: %.1f allocs/op, want 0", got)
		}
		if n := s.StatsAggregate().XDomainHandoffs; n == 0 {
			t.Fatal("nothing captured across domains; the gate measured the wrong path")
		}
	})

	t.Run("CoalescedAsyncRaise", func(t *testing.T) {
		// A speculatively coalesced async raise (capture + continuation
		// step) stays within the async path's one-object budget; steady
		// state it reuses the pooled record and the continuation slice.
		s := New()
		head := s.Define("head")
		tail := s.Define("tail")
		sink := 0
		headFn := func(ctx *Ctx) { ctx.RaiseAsync(tail, args...) }
		tailFn := func(ctx *Ctx) { sink += ctx.Args.Int("n") }
		s.Bind(head, "hh", headFn)
		s.Bind(tail, "ht", tailFn)
		sh := &SuperHandler{
			Entry: head,
			Segments: []Segment{
				{Event: head, EventName: "head", Version: s.Version(head),
					Steps: []Step{{Event: head, EventName: "head", Handler: "hh", Fn: headFn}}},
				{Event: tail, EventName: "tail", Version: s.Version(tail), AsyncEntry: true,
					Steps: []Step{{Event: tail, EventName: "tail", Handler: "ht", Fn: tailFn}}},
			},
		}
		if err := s.InstallFastPath(sh); err != nil {
			t.Fatal(err)
		}
		if err := s.Raise(head); err != nil {
			t.Fatal(err)
		}
		s.Step()
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(head)
			s.Step()
		}); got > 1 {
			t.Errorf("coalesced raise+step: %.1f allocs/op, want <= 1", got)
		}
		if n := s.Stats().Coalesced.Load(); n == 0 {
			t.Fatal("nothing coalesced; the gate measured the wrong path")
		}
	})

	t.Run("TracedSyncDispatch", func(t *testing.T) {
		// With a tracer installed the dispatcher takes the traced path;
		// the event-runtime side of it must still allocate nothing (the
		// recording side's amortization is gated in the trace package).
		s := New()
		ev := s.Define("hot")
		sink := 0
		s.Bind(ev, "h", func(ctx *Ctx) { sink += ctx.Args.Int("n") })
		s.SetTracer(countingTracer{})
		if got := testing.AllocsPerRun(2000, func() {
			_ = s.Raise(ev, args...)
		}); got > 0 {
			t.Errorf("traced sync raise: %.1f allocs/op, want 0 amortized", got)
		}
	})

	t.Run("TelemetrySyncGeneric", func(t *testing.T) {
		// The telemetry record paths (histograms, graph feed, flight
		// recorder) must stay off the heap: a sync raise with the full
		// observability layer enabled still allocates nothing.
		// TimeSampleEvery 1 forces every raise through the fully timed
		// path, so the gate covers the worst case, not the sampled-out one.
		s := New(WithTelemetry(telemetry.Config{TimeSampleEvery: 1}))
		ev := s.Define("hot")
		sink := 0
		s.Bind(ev, "h", func(ctx *Ctx) { sink += ctx.Args.Int("n") }, WithParams("n", "s"))
		if err := s.Raise(ev, args...); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(ev, args...)
		}); got != 0 {
			t.Errorf("telemetry sync generic raise: %.1f allocs/op, want 0", got)
		}
		if rows := s.Telemetry().Events(); len(rows) == 0 || rows[0].Latency.Count == 0 {
			t.Fatal("telemetry recorded nothing; the gate measured the wrong path")
		}
	})

	t.Run("TelemetryNestedSyncRaise", func(t *testing.T) {
		// Nested raises feed the graph sampler and per-event histograms;
		// SampleEvery 1 exercises the edge-bump path on every pair.
		s := New(WithTelemetry(telemetry.Config{SampleEvery: 1, TimeSampleEvery: 1}))
		outer := s.Define("outer")
		inner := s.Define("inner")
		sink := 0
		s.Bind(inner, "hi", func(ctx *Ctx) { sink += ctx.Args.Int("n") })
		s.Bind(outer, "ho", func(ctx *Ctx) { ctx.Raise(inner, args...) })
		if err := s.Raise(outer); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(outer)
		}); got != 0 {
			t.Errorf("telemetry nested sync raise: %.1f allocs/op, want 0", got)
		}
		if g := s.Telemetry().Graph(); len(g.Edges) == 0 {
			t.Fatal("graph feed recorded no edges; the gate measured the wrong path")
		}
	})

	t.Run("TelemetryAsyncRaiseStep", func(t *testing.T) {
		// The queue-delay stamp and scheduler-pop record must not push the
		// async path past its one-object budget.
		s := New(WithTelemetry(telemetry.Config{}))
		ev := s.Define("hot")
		sink := 0
		s.Bind(ev, "h", func(ctx *Ctx) { sink += ctx.Args.Int("n") })
		s.RaiseAsync(ev, args...)
		s.Step()
		if got := testing.AllocsPerRun(200, func() {
			s.RaiseAsync(ev, args...)
			s.Step()
		}); got > 1 {
			t.Errorf("telemetry async raise+step: %.1f allocs/op, want <= 1", got)
		}
	})

	t.Run("NestedSyncRaise", func(t *testing.T) {
		// Nested synchronous raises run in per-depth scratch slots; after
		// the slot stack has grown once, re-dispatch allocates nothing.
		s := New()
		outer := s.Define("outer")
		inner := s.Define("inner")
		sink := 0
		s.Bind(inner, "hi", func(ctx *Ctx) { sink += ctx.Args.Int("n") })
		s.Bind(outer, "ho", func(ctx *Ctx) { ctx.Raise(inner, args...) })
		if err := s.Raise(outer); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(outer)
		}); got != 0 {
			t.Errorf("nested sync raise: %.1f allocs/op, want 0", got)
		}
	})

	t.Run("SpannedSyncRaise", func(t *testing.T) {
		// Span tracing at SampleEvery 1 records a root span on every
		// raise: ID minting, seqlock ring write, duration-histogram feed
		// and the tail-retention draw must all stay off the heap.
		s := New(WithSpanTracing(span.Config{SampleEvery: 1}))
		ev := s.Define("hot")
		sink := 0
		s.Bind(ev, "h", func(ctx *Ctx) { sink += ctx.Args.Int("n") }, WithParams("n", "s"))
		if err := s.Raise(ev, args...); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(ev, args...)
		}); got != 0 {
			t.Errorf("spanned sync raise: %.1f allocs/op, want 0", got)
		}
		if st := s.Spans().Stats(); st.Spans == 0 {
			t.Fatal("no spans recorded; the gate measured the wrong path")
		}
	})

	t.Run("SpannedNestedSyncRaise", func(t *testing.T) {
		// A nested raise inside a sampled trace adds a child-span bracket
		// per level; the propagation words live in the domain record.
		s := New(WithSpanTracing(span.Config{SampleEvery: 1}))
		outer := s.Define("outer")
		inner := s.Define("inner")
		sink := 0
		s.Bind(inner, "hi", func(ctx *Ctx) { sink += ctx.Args.Int("n") })
		s.Bind(outer, "ho", func(ctx *Ctx) { ctx.Raise(inner, args...) })
		if err := s.Raise(outer); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(outer)
		}); got != 0 {
			t.Errorf("spanned nested sync raise: %.1f allocs/op, want 0", got)
		}
	})

	t.Run("SpannedTelemetrySyncRaise", func(t *testing.T) {
		// The full observability stack at once — timed telemetry plus
		// span tracing, both sampling every activation — is the ISSUE's
		// alloc gate: the sync raise path must still allocate nothing.
		s := New(
			WithTelemetry(telemetry.Config{TimeSampleEvery: 1}),
			WithSpanTracing(span.Config{SampleEvery: 1}),
		)
		ev := s.Define("hot")
		sink := 0
		s.Bind(ev, "h", func(ctx *Ctx) { sink += ctx.Args.Int("n") }, WithParams("n", "s"))
		if err := s.Raise(ev, args...); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(ev, args...)
		}); got != 0 {
			t.Errorf("spanned+timed sync raise: %.1f allocs/op, want 0", got)
		}
	})

	t.Run("DelayedRaiseFire", func(t *testing.T) {
		// A timed raise copies its arguments into a recycled timer entry
		// and the fire moves them into a pooled activation record; once
		// the domain's free list holds an entry, arm plus fire on a
		// virtual clock allocates nothing.
		s := New(WithClock(NewVirtualClock()))
		ev := s.Define("tick")
		sink := 0
		s.Bind(ev, "h", func(ctx *Ctx) { sink += ctx.Args.Int("n") })
		s.RaiseAfter(time.Millisecond, ev, args...)
		s.Drain()
		if got := testing.AllocsPerRun(200, func() {
			s.RaiseAfter(time.Millisecond, ev, args...)
			s.Drain()
		}); got != 0 {
			t.Errorf("delayed raise+fire: %.1f allocs/op, want 0", got)
		}
		if sink != 7*202 {
			t.Fatalf("handler saw n summed to %d, want %d", sink, 7*202)
		}
	})

	t.Run("DelayedRaiseCancel", func(t *testing.T) {
		// Cancel flags the entry under the domain's queue lock; the drop
		// off the heap top releases it for the next arm.
		s := New(WithClock(NewVirtualClock()))
		ev := s.Define("tick")
		s.Bind(ev, "h", func(ctx *Ctx) { t.Error("a canceled timer fired") })
		s.RaiseAfter(time.Millisecond, ev, args...).Cancel()
		s.Drain()
		if got := testing.AllocsPerRun(200, func() {
			tm := s.RaiseAfter(time.Millisecond, ev, args...)
			if !tm.Cancel() {
				t.Error("Cancel of an armed timer reported false")
			}
			s.Drain()
		}); got != 0 {
			t.Errorf("delayed raise+cancel: %.1f allocs/op, want 0", got)
		}
	})

	t.Run("UnboxedArgs", func(t *testing.T) {
		// Int64 and Bytes words travel unboxed: building them, marshaling
		// them and reading them back through Args.Int64/Bytes allocates
		// nothing, whatever the integer's magnitude.
		s := New()
		ev := s.Define("hot")
		payload := make([]byte, 64)
		var seqSum int64
		var lenSum int
		s.Bind(ev, "h", func(ctx *Ctx) {
			seqSum += ctx.Args.Int64("seq")
			lenSum += len(ctx.Args.Bytes("seg"))
		}, WithParams("seq", "seg"))
		seq := int64(1) << 40
		if err := s.Raise(ev, Int64("seq", seq), Bytes("seg", payload)); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			seq++
			_ = s.Raise(ev, Int64("seq", seq), Bytes("seg", payload))
		}); got != 0 {
			t.Errorf("sync raise with unboxed args: %.1f allocs/op, want 0", got)
		}
		if lenSum != 64*202 || seqSum < 202<<40 {
			t.Fatalf("handler read seq sum %d, len sum %d", seqSum, lenSum)
		}
	})

	t.Run("SpannedAsyncRaiseStep", func(t *testing.T) {
		// Trace propagation through the queue rides the pooled activation
		// record — the async budget stays at one object per activation.
		s := New(WithSpanTracing(span.Config{SampleEvery: 1}))
		a := s.Define("a")
		b := s.Define("b")
		sink := 0
		s.Bind(a, "ha", func(ctx *Ctx) { ctx.RaiseAsync(b, args...) })
		s.Bind(b, "hb", func(ctx *Ctx) { sink += ctx.Args.Int("n") })
		_ = s.Raise(a)
		s.Drain()
		if got := testing.AllocsPerRun(200, func() {
			_ = s.Raise(a)
			s.Step()
		}); got > 1 {
			t.Errorf("spanned async raise+step: %.1f allocs/op, want <= 1", got)
		}
	})
}

// countingTracer is a minimal no-op Tracer: it turns tracing on so the
// dispatcher takes the traced path, without recording anything itself.
type countingTracer struct{}

func (countingTracer) Event(ID, string, Mode, int, int)          {}
func (countingTracer) HandlerEnter(ID, string, string, int, int) {}
func (countingTracer) HandlerExit(ID, string, string, int, int)  {}

// TestHotRecordLayout pins the sizes that keep the scheduler's hot
// records cache-friendly on 64-bit targets. An activation record fits
// the 256-byte size class (four whole cache lines; the unboxed argument
// word must not push it into the next class), and a dispatch slot is a
// whole number of cache lines, so the slots that two domains write from
// two cores never share a line. Adjust dispatchSlot's padding when Ctx
// or chainExec change size.
func TestHotRecordLayout(t *testing.T) {
	const cacheLine = 64 // x86-64 and most arm64 cores
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout targets 64-bit platforms")
	}
	if n := unsafe.Sizeof(activation{}); n > 256 {
		t.Errorf("activation is %d bytes, want <= 256", n)
	}
	if n := unsafe.Sizeof(dispatchSlot{}); n%cacheLine != 0 {
		t.Errorf("dispatchSlot is %d bytes, not a multiple of %d", n, cacheLine)
	}
}
