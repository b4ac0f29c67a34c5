package event

import (
	"testing"
)

// pipelineSH installs a two-segment super-handler head -> ~tail on s:
// the head handler asynchronously raises tail, and the tail segment is
// marked AsyncEntry so that raise is a coalescing candidate. It returns
// the two event IDs and a pointer to the tail run counter.
func pipelineSH(t *testing.T, s *System) (head, tail ID, tailRuns *int) {
	t.Helper()
	head = s.Define("head")
	tail = s.Define("tail")
	runs := new(int)
	headFn := func(ctx *Ctx) { ctx.RaiseAsync(tail, A("n", ctx.Args.Int("n"))) }
	tailFn := func(ctx *Ctx) { *runs += ctx.Args.Int("n") }
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
	return head, tail, runs
}

// TestCoalesceCapturesAndRuns: with an idle queue, the interior async
// raise is captured as a continuation (no enqueue) and a later Step runs
// it through the merged segment.
func TestCoalesceCapturesAndRuns(t *testing.T) {
	s := New()
	head, _, tailRuns := pipelineSH(t, s)
	if err := s.Raise(head, A("n", 5)); err != nil {
		t.Fatal(err)
	}
	st := s.StatsAggregate()
	if st.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", st.Coalesced)
	}
	if *tailRuns != 0 {
		t.Fatal("continuation ran inside the raising activation; must be a separate top-level step")
	}
	if !s.Step() {
		t.Fatal("captured continuation not runnable via Step")
	}
	if *tailRuns != 5 {
		t.Fatalf("tail handler saw n=%d, want 5", *tailRuns)
	}
	st = s.StatsAggregate()
	if st.FastRuns != 2 {
		t.Fatalf("FastRuns = %d, want 2 (entry + continuation segment)", st.FastRuns)
	}
	if st.AsyncRaises != 1 || st.Raises != 2 {
		t.Fatalf("raise counters off: %+v", st)
	}
}

// TestCoalesceFallbackQueueNotEmpty: pending queued work blocks the
// capture — the raise is demoted to a real enqueue behind it, and the
// delivery order matches the generic FIFO.
func TestCoalesceFallbackQueueNotEmpty(t *testing.T) {
	s := New()
	var order []string
	head := s.Define("head")
	tail := s.Define("tail")
	other := s.Define("other")
	headFn := func(ctx *Ctx) { ctx.RaiseAsync(tail) }
	tailFn := func(*Ctx) { order = append(order, "tail") }
	s.Bind(head, "hh", headFn)
	s.Bind(tail, "ht", tailFn)
	s.Bind(other, "ho", func(*Ctx) { order = append(order, "other") })
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

	s.RaiseAsync(other) // sits in the queue when head's raise happens
	if err := s.Raise(head); err != nil {
		t.Fatal(err)
	}
	st := s.StatsAggregate()
	if st.Coalesced != 0 || st.CoalesceFallbacks != 1 {
		t.Fatalf("want pure fallback, got Coalesced=%d CoalesceFallbacks=%d",
			st.Coalesced, st.CoalesceFallbacks)
	}
	s.Drain()
	if len(order) != 2 || order[0] != "other" || order[1] != "tail" {
		t.Fatalf("fallback broke FIFO order: %v", order)
	}
}

// TestCoalesceFallbackDueTimer: a timer at or past its deadline also
// blocks the capture — the continuation must not overtake it.
func TestCoalesceFallbackDueTimer(t *testing.T) {
	vc := NewVirtualClock()
	s := New(WithClock(vc))
	head, _, tailRuns := pipelineSH(t, s)
	tick := s.Define("tick")
	ticks := 0
	s.Bind(tick, "ht", func(*Ctx) { ticks++ })
	s.RaiseAfter(0, tick) // due immediately
	if err := s.Raise(head, A("n", 2)); err != nil {
		t.Fatal(err)
	}
	st := s.StatsAggregate()
	if st.Coalesced != 0 || st.CoalesceFallbacks != 1 {
		t.Fatalf("due timer did not force fallback: Coalesced=%d Fallbacks=%d",
			st.Coalesced, st.CoalesceFallbacks)
	}
	s.Drain()
	if ticks != 1 || *tailRuns != 2 {
		t.Fatalf("drain incomplete: ticks=%d tailRuns=%d", ticks, *tailRuns)
	}
}

// TestCoalesceFallbackCrossDomain: an async-entry segment pinned to a
// different, idle domain is captured into that domain's continuation
// FIFO — not coalesced locally, not enqueued — and runs there on drain.
func TestCoalesceFallbackCrossDomain(t *testing.T) {
	s := New(WithDomains(2))
	head, _, tailRuns := pipelineSH(t, s) // IDs alternate: head on domain 0, tail on domain 1
	if err := s.Raise(head, A("n", 4)); err != nil {
		t.Fatal(err)
	}
	st := s.StatsAggregate()
	if st.Coalesced != 0 || st.CoalesceFallbacks != 0 || st.XDomainHandoffs != 1 || st.XDomainFallbacks != 0 {
		t.Fatalf("cross-domain raise not handed off: Coalesced=%d CoalesceFallbacks=%d XDomainHandoffs=%d XDomainFallbacks=%d",
			st.Coalesced, st.CoalesceFallbacks, st.XDomainHandoffs, st.XDomainFallbacks)
	}
	if s.QueueLen() != 0 {
		t.Fatalf("handoff should bypass the queue, QueueLen=%d", s.QueueLen())
	}
	s.Drain()
	if *tailRuns != 4 {
		t.Fatalf("tail handler saw n=%d, want 4", *tailRuns)
	}
	if st := s.StatsAggregate(); st.FastRuns < 2 {
		t.Fatalf("handed-off continuation should run through the segment, FastRuns=%d", st.FastRuns)
	}
}

// TestHandoffFallbackBusyTarget: a cross-domain capture against a
// target with queued work must fall back to a real enqueue behind it,
// preserving the target's FIFO order.
func TestHandoffFallbackBusyTarget(t *testing.T) {
	s := New(WithDomains(2))
	var order []string
	head := s.Define("head")
	tail := s.Define("tail")
	other := s.Define("other")
	if err := s.PinEvent(other, 1); err != nil { // alongside tail on domain 1
		t.Fatal(err)
	}
	headFn := func(ctx *Ctx) { ctx.RaiseAsync(tail) }
	tailFn := func(*Ctx) { order = append(order, "tail") }
	s.Bind(head, "hh", headFn)
	s.Bind(tail, "ht", tailFn)
	s.Bind(other, "ho", func(*Ctx) { order = append(order, "other") })
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

	s.RaiseAsync(other) // sits in domain 1's queue when head's raise happens
	if err := s.Raise(head); err != nil {
		t.Fatal(err)
	}
	st := s.StatsAggregate()
	if st.XDomainHandoffs != 0 || st.XDomainFallbacks != 1 {
		t.Fatalf("busy target did not force enqueue fallback: XDomainHandoffs=%d XDomainFallbacks=%d",
			st.XDomainHandoffs, st.XDomainFallbacks)
	}
	s.Drain()
	if len(order) != 2 || order[0] != "other" || order[1] != "tail" {
		t.Fatalf("handoff fallback broke FIFO order: %v", order)
	}
}

// TestCoalesceRebindBetweenCaptureAndRun: a rebind racing the pending
// continuation trips the segment guard at run time; the continuation
// falls back to generic dispatch against the fresh snapshot, so the
// newly bound handler runs.
func TestCoalesceRebindBetweenCaptureAndRun(t *testing.T) {
	s := New()
	head, tail, tailRuns := pipelineSH(t, s)
	if err := s.Raise(head, A("n", 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.StatsAggregate().Coalesced; got != 1 {
		t.Fatalf("Coalesced = %d, want 1", got)
	}
	fresh := 0
	s.Bind(tail, "late", func(*Ctx) { fresh++ }) // bumps tail's version
	if !s.Step() {
		t.Fatal("continuation not runnable")
	}
	st := s.StatsAggregate()
	if st.SegFallbacks == 0 {
		t.Fatal("stale continuation did not take the segment fallback")
	}
	if *tailRuns != 1 || fresh != 1 {
		t.Fatalf("generic fallback ran wrong bindings: tailRuns=%d fresh=%d", *tailRuns, fresh)
	}
}

// TestCoalesceSupervisedRetries: under a supervision policy, a captured
// continuation takes the full top-level route, so a panicking tail
// handler still reaches the retry machinery.
func TestCoalesceSupervisedRetries(t *testing.T) {
	vc := NewVirtualClock()
	s := New(WithClock(vc),
		WithFaultConfig(FaultConfig{Policy: Isolate}),
		WithRetryConfig(RetryConfig{MaxAttempts: 2, Backoff: 1e6}))
	head := s.Define("head")
	tail := s.Define("tail")
	attempts := 0
	headFn := func(ctx *Ctx) { ctx.RaiseAsync(tail) }
	tailFn := func(*Ctx) {
		attempts++
		if attempts == 1 {
			panic("first attempt fails")
		}
	}
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
	if got := s.StatsAggregate().Coalesced; got != 1 {
		t.Fatalf("Coalesced = %d, want 1", got)
	}
	s.Drain() // runs the continuation; the failed attempt arms a retry timer
	s.Drain() // advances the virtual clock to the retry deadline
	if attempts != 2 {
		t.Fatalf("tail ran %d times, want 2 (original + retry)", attempts)
	}
	if got := s.StatsAggregate().Retries; got != 1 {
		t.Fatalf("Retries = %d, want 1", got)
	}
}

// TestBatchedDrainRemainderBlocksCoalesce: activations a batched drain
// has popped but not yet run are no longer visible in the queue, yet a
// coalesced continuation must not overtake them. With three heads popped
// in one batch, each head's interior raise must land behind the batch
// remainder, reproducing the unbatched FIFO h1 h2 h3 t1 t2 t3.
func TestBatchedDrainRemainderBlocksCoalesce(t *testing.T) {
	s := New()
	var order []string
	head := s.Define("head")
	tail := s.Define("tail")
	headFn := func(ctx *Ctx) {
		order = append(order, "h")
		ctx.RaiseAsync(tail)
	}
	tailFn := func(*Ctx) { order = append(order, "t") }
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
	for i := 0; i < 3; i++ {
		s.RaiseAsync(head)
	}
	s.DrainBatched(8) // all three heads pop in one batch
	want := []string{"h", "h", "h", "t", "t", "t"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (continuation overtook batch remainder)", order, want)
		}
	}
	// h1 and h2 must have demoted their raises (batch remainder ahead),
	// h3's raise sees t1/t2 queued so it demotes too: three fallbacks.
	st := s.StatsAggregate()
	if st.CoalesceFallbacks != 3 || st.Coalesced != 0 {
		t.Fatalf("want 3 fallbacks 0 coalesces, got Fallbacks=%d Coalesced=%d",
			st.CoalesceFallbacks, st.Coalesced)
	}

	// A lone head popped as the whole batch has no remainder: its raise
	// coalesces and the continuation runs inside the same drain.
	order = order[:0]
	s.RaiseAsync(head)
	s.DrainBatched(8)
	if len(order) != 2 || order[0] != "h" || order[1] != "t" {
		t.Fatalf("singleton batch order = %v, want [h t]", order)
	}
	if got := s.StatsAggregate().Coalesced; got != 1 {
		t.Fatalf("singleton batch Coalesced = %d, want 1", got)
	}
}

// TestDrainBatchedEquivalent: the batched drain runs exactly the work a
// step-by-step drain would, including continuations and timers.
func TestDrainBatchedEquivalent(t *testing.T) {
	run := func(batched bool) (int, int64) {
		vc := NewVirtualClock()
		s := New(WithClock(vc))
		head, _, tailRuns := pipelineSH(t, s)
		tick := s.Define("tick")
		s.Bind(tick, "ht", func(*Ctx) { *tailRuns += 100 })
		for i := 0; i < 5; i++ {
			s.RaiseAsync(head, A("n", 1))
		}
		s.RaiseAfter(3e6, tick)
		var n int
		if batched {
			n = s.DrainBatched(4)
		} else {
			n = s.Drain()
		}
		return n, int64(*tailRuns)
	}
	nStep, sumStep := run(false)
	nBatch, sumBatch := run(true)
	if nStep != nBatch || sumStep != sumBatch {
		t.Fatalf("batched drain diverges: ran %d (sum %d) vs step %d (sum %d)",
			nBatch, sumBatch, nStep, sumStep)
	}
	if sumStep != 105 {
		t.Fatalf("workload sum = %d, want 105", sumStep)
	}
}

// installChain installs a two-segment super-handler head -> ~tail whose
// tail segment is an async-entry capture candidate.
func installChain(t *testing.T, s *System, head, tail ID, headFn, tailFn HandlerFunc) {
	t.Helper()
	sh := &SuperHandler{
		Entry: head,
		Segments: []Segment{
			{Event: head, EventName: s.EventName(head), Version: s.Version(head),
				Steps: []Step{{Event: head, EventName: s.EventName(head), Handler: "hh", Fn: headFn}}},
			{Event: tail, EventName: s.EventName(tail), Version: s.Version(tail), AsyncEntry: true,
				Steps: []Step{{Event: tail, EventName: s.EventName(tail), Handler: "ht", Fn: tailFn}}},
		},
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureRespectsQueueBound: a capture must not bypass a bounded
// queue's overflow policy. A head handler raises a covered async-entry
// tail five times against a queue bound of 2; the optimized run must
// deliver the same tails and count the same drops as the generic one,
// whether the tail lives on the head's domain or on another one.
func TestCaptureRespectsQueueBound(t *testing.T) {
	for _, doms := range []int{1, 2} {
		for _, pol := range []OverflowPolicy{DropNewest, DropOldest, RejectNew} {
			run := func(optimized bool) (sum int, st StatsSnapshot) {
				s := New(WithDomains(doms), WithQueueBound(2, pol))
				head := s.Define("head")
				tail := s.Define("tail")
				if err := s.PinEvent(tail, doms-1); err != nil {
					t.Fatal(err)
				}
				headFn := func(ctx *Ctx) {
					for n := 1; n <= 10000; n *= 10 {
						ctx.RaiseAsync(tail, A("n", n))
					}
				}
				tailFn := func(ctx *Ctx) { sum += ctx.Args.Int("n") }
				s.Bind(head, "hh", headFn)
				s.Bind(tail, "ht", tailFn)
				if optimized {
					installChain(t, s, head, tail, headFn, tailFn)
				}
				if err := s.Raise(head); err != nil {
					t.Fatal(err)
				}
				s.Drain()
				return sum, s.StatsAggregate()
			}
			gSum, gen := run(false)
			oSum, opt := run(true)
			if gen.QueueDrops != 3 {
				t.Fatalf("%d domains, policy %d: generic dropped %d, want 3", doms, pol, gen.QueueDrops)
			}
			if oSum != gSum || opt.QueueDrops != gen.QueueDrops {
				t.Errorf("%d domains, policy %d: optimized ran tails summing to %d with %d drops, generic %d with %d drops",
					doms, pol, oSum, opt.QueueDrops, gSum, gen.QueueDrops)
			}
			if got := opt.CoalesceFallbacks + opt.XDomainFallbacks; got != 5 {
				t.Errorf("%d domains, policy %d: %d capture fallbacks, want 5 (a bounded target never captures)", doms, pol, got)
			}
		}
	}
}

// fifoPipeline builds the two-domain topology of the FIFO ordering
// tests: head (domain 0) ~> tail (domain 1), and x ~> y both on domain 1,
// plus a plain event z on domain 1. Every handler appends its event's
// name to the returned log. With optimized set, both chains are
// installed, so tail is a cross-domain capture and y a same-domain one.
func fifoPipeline(t *testing.T, optimized bool) (s *System, head, x, z ID, log *[]string) {
	s = New(WithDomains(2))
	log = new([]string)
	head, tail := s.Define("head"), s.Define("tail")
	x = s.Define("x")
	y := s.Define("y")
	z = s.Define("z")
	for ev, dom := range map[ID]int{head: 0, tail: 1, x: 1, y: 1, z: 1} {
		if err := s.PinEvent(ev, dom); err != nil {
			t.Fatal(err)
		}
	}
	note := func(ctx *Ctx) { *log = append(*log, ctx.Name) }
	headFn := func(ctx *Ctx) { note(ctx); ctx.RaiseAsync(tail) }
	xFn := func(ctx *Ctx) { note(ctx); ctx.RaiseAsync(y) }
	s.Bind(head, "hh", headFn)
	s.Bind(tail, "ht", note)
	s.Bind(x, "hh", xFn)
	s.Bind(y, "ht", note)
	s.Bind(z, "hz", note)
	if optimized {
		installChain(t, s, head, tail, headFn, note)
		installChain(t, s, x, y, xFn, note)
	}
	return s, head, x, z, log
}

// checkFIFOOrder runs drive on the generic and the optimized pipeline and
// requires the same handler order, with both captures taken.
func checkFIFOOrder(t *testing.T, drive func(s *System, head, x, z ID)) {
	t.Helper()
	var logs [2][]string
	var opt StatsSnapshot
	for i, optimized := range []bool{false, true} {
		s, head, x, z, log := fifoPipeline(t, optimized)
		drive(s, head, x, z)
		s.Drain()
		logs[i] = *log
		opt = s.StatsAggregate()
	}
	if len(logs[0]) != 5 || len(logs[1]) != len(logs[0]) {
		t.Fatalf("generic ran %v, optimized ran %v", logs[0], logs[1])
	}
	for i := range logs[0] {
		if logs[0][i] != logs[1][i] {
			t.Fatalf("optimized order %v, generic order %v", logs[1], logs[0])
		}
	}
	if opt.Coalesced != 1 || opt.XDomainHandoffs != 1 || opt.CoalesceFallbacks != 0 || opt.XDomainFallbacks != 0 {
		t.Fatalf("want one same-domain and one cross-domain capture, got %+v", opt)
	}
}

// TestFIFOSameDomainCaptureBehindPendingHandoff: a same-domain capture
// made while a cross-domain capture is pending on the same domain joins
// the FIFO behind it, and a later enqueue lands behind both.
func TestFIFOSameDomainCaptureBehindPendingHandoff(t *testing.T) {
	checkFIFOOrder(t, func(s *System, head, x, z ID) {
		if err := s.Raise(head); err != nil { // tail captured into domain 1's FIFO
			t.Fatal(err)
		}
		if err := s.Raise(x); err != nil { // y captured behind it
			t.Fatal(err)
		}
		s.RaiseAsync(z)
	})
}

// TestFIFOCrossDomainCaptureIntoNonEmptyFIFO: a cross-domain capture
// into a domain whose FIFO already holds a same-domain continuation
// joins the FIFO behind it.
func TestFIFOCrossDomainCaptureIntoNonEmptyFIFO(t *testing.T) {
	checkFIFOOrder(t, func(s *System, head, x, z ID) {
		if err := s.Raise(x); err != nil { // y captured into domain 1's FIFO
			t.Fatal(err)
		}
		if err := s.Raise(head); err != nil { // tail captured behind it
			t.Fatal(err)
		}
		s.RaiseAsync(z)
	})
}
