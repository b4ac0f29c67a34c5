package event_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"eventopt/internal/event"
	"eventopt/internal/trace"
)

// runDrainScenario runs one single-domain scenario through Run with the
// given options and returns the executed handler sequence and the sched
// ledger. The scenario is fixed before Run starts: a continuation
// captured by a same-domain merged chain, five timers already due, and
// a backlog of queued activations in which every third one is an async
// raise of the chain head (whose interior raise is captured when the
// queue is empty and falls back to an enqueue otherwise).
func runDrainScenario(t *testing.T, backlog int, opts ...event.Option) ([]string, []trace.SchedEvent) {
	t.Helper()
	clk := event.NewVirtualClock()
	rec := trace.NewSchedRecorder()
	s := event.New(append([]event.Option{event.WithClock(clk), event.WithSchedHook(rec)}, opts...)...)
	var seq []string
	var ran atomic.Int64
	record := func(name string) event.HandlerFunc {
		return func(ctx *event.Ctx) {
			seq = append(seq, fmt.Sprintf("%s%d", name, ctx.Args.Int("n")))
			ran.Add(1)
		}
	}
	head, tail := s.Define("head"), s.Define("tail")
	work, tick := s.Define("work"), s.Define("tick")
	headFn := func(ctx *event.Ctx) {
		record("head")(ctx)
		ctx.RaiseAsync(tail, event.A("n", ctx.Args.Int("n")))
	}
	tailFn := record("tail")
	s.Bind(head, "hh", headFn)
	s.Bind(tail, "ht", tailFn)
	s.Bind(work, "w", record("work"))
	s.Bind(tick, "t", record("tick"))
	if err := s.InstallFastPath(&event.SuperHandler{
		Entry: head,
		Segments: []event.Segment{
			{Event: head, EventName: "head", Version: s.Version(head),
				Steps: []event.Step{{Event: head, EventName: "head", Handler: "hh", Fn: headFn}}},
			{Event: tail, EventName: "tail", Version: s.Version(tail), AsyncEntry: true,
				Steps: []event.Step{{Event: tail, EventName: "tail", Handler: "ht", Fn: tailFn}}},
		},
	}); err != nil {
		t.Fatal(err)
	}

	if err := s.Raise(head, event.A("n", -1)); err != nil { // captures a continuation
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.RaiseAfter(time.Duration(5-i)*time.Millisecond, tick, event.A("n", i))
	}
	clk.Advance(10 * time.Millisecond)
	want := int64(2 + 5) // the captured head's head+tail, the ticks
	for i := 0; i < backlog; i++ {
		if i%3 == 2 {
			s.RaiseAsync(head, event.A("n", i))
			want += 2
		} else {
			s.RaiseAsync(work, event.A("n", i))
			want++
		}
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() { s.Run(stop); close(done) }()
	deadline := time.Now().Add(10 * time.Second)
	for ran.Load() < want && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	<-done
	if int64(len(seq)) != want {
		t.Fatalf("backlog %d: ran %d handlers, want %d", backlog, len(seq), want)
	}
	return seq, rec.Events()
}

// TestRunDrainRuleOrderEquivalent: a single-domain Run under the default
// batch cap executes exactly the handler sequence of the unbatched loop
// (WithBatchDrain(1)) — with captures, due timers and backlogs on either
// side of the narrowing threshold — and both sched ledgers are
// consistent.
func TestRunDrainRuleOrderEquivalent(t *testing.T) {
	for _, backlog := range []int{1, 2, 200} {
		got, glog := runDrainScenario(t, backlog)
		want, wlog := runDrainScenario(t, backlog, event.WithBatchDrain(1))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("backlog %d: default-cap Run order differs from unbatched\n got %v\nwant %v", backlog, got, want)
		}
		for name, log := range map[string][]trace.SchedEvent{"default": glog, "unbatched": wlog} {
			if vs := trace.CheckSched(log); len(vs) != 0 {
				t.Fatalf("backlog %d: %s sched ledger flagged: %v", backlog, name, vs)
			}
		}
		batched := false
		for _, e := range glog {
			batched = batched || e.Point == event.SchedBatchPop
		}
		if !batched {
			t.Errorf("backlog %d: the default cap never took a batch pop", backlog)
		}
	}
}
