package event

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestWithBatchDrainClampsNonPositive: a non-positive batch size is a
// request for the unbatched drain, not an error or a degenerate loop.
func TestWithBatchDrainClampsNonPositive(t *testing.T) {
	for _, k := range []int{0, -1, -64} {
		s := New(WithBatchDrain(k))
		if got := s.BatchK(0); got != 0 {
			t.Fatalf("WithBatchDrain(%d): BatchK = %d, want 0", k, got)
		}
		ev := s.Define("hot")
		ran := 0
		s.Bind(ev, "h", func(*Ctx) { ran++ })
		for i := 0; i < 5; i++ {
			s.RaiseAsync(ev)
		}
		if n := s.Drain(); n != 5 || ran != 5 {
			t.Fatalf("WithBatchDrain(%d): Drain ran %d (handler %d), want 5", k, n, ran)
		}
	}
}

// schedPointCounter counts scheduler hook firings per point.
type schedPointCounter struct {
	mu     sync.Mutex
	counts map[SchedPoint]int
}

func (c *schedPointCounter) Sched(p SchedPoint, dom int, ev ID, ver uint64) {
	c.mu.Lock()
	if c.counts == nil {
		c.counts = make(map[SchedPoint]int)
	}
	c.counts[p]++
	c.mu.Unlock()
}

func (c *schedPointCounter) count(p SchedPoint) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[p]
}

// TestDrainBatchedClampsNonPositive: DrainBatched with k <= 1 is the
// plain drain — same completion count, no batch machinery.
func TestDrainBatchedClampsNonPositive(t *testing.T) {
	for _, k := range []int{1, 0, -3} {
		hook := &schedPointCounter{}
		s := New(WithSchedHook(hook))
		ev := s.Define("hot")
		ran := 0
		s.Bind(ev, "h", func(*Ctx) { ran++ })
		for i := 0; i < 4; i++ {
			s.RaiseAsync(ev)
		}
		if n := s.DrainBatched(k); n != 4 || ran != 4 {
			t.Fatalf("DrainBatched(%d) ran %d (handler %d), want 4", k, n, ran)
		}
		if got := hook.count(SchedBatchPop); got != 0 {
			t.Fatalf("DrainBatched(%d) took %d batch pops; must use the unbatched route", k, got)
		}
	}
}

// TestDrainBatchedRacingProducers: partial batches race new raises —
// producers keep pushing while the consumer drains in batches, so popN
// repeatedly moves fewer activations than the batch size and the ring
// grows and wraps concurrently. Every raise must run exactly once.
// Run under -race in CI.
func TestDrainBatchedRacingProducers(t *testing.T) {
	const (
		producers = 4
		perProd   = 500
	)
	s := New()
	ev := s.Define("hot")
	ran := 0
	s.Bind(ev, "h", func(*Ctx) { ran++ })

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				s.RaiseAsync(ev)
			}
		}()
	}
	total := 0
	for total < producers*perProd {
		total += s.DrainBatched(4)
	}
	wg.Wait()
	total += s.DrainBatched(4) // anything the last check missed
	if total != producers*perProd || ran != total {
		t.Fatalf("drained %d activations (handler %d), want %d", total, ran, producers*perProd)
	}
}

// TestBatchPopCoalesceGuardRace: the coalesce capture guard must treat
// activations already popped into a batch (batchRem) as pending work.
// Async head raises from rival goroutines race sync raises through the
// merged pipeline while the consumer drains in batches; whatever the
// interleaving, every head activation either coalesces its interior
// raise or demotes it to a real enqueue — never drops or doubles it.
// Run under -race in CI.
func TestBatchPopCoalesceGuardRace(t *testing.T) {
	const (
		syncRaises = 300
		producers  = 2
		perProd    = 300
	)
	s := New()
	head, _, tailRuns := pipelineSH(t, s)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				s.RaiseAsync(head, A("n", 1))
			}
		}()
	}
	for i := 0; i < syncRaises; i++ {
		if err := s.Raise(head, A("n", 1)); err != nil {
			t.Fatal(err)
		}
		s.DrainBatched(3)
	}
	wg.Wait()
	s.DrainBatched(3)

	heads := int64(syncRaises + producers*perProd)
	if *tailRuns != int(heads) {
		t.Fatalf("tail ran %d times, want %d", *tailRuns, heads)
	}
	st := s.StatsAggregate()
	if got := st.Coalesced + st.CoalesceFallbacks + st.SegFallbacks; got != heads {
		t.Fatalf("capture attempts %d (%d coalesced + %d fallbacks + %d stale), want %d",
			got, st.Coalesced, st.CoalesceFallbacks, st.SegFallbacks, heads)
	}
	if st.Coalesced == 0 {
		t.Error("no interior raise was ever captured")
	}
	if st.CoalesceFallbacks == 0 {
		t.Error("no interior raise was ever demoted by the guard")
	}
}

// countingClock is a fixed clock that counts its reads.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) Now() Duration { c.reads.Add(1); return 0 }

// TestRunPopNarrowsWithoutBacklog: under the default cap, a Run-loop pop
// that finds at most one pending item is exactly the unbatched pop — a
// lone continuation is taken without reading the clock, a lone queued
// activation reports SchedPop with no batch remainder — while a backlog
// of two still pops as one batch.
func TestRunPopNarrowsWithoutBacklog(t *testing.T) {
	clk := &countingClock{}
	hook := &schedPointCounter{}
	s := New(WithClock(clk), WithSchedHook(hook))
	if got := s.BatchK(0); got != defaultBatchK {
		t.Fatalf("default BatchK = %d, want %d", got, defaultBatchK)
	}
	d := s.domains[0]
	buf := make([]*activation, s.BatchK(0))
	head, _, tailRuns := pipelineSH(t, s)
	if err := s.Raise(head, A("n", 1)); err != nil {
		t.Fatal(err)
	}
	if st := s.StatsAggregate(); st.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1 pending continuation", st.Coalesced)
	}

	clk.reads.Store(0)
	if n := d.popRunnableBatch(buf); n != 1 {
		t.Fatalf("continuation pop moved %d, want 1", n)
	}
	if r := clk.reads.Load(); r != 0 {
		t.Fatalf("lone continuation pop read the clock %d times, want 0", r)
	}
	d.runTop(buf[0])
	if *tailRuns != 1 {
		t.Fatalf("tail ran %d times, want 1", *tailRuns)
	}

	ev := s.Define("one")
	ran := 0
	s.Bind(ev, "h", func(*Ctx) { ran++ })
	s.RaiseAsync(ev)
	if n := d.popRunnableBatch(buf); n != 1 {
		t.Fatalf("single-item pop moved %d, want 1", n)
	}
	if p, bp := hook.count(SchedPop), hook.count(SchedBatchPop); p != 1 || bp != 0 {
		t.Fatalf("single-item pop reported %d SchedPop and %d SchedBatchPop, want 1 and 0", p, bp)
	}
	if r := d.batchRem.Load(); r != 0 {
		t.Fatalf("single-item pop left batchRem = %d", r)
	}
	d.runTop(buf[0])

	s.RaiseAsync(ev)
	s.RaiseAsync(ev)
	if n := d.pump(s.BatchK(0)); n != 2 || ran != 3 {
		t.Fatalf("backlog pump ran %d (handler total %d), want 2 (3)", n, ran)
	}
	if got := hook.count(SchedBatchPop); got != 1 {
		t.Fatalf("backlog of two took %d batch pops, want 1", got)
	}
}
