package event

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Domain is one scheduling shard of a System. Each domain owns a run
// queue, a timer heap, a handler atomicity lock and a fault supervisor,
// so activations of events that live in different domains proceed
// concurrently: the only state they share is the lock-free registry,
// the (atomic) counters and the shared supervision configuration.
//
// Within a domain the historical execution model is unchanged — one
// activation at a time, handlers atomic with respect to each other.
// Across domains there is no ordering or atomicity guarantee; a
// synchronous raise of an event pinned to another domain executes
// inline in the caller's domain (affinity governs top-level and
// asynchronous routing, not nested synchronous calls, which would
// otherwise deadlock).
type Domain struct {
	sys *System
	idx int

	runMu   sync.Mutex // handler atomicity lock, held across a top-level activation
	stateMu sync.Mutex // per-handler state-maintenance lock (cost model)

	qmu      sync.Mutex // guards q, timers, cont and the queue bound
	q        actRing    // run queue: pooled activation records in a ring
	timers   timerHeap
	tseq     uint64
	canceled int            // canceled timers still in the heap
	qcap     int            // run-queue capacity (0 = unbounded)
	qpolicy  OverflowPolicy // applied when the bounded queue is full
	wake     chan struct{}  // nudges run loops when work arrives; never nil

	// cont is the domain's continuation FIFO (coalesce.go): asynchronous
	// raises captured by merged chains — running on this domain or on
	// another one — instead of enqueued. Appended under qmu only while
	// the queue is empty, so cont ++ queue is always the generic queue;
	// popped before the queue. contHead indexes the next pending entry;
	// the slice is reset when it empties.
	cont     []*activation
	contHead int

	// batchK is the drain batch size for run/DrainBatched (<=1:
	// unbatched). Atomic so the adaptive controller can retune it while
	// the run loop executes (TuneBatchDrain); the loop re-reads it once
	// per pump. batchPin marks an explicit WithBatchDrain value the
	// controller must leave alone.
	batchK   atomic.Int32
	batchPin bool
	batchBuf []*activation // reusable batch scratch of the owning drain loop

	// batchRem counts batch-popped activations not yet executed by the
	// drain loop. They are no longer in the queue but are logically ahead
	// of any new raise, so the capture guard treats batchRem > 0 exactly
	// like a non-empty queue. Written by the owning drain loop (under qmu
	// at pop time); read atomically by the guard.
	batchRem atomic.Int32

	slots []*dispatchSlot // depth-indexed dispatch scratch, guarded by runMu

	stats Counters    // this domain's share of the runtime counters
	fault domainFault // per-domain quarantine + activation bookkeeping (fault.go)

	// Telemetry bookkeeping of the current top-level activation, guarded
	// by runMu: the retry attempt it replays with (for its flight record)
	// and a flight-dump reason a fault requested mid-activation, performed
	// once the activation's own record has been appended.
	telAttempt    int
	telDumpReason string

	// Span bookkeeping (span.go), all guarded by runMu. curTrace/curSpan
	// are the innermost open span of the activation in flight (zero when
	// it is unsampled); raises from handlers read them to stamp causality
	// onto child activations. pend* carry the context of a popped
	// activation record into the next top-level dispatch. spanTier and
	// spanFlags are the attribution scratch of the innermost open span.
	// lastSpanTrace/lastSpanID survive past the dispatch so the retry
	// machinery (which runs after runMu is released) can parent a replay
	// on the attempt that faulted.
	curTrace, curSpan         uint64
	pendTrace, pendSpan       uint64
	pendKind                  uint8
	spanTier, spanFlags       uint8
	lastSpanTrace, lastSpanID uint64

	tfree []*timerEntry // released timer entries kept for reuse, guarded by qmu
}

// dispatchSlot is the dispatch scratch of one synchronous nesting depth
// on one domain: a reusable handler context (with its inline argument
// record) and a reusable super-handler execution state. Handler
// execution in a domain is serialized by runMu and at most one
// activation is live per depth, so steady-state dispatch — generic or
// optimized — allocates nothing.
//
// The slots of different domains are written by different cores, so a
// slot is padded to a whole number of cache lines (TestHotRecordLayout
// checks it on 64-bit targets): its size class then keeps it
// line-aligned, and two domains' slots never share a line.
type dispatchSlot struct {
	ctx Ctx
	ce  chainExec
	_   [56]byte
}

// slot returns the scratch of nesting depth, growing the stack on first
// use (amortized; deep recursions reuse their slots thereafter). Caller
// holds runMu.
func (d *Domain) slot(depth int) *dispatchSlot {
	for depth >= len(d.slots) {
		d.slots = append(d.slots, new(dispatchSlot))
	}
	return d.slots[depth]
}

func newDomain(s *System, idx int) *Domain {
	return &Domain{sys: s, idx: idx, wake: make(chan struct{}, 1)}
}

// Index reports the domain's position in the system's shard set.
func (d *Domain) Index() int { return d.idx }

// NumDomains reports how many event domains the system was created with.
func (s *System) NumDomains() int { return len(s.domains) }

// domainOf returns the domain owning ev. Unknown events route to domain
// 0, whose dispatch reports the error.
func (s *System) domainOf(ev ID) *Domain {
	if len(s.domains) == 1 {
		return s.domains[0]
	}
	if r := s.recLF(ev); r != nil {
		return s.domains[r.dom.Load()]
	}
	return s.domains[0]
}

// EventDomain reports the domain index ev is assigned to (-1 for an
// unknown event).
func (s *System) EventDomain(ev ID) int {
	if r := s.recLF(ev); r != nil {
		return int(r.dom.Load())
	}
	return -1
}

// PinEvent overrides the hash affinity of ev, assigning it to domain
// dom. Pin events before raising them: an activation already queued or
// running stays in the domain that admitted it. PinEvent returns
// ErrUnknownEvent for an undefined event and an error for an
// out-of-range domain.
func (s *System) PinEvent(ev ID, dom int) error {
	if dom < 0 || dom >= len(s.domains) {
		return fmt.Errorf("event: PinEvent: domain %d out of range [0,%d)", dom, len(s.domains))
	}
	r := s.recLF(ev)
	if r == nil {
		return ErrUnknownEvent
	}
	r.dom.Store(int32(dom))
	return nil
}

// Step runs at most one queued or due activation (or internal timer
// callback, such as a quarantine re-admission) across all domains, in
// domain order; it reports whether one ran.
func (s *System) Step() bool { return s.sweep(1) > 0 }

// sweep pumps the first domain, in domain order, that has runnable work
// — up to k activations — and returns how many ran.
func (s *System) sweep(k int) int {
	for _, d := range s.domains {
		if n := d.pump(k); n > 0 {
			return n
		}
	}
	return 0
}

// pump is the scheduler's one drain step: it pops up to k runnable
// activations of this domain (k <= 1: one) under a single queue-lock
// hold and runs them in order, returning how many ran. A k > 1 pump uses
// the domain's batch scratch, so only the single drain loop that owns
// the domain (run, or a DrainBatched caller) may ask for one.
func (d *Domain) pump(k int) int {
	var one [1]*activation
	batch := one[:]
	if k > 1 {
		if cap(d.batchBuf) < k {
			d.batchBuf = make([]*activation, k)
		}
		batch = d.batchBuf[:k]
	}
	n := d.popRunnableBatch(batch)
	for i, a := range batch[:n] {
		batch[i] = nil
		if i > 0 {
			// Items after this one are still ahead in program order; the
			// capture guard must not let a continuation overtake them.
			d.batchRem.Store(int32(n - i - 1))
		}
		d.runTop(a)
	}
	return n
}

// earliestDeadline returns the earliest live timer deadline across all
// domains, or false when no timers are pending.
func (s *System) earliestDeadline() (Duration, bool) {
	var best Duration
	any := false
	for _, d := range s.domains {
		if at, ok := d.nextDeadline(); ok && (!any || at < best) {
			best, any = at, true
		}
	}
	return best, any
}

// Drain runs queued asynchronous activations until none remain in any
// domain. With a virtual clock it then advances time to the next pending
// timer and keeps going until no queued work and no timers remain. It
// returns the number of activations executed. Drain pumps all domains
// from the calling goroutine in domain order, so it is deterministic;
// use Run for parallel multi-domain execution under a real clock.
func (s *System) Drain() int { return s.drain(math.MaxInt64, 1) }

// DrainFor behaves like Drain but, under a virtual clock, never advances
// time beyond limit; it is used to simulate a bounded run (for example, N
// seconds of a frame-paced workload). It returns the number of
// activations executed.
func (s *System) DrainFor(limit Duration) int { return s.drain(limit, 1) }

// DrainBatched behaves like Drain but pumps each domain in batches of up
// to k activations per queue-lock acquisition (k <= 1 degenerates to
// Drain). Like Drain it runs everything from the calling goroutine in
// domain order, so it must not race a concurrent Run loop.
func (s *System) DrainBatched(k int) int { return s.drain(math.MaxInt64, k) }

// drain is the one virtual-clock sweep behind Drain, DrainFor and
// DrainBatched: it pumps up to k activations at a time, restarting from
// domain 0 after every pump (so k = 1 is a sequence of Steps), and when
// nothing is runnable advances a virtual clock to the next deadline not
// beyond limit.
func (s *System) drain(limit Duration, k int) int {
	n := 0
	for {
		if m := s.sweep(k); m > 0 {
			n += m
			continue
		}
		vc, ok := s.clock.(*VirtualClock)
		if !ok {
			return n
		}
		at, any := s.earliestDeadline()
		if !any || at > limit {
			return n
		}
		vc.advanceTo(at)
	}
}

// Run is the blocking event loop for real-clock systems: it executes
// queued asynchronous activations as they arrive and timed activations
// as they fall due, sleeping in between, until stop is closed. It
// returns the number of activations executed. With one domain the loop
// runs on the calling goroutine as before; with N domains, one loop per
// domain runs in parallel and Run returns the total once all stop.
// Synchronous raises from other goroutines remain safe concurrently
// (handler execution is serialized per domain by its atomicity lock);
// use Drain instead under a virtual clock.
func (s *System) Run(stop <-chan struct{}) int {
	if len(s.domains) == 1 {
		return s.domains[0].run(stop)
	}
	var wg sync.WaitGroup
	counts := make([]int, len(s.domains))
	for i, d := range s.domains {
		wg.Add(1)
		go func(i int, d *Domain) {
			defer wg.Done()
			counts[i] = d.run(stop)
		}(i, d)
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// run is one domain's blocking event loop. With a batch size configured
// (WithBatchDrain, or the adaptive controller's TuneBatchDrain) it
// pulls up to K activations per queue-lock acquisition instead of one.
// The batch size is re-read every pump so a retune takes effect without
// restarting the loop.
func (d *Domain) run(stop <-chan struct{}) int {
	n := 0
	for {
		for {
			m := d.pump(int(d.batchK.Load()))
			if m == 0 {
				break
			}
			n += m
		}
		select {
		case <-stop:
			return n
		default:
		}
		var timerC <-chan time.Time
		if at, ok := d.nextDeadline(); ok {
			wait := at - d.sys.clock.Now()
			if wait <= 0 {
				continue
			}
			t := time.NewTimer(wait)
			timerC = t.C
			select {
			case <-stop:
				t.Stop()
				return n
			case <-d.wake:
				t.Stop()
			case <-timerC:
			}
			continue
		}
		select {
		case <-stop:
			return n
		case <-d.wake:
		}
	}
}

// TuneBatchDrain sets the drain batch size of domain dom at run time;
// the domain's Run loop picks the new size up at its next pump. It is
// the adaptive controller's K-tuning seam. k <= 1 restores the
// unbatched loop; a domain pinned by an explicit WithBatchDrain refuses
// retuning. It reports whether the size was applied.
func (s *System) TuneBatchDrain(dom, k int) bool {
	if dom < 0 || dom >= len(s.domains) {
		return false
	}
	d := s.domains[dom]
	if d.batchPin {
		return false
	}
	if k < 0 {
		k = 0
	}
	d.batchK.Store(int32(k))
	d.nudge()
	return true
}

// BatchK reports the current drain batch size of domain dom (<=1 means
// unbatched; 0 for an out-of-range index).
func (s *System) BatchK(dom int) int {
	if dom < 0 || dom >= len(s.domains) {
		return 0
	}
	return int(s.domains[dom].batchK.Load())
}

// BatchPinned reports whether domain dom's batch size was pinned by an
// explicit WithBatchDrain and is therefore exempt from adaptive tuning.
func (s *System) BatchPinned(dom int) bool {
	if dom < 0 || dom >= len(s.domains) {
		return false
	}
	return s.domains[dom].batchPin
}

// QueueLen reports the number of queued (not yet run) asynchronous
// activations across all domains, excluding timers.
func (s *System) QueueLen() int {
	n := 0
	for _, d := range s.domains {
		d.qmu.Lock()
		n += d.q.len()
		d.qmu.Unlock()
	}
	return n
}

// TimerCount reports the number of scheduled (uncanceled, unfired)
// timers across all domains.
func (s *System) TimerCount() int {
	n := 0
	for _, d := range s.domains {
		d.qmu.Lock()
		n += len(d.timers) - d.canceled
		d.qmu.Unlock()
	}
	return n
}

// timerHeapLen reports the raw heap length across domains, including
// canceled entries not yet compacted (tests observe memory hygiene
// through it).
func (s *System) timerHeapLen() int {
	n := 0
	for _, d := range s.domains {
		d.qmu.Lock()
		n += len(d.timers)
		d.qmu.Unlock()
	}
	return n
}
