package event

import (
	"container/heap"
	"sync"
	"time"
)

// Duration is the unit of the system clock (an alias of time.Duration).
type Duration = time.Duration

// Clock supplies monotonic time to the scheduler.
type Clock interface {
	Now() Duration
}

// realClock reports monotonic time elapsed since its creation.
type realClock struct{ start time.Time }

// NewRealClock returns a Clock backed by the process monotonic clock.
func NewRealClock() Clock { return realClock{start: time.Now()} }

func (c realClock) Now() Duration { return time.Since(c.start) }

// VirtualClock is a deterministic, manually advanced clock. With a
// VirtualClock installed, Drain advances time to the next pending timer
// when the run queue empties, so timed events fire reproducibly without
// real sleeping.
type VirtualClock struct {
	mu  sync.Mutex
	now Duration
}

// NewVirtualClock returns a virtual clock starting at zero.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now returns the current virtual time.
func (c *VirtualClock) Now() Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves virtual time forward by d (negative d is ignored).
func (c *VirtualClock) Advance(d Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// advanceTo moves virtual time forward to t if t is in the future.
func (c *VirtualClock) advanceTo(t Duration) {
	c.mu.Lock()
	if t > c.now {
		c.now = t
	}
	c.mu.Unlock()
}

// Timer is the cancellation token of a delayed activation: a handle on a
// recycled timer entry plus the generation the entry had when it was
// armed. Every release of an entry (fired, or dropped after a cancel)
// bumps its generation under the owning domain's qmu, so a handle that
// outlives its activation — even one whose entry now carries another
// timer — is a safe no-op.
type Timer struct {
	e   *timerEntry
	gen uint64
}

// Cancel revokes the delayed activation if it has not fired yet; it
// reports whether the cancellation took effect. Canceled entries are
// compacted out of the owning domain's timer heap eagerly once enough
// accumulate, so mass cancellation does not pin memory until the
// deadlines pass.
func (t Timer) Cancel() bool {
	if t.e == nil {
		return false
	}
	d := t.e.dom
	d.qmu.Lock()
	ok := t.e.gen == t.gen && !t.e.done
	if ok {
		t.e.done = true
		d.canceled++
		if d.canceled >= 64 && d.canceled*2 >= len(d.timers) {
			d.compactTimersLocked()
		}
	}
	d.qmu.Unlock()
	return ok
}

// Pending reports whether the timer is still scheduled.
func (t Timer) Pending() bool {
	if t.e == nil {
		return false
	}
	d := t.e.dom
	d.qmu.Lock()
	ok := t.e.gen == t.gen && !t.e.done
	d.qmu.Unlock()
	return ok
}

// maxFreeTimers bounds each domain's free list of timer entries: enough
// for the timers a protocol keeps in flight, small enough that a burst
// of arming does not pin its peak forever.
const maxFreeTimers = 256

// timerEntry is one armed timer. Entries belong to one domain for life:
// dom is written once, before any handle exists, and read without a
// lock; the timerState is guarded by that domain's qmu. The entry sits
// in the heap while armed and on the domain's free list (or nowhere)
// once released.
type timerEntry struct {
	dom *Domain
	timerState
}

// timerState is the qmu-guarded part of a timer entry.
type timerState struct {
	gen  uint64 // bumped at every release; Timer handles compare it
	at   Duration
	seq  uint64
	ev   ID
	mode Mode // mode the activation replays with (Delayed for RaiseAfter)
	done bool // canceled while still in the heap

	attempt int    // retry attempts already made (supervision layer)
	fire    func() // internal callback timer (quarantine re-admission)

	// Span context carried across the timer deferral (span.go): zero
	// trace means the deferred activation is not part of a sampled trace.
	trace uint64
	pspan uint64
	skind uint8

	args argBuf
}

type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)       { *h = append(*h, x.(*timerEntry)) }
func (h *timerHeap) Pop() any         { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h timerHeap) peek() *timerEntry { return h[0] }

// RaiseAfter schedules a timed activation of ev after delay d on the
// event's owning domain. Timed events behave like asynchronous
// activations that become eligible once the clock passes their deadline
// (paper section 2.2).
func (s *System) RaiseAfter(d Duration, ev ID, args ...Arg) Timer {
	return s.raiseAfterCtx(d, ev, args, 0, 0, 0)
}

// raiseAfterCtx is RaiseAfter carrying a span context onto the timer
// entry (zero trace for an untraced deferral).
func (s *System) raiseAfterCtx(d Duration, ev ID, args []Arg, trace, pspan uint64, skind uint8) Timer {
	return s.domainOf(ev).armTimer(d, ev, Delayed, args, 0, nil, trace, pspan, skind)
}

// scheduleRetry re-arms a faulted activation after its backoff delay on
// this domain, carrying the attempt count and the original mode forward,
// so a retried RaiseAsync activation replays with ctx.Mode == Async. No
// cancellation token escapes. trace/pspan parent the replay's span on
// the attempt that faulted (zero when untraced).
func (d *Domain) scheduleRetry(delay Duration, ev ID, mode Mode, args []Arg, attempt int, trace, pspan uint64, skind uint8) {
	d.armTimer(delay, ev, mode, args, attempt, nil, trace, pspan, skind)
}

// scheduleInternal arms an internal callback timer (quarantine
// re-admission) on this domain. It rides the same heap as timed
// activations, so it is deterministic under VirtualClock and fires from
// Step/Drain/Run.
func (d *Domain) scheduleInternal(delay Duration, fire func()) {
	d.armTimer(delay, 0, 0, nil, 0, fire, 0, 0, 0)
}

// armTimer fills a recycled (or new) entry and pushes it onto this
// domain's timer heap with its deadline delay from now (negative delays
// fire immediately) and the next sequence number, all under one qmu
// hold, then wakes the domain's run loop. Arguments are copied into the
// entry; the caller's slice is never retained.
func (d *Domain) armTimer(delay Duration, ev ID, mode Mode, args []Arg, attempt int, fire func(), trace, pspan uint64, skind uint8) Timer {
	if delay < 0 {
		delay = 0
	}
	d.qmu.Lock()
	var e *timerEntry
	if n := len(d.tfree); n > 0 {
		e = d.tfree[n-1]
		d.tfree[n-1] = nil
		d.tfree = d.tfree[:n-1]
	} else {
		e = &timerEntry{dom: d}
	}
	d.tseq++
	e.at, e.seq = d.sys.clock.Now()+delay, d.tseq
	e.ev, e.mode, e.attempt, e.fire = ev, mode, attempt, fire
	e.trace, e.pspan, e.skind = trace, pspan, skind
	e.args.set(args)
	heap.Push(&d.timers, e)
	t := Timer{e: e, gen: e.gen}
	d.qmu.Unlock()
	d.nudge()
	return t
}

// releaseTimerLocked retires an entry that has left the heap: it bumps
// the generation (invalidating every outstanding handle), clears the
// entry so it pins no arguments, and keeps it for reuse while the free
// list has room. Caller holds qmu.
func (d *Domain) releaseTimerLocked(e *timerEntry) {
	e.timerState = timerState{gen: e.gen + 1}
	if !d.sys.noPool && len(d.tfree) < maxFreeTimers {
		d.tfree = append(d.tfree, e)
	}
}

// enqueue routes an asynchronous activation to the event's owning
// domain. The per-domain ring under its own lock is the MPSC handoff:
// any goroutine (or any other domain's handler) may produce, only the
// owning domain consumes.
func (s *System) enqueue(ev ID, mode Mode, args []Arg) {
	s.enqueueCtx(ev, mode, args, 0, 0, 0)
}

// enqueueCtx is enqueue carrying a span context onto the activation
// record (zero trace for an untraced raise).
func (s *System) enqueueCtx(ev ID, mode Mode, args []Arg, trace, pspan uint64, skind uint8) {
	d := s.domainOf(ev)
	a := s.getAct()
	a.ev, a.mode = ev, mode
	a.args.set(args)
	a.trace, a.pspan, a.skind = trace, pspan, skind
	if s.tel != nil {
		a.enqAt, a.enqSet = s.clock.Now(), true
	}
	d.enqueueAct(a)
}

// enqueueAct pushes a ready activation record onto the domain's run
// queue, applying the overflow policy when a queue bound is configured.
// The domain takes ownership of the record; records the policy drops are
// released back to the pool here.
func (d *Domain) enqueueAct(a *activation) {
	ev := a.ev // a belongs to the consumer once it is pushed
	var evicted *activation
	d.qmu.Lock()
	if d.qcap > 0 && d.q.len() >= d.qcap {
		d.stats.QueueDrops.Add(1)
		if pol := d.qpolicy; pol != DropOldest {
			d.qmu.Unlock()
			d.sys.putAct(a)
			if pol == RejectNew {
				d.sys.report(ErrQueueFull)
			}
			return
		}
		evicted = d.q.pop()
	}
	d.q.push(a)
	d.qmu.Unlock()
	if evicted != nil {
		d.sys.putAct(evicted)
	}
	if h := d.sys.sched; h != nil {
		h.Sched(SchedEnqueue, d.idx, ev, 0)
	}
	d.nudge()
}

// nudge wakes this domain's blocked run loop, if any. The wake channel
// is created unconditionally at construction, so no nil check is needed
// (or safe: a nil fast path would race with run observing the channel).
func (d *Domain) nudge() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// compactTimersLocked rebuilds the heap without canceled entries,
// releasing them. Caller holds qmu.
func (d *Domain) compactTimersLocked() {
	kept := d.timers[:0]
	for _, e := range d.timers {
		if e.done {
			d.releaseTimerLocked(e)
		} else {
			kept = append(kept, e)
		}
	}
	clear(d.timers[len(kept):])
	d.timers = kept
	heap.Init(&d.timers)
	d.canceled = 0
}

func cloneArgs(args []Arg) []Arg {
	if len(args) == 0 {
		return nil
	}
	out := make([]Arg, len(args))
	copy(out, args)
	return out
}

// popContLocked removes and returns the oldest pending continuation (nil
// when none), clearing the vacated slot. Caller holds qmu.
func (d *Domain) popContLocked() *activation {
	if d.contHead >= len(d.cont) {
		return nil
	}
	a := d.cont[d.contHead]
	d.cont[d.contHead] = nil
	d.contHead++
	if d.contHead == len(d.cont) {
		d.cont = d.cont[:0]
		d.contHead = 0
	}
	if h := d.sys.sched; h != nil {
		h.Sched(SchedContinue, d.idx, a.ev, 0)
	}
	return a
}

// liveTimerLocked drops canceled entries off the heap top and returns the
// earliest live timer (nil when none). Caller holds qmu.
func (d *Domain) liveTimerLocked() *timerEntry {
	for len(d.timers) > 0 {
		if e := d.timers.peek(); !e.done {
			return e
		}
		d.dropDoneTimerLocked()
	}
	return nil
}

// dueTimerLocked reports whether a live timer of this domain is at or
// past its deadline now; it reads the clock only when a timer is armed.
// Caller holds qmu.
func (d *Domain) dueTimerLocked() bool {
	if len(d.timers) == 0 {
		return false
	}
	// The heap top's deadline lower-bounds every live deadline — even a
	// canceled top's — so one compare answers the common "nothing due"
	// case.
	now := d.sys.clock.Now()
	if d.timers[0].at > now {
		return false
	}
	e := d.liveTimerLocked()
	return e != nil && e.at <= now
}

// popRunnableBatch is the scheduler's one pop: it fills dst with up to
// len(dst) runnable activations under a single qmu acquisition — pending
// continuations first, then due timers in deadline order, then queued
// activations FIFO — and reports how many it moved. When at most one
// continuation or queued activation is pending it narrows dst to one
// slot, so a pop without a backlog is exactly the unbatched pop: it
// reads no clock after taking a continuation and stores no batchRem.
// The queued portion reports one SchedPop for a one-item pop and one
// SchedBatchPop carrying the popped count otherwise.
func (d *Domain) popRunnableBatch(dst []*activation) int {
	d.qmu.Lock()
	if len(dst) > 1 && len(d.cont)-d.contHead+d.q.len() <= 1 {
		dst = dst[:1]
	}
	n := 0
	// Continuations stand for what would have been the queue head at
	// capture time (the capture guard required an empty queue), so
	// continuations-before-queue is the generic FIFO order.
	for n < len(dst) && d.contHead < len(d.cont) {
		dst[n] = d.popContLocked()
		n++
	}
	if n < len(dst) {
		now := d.sys.clock.Now()
		// Due timers fire before queued events to honor their deadlines.
		// (The same unlocked heap-top compare as dueTimerLocked.)
		for n < len(dst) && len(d.timers) > 0 && d.timers[0].at <= now {
			if d.timers.peek().done {
				d.dropDoneTimerLocked()
				continue
			}
			e := heap.Pop(&d.timers).(*timerEntry)
			a := d.sys.getAct()
			a.ev, a.mode, a.attempt, a.fire = e.ev, e.mode, int32(e.attempt), e.fire
			a.trace, a.pspan, a.skind = e.trace, e.pspan, e.skind
			a.args = e.args // moves the entry's spill, if any, with it
			if tel := d.sys.tel; tel != nil && a.fire == nil {
				// A timer's queue delay is the time past its deadline.
				tel.RecordQueueDelay(d.idx, int32(a.ev), int64(now-e.at))
			}
			d.releaseTimerLocked(e)
			if h := d.sys.sched; h != nil {
				h.Sched(SchedTimerFire, d.idx, a.ev, 0)
			}
			dst[n] = a
			n++
		}
		if k := d.q.popN(dst[n:], len(dst)-n); k > 0 {
			if tel := d.sys.tel; tel != nil {
				for _, a := range dst[n : n+k] {
					if a.enqSet {
						tel.RecordQueueDelay(d.idx, int32(a.ev), int64(now-a.enqAt))
					}
				}
			}
			if h := d.sys.sched; h != nil {
				if len(dst) == 1 {
					h.Sched(SchedPop, d.idx, dst[n].ev, 0)
				} else {
					h.Sched(SchedBatchPop, d.idx, dst[n].ev, uint64(k))
				}
			}
			n += k
		}
	}
	// Publish the batch remainder before releasing qmu: from this moment
	// the popped items are invisible to the queue but still ahead of any
	// new raise, and the capture guard reads batchRem to respect that.
	if len(dst) > 1 && n > 0 {
		d.batchRem.Store(int32(n - 1))
	}
	d.qmu.Unlock()
	return n
}

// dropDoneTimerLocked pops and releases the (canceled) heap top and
// credits the compaction counter. Caller holds qmu.
func (d *Domain) dropDoneTimerLocked() {
	d.releaseTimerLocked(heap.Pop(&d.timers).(*timerEntry))
	if d.canceled > 0 {
		d.canceled--
	}
}

// nextDeadline returns the deadline of the earliest live timer of this
// domain, or false.
func (d *Domain) nextDeadline() (Duration, bool) {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	if e := d.liveTimerLocked(); e != nil {
		return e.at, true
	}
	return 0, false
}
