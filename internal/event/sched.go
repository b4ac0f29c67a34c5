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

// Timer is the cancellation token of a delayed activation.
type Timer struct{ e *timerEntry }

// Cancel revokes the delayed activation if it has not fired yet; it
// reports whether the cancellation took effect. Canceled entries are
// compacted out of the owning domain's timer heap eagerly once enough
// accumulate, so mass cancellation does not pin memory until the
// deadlines pass.
func (t Timer) Cancel() bool {
	if t.e == nil {
		return false
	}
	t.e.mu.Lock()
	if t.e.done {
		t.e.mu.Unlock()
		return false
	}
	t.e.done = true
	owner := t.e.owner
	t.e.mu.Unlock()
	if owner != nil {
		owner.noteTimerCanceled()
	}
	return true
}

// Pending reports whether the timer is still scheduled.
func (t Timer) Pending() bool {
	if t.e == nil {
		return false
	}
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	return !t.e.done
}

type timerEntry struct {
	mu      sync.Mutex
	at      Duration
	seq     uint64
	ev      ID
	mode    Mode // mode the activation replays with (Delayed for RaiseAfter)
	args    []Arg
	attempt int     // retry attempts already made (supervision layer)
	fire    func()  // internal callback timer (quarantine re-admission)
	owner   *Domain // for cancellation accounting; nil on internal timers
	done    bool

	// Span context carried across the timer deferral (span.go): zero
	// trace means the deferred activation is not part of a sampled trace.
	trace uint64
	pspan uint64
	skind uint8
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
	dom := s.domainOf(ev)
	e := &timerEntry{ev: ev, mode: Delayed, args: cloneArgs(args), owner: dom, trace: trace, pspan: pspan, skind: skind}
	dom.armTimer(d, e)
	return Timer{e: e}
}

// scheduleRetry re-arms a faulted activation after its backoff delay on
// this domain, carrying the attempt count and the original mode forward,
// so a retried RaiseAsync activation replays with ctx.Mode == Async. No
// cancellation token escapes, so owner stays nil. trace/pspan parent the
// replay's span on the attempt that faulted (zero when untraced).
func (d *Domain) scheduleRetry(delay Duration, ev ID, mode Mode, args []Arg, attempt int, trace, pspan uint64, skind uint8) {
	d.armTimer(delay, &timerEntry{ev: ev, mode: mode, args: cloneArgs(args), attempt: attempt, trace: trace, pspan: pspan, skind: skind})
}

// scheduleInternal arms an internal callback timer (quarantine
// re-admission) on this domain. It rides the same heap as timed
// activations, so it is deterministic under VirtualClock and fires from
// Step/Drain/Run.
func (d *Domain) scheduleInternal(delay Duration, fire func()) {
	d.armTimer(delay, &timerEntry{fire: fire})
}

// armTimer pushes e onto this domain's timer heap with its deadline delay
// from now (negative delays fire immediately) and the next sequence
// number, then wakes the domain's run loop.
func (d *Domain) armTimer(delay Duration, e *timerEntry) {
	if delay < 0 {
		delay = 0
	}
	d.qmu.Lock()
	d.tseq++
	e.at, e.seq = d.sys.clock.Now()+delay, d.tseq
	heap.Push(&d.timers, e)
	d.qmu.Unlock()
	d.nudge()
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
	a.setArgs(args)
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

// noteTimerCanceled counts a cancellation and compacts the heap once
// canceled entries outnumber live ones (and are worth the rebuild).
func (d *Domain) noteTimerCanceled() {
	d.qmu.Lock()
	d.canceled++
	if d.canceled >= 64 && d.canceled*2 >= len(d.timers) {
		d.compactTimersLocked()
	}
	d.qmu.Unlock()
}

// compactTimersLocked rebuilds the heap without done entries. Caller
// holds qmu.
func (d *Domain) compactTimersLocked() {
	kept := make(timerHeap, 0, len(d.timers)-d.canceled)
	for _, e := range d.timers {
		e.mu.Lock()
		done := e.done
		e.mu.Unlock()
		if !done {
			kept = append(kept, e)
		}
	}
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
		e := d.timers.peek()
		e.mu.Lock()
		done := e.done
		e.mu.Unlock()
		if !done {
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
	// `at` is written once at arming (under qmu) and never again, so the
	// heap top's deadline lower-bounds every live deadline — even a
	// canceled top's stale one — and one read without the entry mutex
	// answers the common "nothing due" case.
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
// activations FIFO — and reports how many it moved. The queued portion
// reports one SchedPop for a one-item pop and one SchedBatchPop carrying
// the popped count otherwise.
func (d *Domain) popRunnableBatch(dst []*activation) int {
	d.qmu.Lock()
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
			e := d.timers.peek()
			e.mu.Lock()
			canceled := e.done
			e.done = true
			e.mu.Unlock()
			if canceled {
				d.dropDoneTimerLocked()
				continue
			}
			heap.Pop(&d.timers)
			a := d.sys.getAct()
			a.ev, a.mode, a.attempt, a.fire = e.ev, e.mode, e.attempt, e.fire
			a.trace, a.pspan, a.skind = e.trace, e.pspan, e.skind
			a.adoptArgs(e.args) // the entry's clone transfers ownership
			e.args = nil
			if tel := d.sys.tel; tel != nil && a.fire == nil {
				// A timer's queue delay is the time past its deadline.
				tel.RecordQueueDelay(d.idx, int32(a.ev), int64(now-e.at))
			}
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

// dropDoneTimerLocked pops the (done) heap top and credits the
// compaction counter. Caller holds qmu.
func (d *Domain) dropDoneTimerLocked() {
	heap.Pop(&d.timers)
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
