package event

import "eventopt/internal/span"

// Speculative capture of asynchronous chain raises (the paper's §5
// future work): when a merged handler asynchronously raises an event
// that is a covered async-entry segment of its own super-handler, and
// the domain that owns the event has nothing ahead of it in line, the
// raise is captured as a pending *continuation* in that domain's
// continuation FIFO instead of travelling the enqueue/wake/pop route.
// The continuation still runs as its own top-level activation, in the
// domain that owns the event — handler atomicity, domain affinity,
// tracing depth and the serialized-activation discipline are unchanged
// — but it executes directly through the merged segment, skipping the
// generic marshal/lookup/indirect-call sequence and the ring.
//
// There is one FIFO per domain and one guard, whichever domain raised
// the event. Under the target domain's queue lock the capture requires:
//
//   - the raised event has a covered, non-entry segment marked
//     AsyncEntry by the planner, whose guard (binding version) currently
//     matches;
//   - the target has no queue bound (a bounded queue prices admission,
//     and a capture would bypass its overflow policy);
//   - the target's run queue is empty, no batched-drain remainder is in
//     flight and no timer is due — otherwise the continuation would
//     overtake work that the generic schedule runs first.
//
// The FIFO is popped before the queue and only appended to while the
// queue is empty, so FIFO ++ queue always equals the generic queue: a
// captured continuation is exactly what the generic queue would have
// held at that position, and later enqueues land behind it on both
// routes. Any guard failure falls back to a real enqueue on the target.
// The segment guard is re-checked when the continuation runs; a rebind
// that raced the pending continuation drops it into the original
// unoptimized code for just that event (the same per-segment fallback
// as Fig. 14).
//
// A capture into the raising domain counts as Coalesced (SchedCoalesce,
// span.KindCoalesced); one into another domain counts as XDomainHandoffs
// (SchedHandoff, span.KindHandoff). The fallbacks are counted the same
// way, all credited to the raising domain.

// dispatchNestedAsync attempts to capture an asynchronous raise of ev
// from inside a merged handler. It reports whether it consumed the
// raise (captured a continuation or fell back to enqueueing itself);
// false means the caller must take the normal enqueue path.
func (ce *chainExec) dispatchNestedAsync(c *Ctx, ev ID, args []Arg) bool {
	sh := ce.sh
	idx, ok := sh.segOf[ev]
	if !ok || idx == 0 || !sh.Segments[idx].AsyncEntry {
		return false
	}
	d := ce.d
	s := d.sys
	if !sh.segMatches(idx) {
		// Already-stale segment guard: not worth capturing.
		d.stats.CoalesceFallbacks.Add(1)
		return false
	}
	t := s.domains[sh.recs[idx].dom.Load()]
	captured, fellBack := &d.stats.Coalesced, &d.stats.CoalesceFallbacks
	point, kind := SchedCoalesce, span.KindCoalesced
	if t != d {
		captured, fellBack = &d.stats.XDomainHandoffs, &d.stats.XDomainFallbacks
		point, kind = SchedHandoff, span.KindHandoff
	}
	a := s.getAct()
	a.ev, a.mode = ev, Async
	a.args.set(args)
	if s.spans != nil && d.curTrace != 0 {
		// Stamp the raising span's context: the continuation (or the
		// fallback enqueue) records a child span either way.
		a.trace, a.pspan, a.skind = d.curTrace, d.curSpan, uint8(kind)
	}
	t.qmu.Lock()
	if t.qcap > 0 || t.q.len() > 0 || t.batchRem.Load() > 0 || t.dueTimerLocked() {
		// Pending work would be overtaken, or the queue is bounded: land
		// behind it in the target's queue, like any producer.
		t.qmu.Unlock()
		fellBack.Add(1)
		a.skind = uint8(span.KindAsync) // it travels the queue after all
		if s.tel != nil {
			a.enqAt, a.enqSet = s.clock.Now(), true
		}
		t.enqueueAct(a)
		return true
	}
	a.csh, a.cidx = sh, int32(idx)
	t.cont = append(t.cont, a)
	if h := s.sched; h != nil {
		h.Sched(point, t.idx, ev, sh.Segments[idx].Version)
	}
	t.qmu.Unlock()
	captured.Add(1)
	// A sync Raise from outside the run loop, or a chain on another
	// domain, can capture while the target's loop is parked; wake it like
	// an enqueue would.
	t.nudge()
	return true
}
