package event

// SchedPoint identifies one kind of scheduling decision the runtime
// makes. The exploration harness (internal/explore) observes these
// points through a SchedHook to reconstruct the happens-before order of
// a run — which domain admitted, popped or fired what, and when the
// lock-free registry published a new snapshot — without perturbing the
// execution itself.
type SchedPoint uint8

const (
	// SchedEnqueue: an asynchronous activation was admitted to a
	// domain's run queue (after the overflow policy, so dropped
	// activations do not report).
	SchedEnqueue SchedPoint = iota
	// SchedPop: a queued activation was popped for execution.
	SchedPop
	// SchedTimerFire: a due timer was drained into an activation
	// (internal callback timers, e.g. quarantine re-admissions, report
	// with ev 0 — they carry no event).
	SchedTimerFire
	// SchedPublish: a registry mutation (Bind/Unbind/Delete) published a
	// new binding snapshot; ver is the new binding version.
	SchedPublish
	// SchedInstall: a super-handler was installed or replaced; ver is
	// its entry guard version.
	SchedInstall
	// SchedRemove: a super-handler was removed or auto-deoptimized.
	SchedRemove
	// SchedFastEntry: an activation entered an installed fast path (its
	// guards passed); ver is the entry guard version that matched.
	SchedFastEntry
	// SchedCoalesce: an asynchronous raise of a covered async-entry
	// segment owned by the raising domain was captured into that domain's
	// continuation FIFO instead of enqueued (coalesce.go); ver is the
	// segment guard version observed at capture.
	SchedCoalesce
	// SchedContinue: a pending continuation was taken from the domain's
	// continuation FIFO for execution (the pop of a captured raise).
	SchedContinue
	// SchedBatchPop: a batched drain popped ver (>= 1) queued activations
	// under one queue-lock acquisition; ev is the first popped event. It
	// replaces the per-activation SchedPop on the batched path.
	SchedBatchPop
	// SchedHandoff: an asynchronous raise of a covered async-entry
	// segment owned by *another* domain was captured into that domain's
	// continuation FIFO instead of enqueued (coalesce.go); dom is the
	// receiving domain, ver is the segment guard version observed at
	// capture. The consume reports as SchedContinue on the same domain.
	SchedHandoff
)

// String returns the conventional name of the point.
func (p SchedPoint) String() string {
	switch p {
	case SchedEnqueue:
		return "enqueue"
	case SchedPop:
		return "pop"
	case SchedTimerFire:
		return "timer-fire"
	case SchedPublish:
		return "publish"
	case SchedInstall:
		return "install"
	case SchedRemove:
		return "remove"
	case SchedFastEntry:
		return "fast-entry"
	case SchedCoalesce:
		return "coalesce"
	case SchedContinue:
		return "continue"
	case SchedBatchPop:
		return "batch-pop"
	case SchedHandoff:
		return "handoff"
	default:
		return "SchedPoint(?)"
	}
}

// SchedHook observes scheduling decisions. It is a test seam: the field
// is nil in production, so every call site is a single pointer check and
// the hot dispatch path stays allocation-free (the alloc and telemetry
// overhead gates cover the compiled-in seam).
//
// Constraints on implementations: the hook fires with internal locks
// held (a domain's queue lock at pop/fire points, the registry write
// lock at publish/install points, a domain's atomicity lock at
// fast-entry) and MUST NOT re-enter the System — no Raise, no Bind, no
// Step — and must not block. Record and return.
type SchedHook interface {
	Sched(p SchedPoint, dom int, ev ID, ver uint64)
}

// WithSchedHook installs a scheduling observer at construction.
func WithSchedHook(h SchedHook) Option {
	return func(s *System) { s.sched = h }
}

// StepDomain runs at most one runnable activation (or internal timer
// callback) of domain dom, reporting whether one ran. It is the
// single-domain analogue of Step: an external scheduler — the
// exploration harness — uses it to choose exactly which domain advances
// next instead of the fixed domain-order sweep.
func (s *System) StepDomain(dom int) bool {
	if dom < 0 || dom >= len(s.domains) {
		return false
	}
	return s.domains[dom].pump(1) > 0
}

// DomainRunnable reports whether domain dom has work that would run
// right now: a pending continuation, a queued activation or a timer at
// or past its deadline. It does not consider future timers; see
// NextDeadline.
func (s *System) DomainRunnable(dom int) bool {
	if dom < 0 || dom >= len(s.domains) {
		return false
	}
	d := s.domains[dom]
	d.qmu.Lock()
	defer d.qmu.Unlock()
	return d.contHead < len(d.cont) || d.q.len() > 0 || d.dueTimerLocked()
}

// NextDeadline returns the earliest live timer deadline across all
// domains, or false when no timers are pending. An external scheduler
// advances a VirtualClock to this instant to make the next timed
// activation runnable.
func (s *System) NextDeadline() (Duration, bool) {
	return s.earliestDeadline()
}
