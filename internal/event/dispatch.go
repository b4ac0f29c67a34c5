package event

import (
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
)

// Raise synchronously activates ev from outside any handler: all bound
// handlers run to completion before Raise returns. It reports an error
// only for unknown or deleted events; an event with no handlers is
// silently ignored, per the general model.
//
// Raise must not be called from inside a handler (use Ctx.Raise there);
// handler execution is atomic per domain and Raise takes the owning
// domain's atomicity lock.
func (s *System) Raise(ev ID, args ...Arg) error {
	d := s.domainOf(ev)
	d.runMu.Lock()
	defer d.runMu.Unlock()
	d.telAttempt = 0
	return s.dispatch(d, ev, Sync, args, 0, nil, 0)
}

// RaiseByName is Raise keyed by event name.
func (s *System) RaiseByName(name string, args ...Arg) error {
	ev := s.Lookup(name)
	if ev == NoID {
		return ErrUnknownEvent
	}
	return s.Raise(ev, args...)
}

// RaiseAsync asynchronously activates ev: the activation is queued on
// the event's owning domain and its handlers run from a later
// Drain/Step/Run call. Safe to call from handlers and from other
// goroutines; cross-domain raises hand off through the target domain's
// queue.
func (s *System) RaiseAsync(ev ID, args ...Arg) {
	s.enqueue(ev, Async, args)
}

// runTop executes one activation record popped from the domain's
// scheduler and releases it afterwards. It is the one top-level run
// route: an internal timer callback fires in place of a dispatch, a
// captured continuation dispatches through its segment under the
// Propagate policy, and everything else — including continuations under
// supervision, so retry, quarantine and deopt-replay behave exactly as
// for an enqueued activation — takes the registry route. a.attempt
// counts prior executions of the same activation under the retry
// policy; an activation that recovered at least one handler panic is
// handed to the retry machinery once the atomicity lock is released.
// The retry path copies the record's arguments into its timer entry, so
// the release never exposes aliased storage.
func (d *Domain) runTop(a *activation) {
	s := d.sys
	if a.fire != nil {
		fire := a.fire
		s.putAct(a)
		fire()
		return
	}
	sh := a.csh
	if s.policy() != Propagate {
		sh = nil
	}
	var faults int
	var ftrace, fspan uint64
	func() {
		// The unlock must be deferred: under the Propagate policy (or for
		// a non-handler panic, e.g. a panicking tracer) a panic unwinds
		// through here, and a caller that recovers it must find the
		// atomicity lock released.
		d.runMu.Lock()
		defer d.runMu.Unlock()
		d.fault.activationFaults = 0
		d.telAttempt = int(a.attempt)
		d.pendTrace, d.pendSpan, d.pendKind = a.trace, a.pspan, a.skind
		d.lastSpanTrace = 0 // set again by a traced dispatch
		_ = s.dispatch(d, a.ev, a.mode, a.args.get(), 0, sh, int(a.cidx))
		faults = d.fault.activationFaults
		d.fault.activationFaults = 0
		if faults > 0 {
			ftrace, fspan = d.lastSpanTrace, d.lastSpanID
		}
	}()
	if faults > 0 {
		d.maybeRetry(a.ev, a.mode, a.args.get(), int(a.attempt), ftrace, fspan)
	}
	s.putAct(a)
}

// raiseNested executes a synchronous activation from inside a handler.
// The atomicity lock of the caller's domain is already held by the
// enclosing top-level dispatch; the nested activation runs inline in
// that domain regardless of the event's own affinity.
func (s *System) raiseNested(parent *Ctx, ev ID, args []Arg) {
	if err := s.dispatch(parent.dom, ev, Sync, args, parent.depth+1, nil, 0); err != nil {
		s.report(err)
	}
}

func (s *System) report(err error) {
	if s.haltErr != nil {
		s.haltErr(err)
	}
}

// dispatch is the one observed dispatch of an activation of ev on
// domain d at nesting depth depth: top-level raises and popped records,
// nested raises, continuations and subsumed synchronous raises all pass
// through it. sh (with segment index idx) selects the segment route of
// a continuation (depth 0) or a subsumed raise (depth > 0); nil selects
// the registry route. With telemetry and spans off, the observation
// bracket costs one branch.
//
// The bracket takes the domain stream's one sampling draw, which each
// layer compares against its own threshold: the graph feed and the timed
// path (telemetry), and the root decision of a registry-route top-level
// raise that carries no span context (spans). A nested raise inherits
// the domain's open span; a popped record adopts the context stamped on
// it (pend*, set by runTop). A timed or traced activation reads the
// clock twice and writes at most one stream record, which is a span when
// it carries a trace and, at top level, a flight-recorder record.
// Faulted top-level activations are recorded regardless of the draw
// (with Start = End when neither timed nor traced), and any dump the
// activation's faults requested is taken last, so the ring already
// contains the faulted activation when it is captured.
//
// The brackets are straight-line rather than deferred: under the
// Propagate policy a handler panic unwinds through the raise and that
// activation goes unrecorded, which is acceptable — the flight recorder
// earns its keep under supervision, where panics are recovered.
func (s *System) dispatch(d *Domain, ev ID, mode Mode, args []Arg, depth int, sh *SuperHandler, idx int) error {
	if s.obs == nil {
		return s.route(d, ev, mode, args, depth, sh, idx)
	}
	tel, col, df := s.tel, s.spans, &d.fault
	draw := s.obs.Draw(d.idx)
	timed := false
	if tel != nil {
		timed = tel.RecordDispatch(d.idx, int32(ev), mode == Sync, draw)
		if depth == 0 && df.lastCause != nil { // conditional: skip the write barrier on the common path
			df.lastCause = nil
		}
	}
	var trace, parent, id uint64
	var kind span.Kind
	var prevTrace, prevSpan uint64
	var prevTier, prevFlags uint8
	traced := false
	if col != nil {
		if trace, parent, kind, traced = d.spanContext(depth, sh == nil, draw); traced {
			id = col.NextID(d.idx)
			if trace == 0 {
				trace = id
			}
			// The tier/flag scratch is saved and zeroed around the inner
			// dispatch so the attribution points credit the innermost
			// open span only.
			prevTrace, prevSpan, prevTier, prevFlags = d.curTrace, d.curSpan, d.spanTier, d.spanFlags
			d.curTrace, d.curSpan, d.spanTier, d.spanFlags = trace, id, 0, 0
		}
	}
	var start Duration
	if timed || traced {
		start = s.clock.Now()
	}
	faultsBefore := df.activationFaults
	err := s.route(d, ev, mode, args, depth, sh, idx)
	faulted := df.activationFaults > faultsBefore
	flight := tel != nil && depth == 0 && (timed || faulted)
	if timed || traced || flight {
		end := s.clock.Now()
		if !timed && !traced {
			start = end
		}
		if timed {
			tel.RecordLatency(d.idx, int32(ev), int64(end-start))
		}
		if traced || flight {
			r := telemetry.Record{Event: int32(ev), Mode: uint8(mode), Nested: depth > 0,
				Attempt: d.telAttempt, Start: int64(start), End: int64(end)}
			if faulted {
				r.Outcome, r.Cause = telemetry.OutcomeFault, df.lastCause
				if flight {
					tel.RecordFault(d.idx, int32(ev))
				}
			}
			if traced {
				r.Trace, r.Span, r.Parent = trace, id, parent
				r.Kind, r.Tier, r.Flags = uint8(kind), d.spanTier, d.spanFlags
				if faulted {
					r.Flags |= uint8(span.FlagFault)
				}
				d.curTrace, d.curSpan, d.spanTier, d.spanFlags = prevTrace, prevSpan, prevTier, prevFlags
				if depth == 0 {
					// Remembered across the runMu release so the retry machinery
					// can parent a replay on the attempt that faulted.
					d.lastSpanTrace, d.lastSpanID = trace, id
				}
				col.Record(d.idx, &r)
			} else {
				s.obs.Write(d.idx, &r)
			}
		}
	}
	if depth == 0 && d.telDumpReason != "" {
		reason := d.telDumpReason
		d.telDumpReason = ""
		tel.DumpFlight(d.idx, reason)
	}
	return err
}

// route is dispatch below the observation bracket. It resolves ev and
// runs it through the segment sh[idx] when one is given, else through
// the installed fast path if one is present and its guard passes, else
// through the generic path. All registry reads — record, binding
// snapshot, fast path, tracer — are single atomic loads; no lock is
// taken (the paper's §2.2 registry-lock overhead survives only as the
// modeled per-handler state-maintenance lock).
func (s *System) route(d *Domain, ev ID, mode Mode, args []Arg, depth int, sh *SuperHandler, idx int) error {
	var r *eventRec
	if sh != nil {
		r = sh.recs[idx]
	} else if r = s.recLF(ev); r == nil {
		return ErrUnknownEvent
	}
	snap := r.snap.Load()
	if snap.deleted {
		return ErrDeletedEvent
	}
	tracer := s.tracer()

	d.stats.Raises.Add(1)
	switch mode {
	case Sync:
		d.stats.SyncRaises.Add(1)
	case Async:
		d.stats.AsyncRaises.Add(1)
	case Delayed:
		d.stats.TimedRaises.Add(1)
	}
	if tracer != nil {
		tracer.Event(ev, snap.name, mode, depth, d.idx)
	}

	if sh != nil {
		// The segment guard is re-checked at dispatch time: a rebind may
		// have raced the pending continuation, or a handler earlier in
		// this very chain may have rebound ev. A stale guard falls back to
		// the original code for just this event (Fig. 14).
		if !sh.segMatches(idx) {
			d.stats.SegFallbacks.Add(1)
			d.spanNoteFlags(span.FlagSegFallback)
			d.generic(snap, ev, mode, args, depth, tracer)
			return nil
		}
		if depth == 0 {
			// A continuation is a top-level activation of its own; a
			// subsumed raise is part of its chain's fast run.
			d.stats.FastRuns.Add(1)
		}
		d.spanNoteTier(sh)
		d.slot(depth).ce.start(sh, d, tracer).runSegment(idx, args, mode, depth)
		return nil
	}

	if fast := r.fast.Load(); fast != nil {
		var ran, faulted bool
		if s.policy() == Propagate {
			ran = fast.run(d, mode, args, depth, tracer)
		} else {
			ran, faulted = d.runFastSupervised(fast, ev, snap.name, mode, args, depth, tracer)
		}
		switch {
		case ran:
			d.stats.FastRuns.Add(1)
			d.spanNoteTier(fast)
			if h := s.sched; h != nil {
				h.Sched(SchedFastEntry, d.idx, ev, fast.Segments[0].Version)
			}
			return nil
		case faulted:
			// The optimized code itself faulted: extend the paper's
			// fallback from "guard failed" to "fast path panicked" —
			// atomically uninstall the entry and replay the whole
			// activation through the original unoptimized code, against
			// the freshest snapshot (the faulting chain may have rebound
			// events before panicking).
			s.deoptimize(d, fast)
			d.spanNoteFlags(span.FlagDeoptReplay)
			snap = r.snap.Load()
		default:
			// Guard failed: drop back into the original unoptimized code
			// (paper section 3.3).
			d.stats.Fallbacks.Add(1)
			d.spanNoteFlags(span.FlagGuardFallback)
		}
	}
	d.generic(snap, ev, mode, args, depth, tracer)
	return nil
}

// generic is the unoptimized dispatch path. It deliberately performs the
// five overheads the paper attributes to event frameworks: argument
// marshaling, registry snapshot resolution, an indirect call per
// handler, per-handler parameter resolution, and a state-maintenance
// lock acquisition around each handler body.
func (d *Domain) generic(snap *bindingSnapshot, ev ID, mode Mode, args []Arg, depth int, tracer Tracer) {
	s := d.sys
	d.stats.Generic.Add(1)

	// (1) Marshal the caller's arguments into the generic record embedded
	// in this depth's scratch context. The copy is the marshal the paper
	// prices; the storage is recycled per domain and depth, so the
	// steady-state raise performs it without allocating.
	slot := d.slot(depth)
	ctx := &slot.ctx
	*ctx = Ctx{System: s, Event: ev, Name: snap.name, Mode: mode, depth: depth, dom: d}
	ctx.setArgs(args)
	a := ctx.Args
	d.stats.Marshals.Add(1)

	// (2) Registry lookup: the immutable published snapshot replaces the
	// historical under-lock copy, so rebinding from inside a handler
	// affects only later activations.
	hs := snap.handlers
	if len(hs) == 0 {
		return // an event with no handlers is ignored
	}
	name := snap.name

	pol := s.policy()
	for i := range hs {
		h := &hs[i]

		// Skip bindings the circuit breaker has quarantined. The atomic
		// count keeps the healthy path free of map lookups.
		if pol == Quarantine && d.fault.quarCount.Load() > 0 && d.skipQuarantined(ev, h.Name) {
			continue
		}

		// (3) Per-handler parameter resolution (unmarshaling): resolve
		// each declared parameter by name before the call.
		for _, p := range h.Params {
			a.Get(p)
		}
		if n := len(h.Params); n > 0 {
			d.stats.ArgResolves.Add(int64(n))
		}

		// (4) State maintenance: pay for one lock round-trip per handler
		// body. The lock is released immediately because the domain's
		// runMu atomicity lock already serializes handlers; what we model
		// here is the locking traffic the paper counts as overhead.
		d.stateLockTraffic()

		// (5) Indirect call through the function pointer in the binding.
		ctx.Handler = h.Name
		ctx.BindArgs = h.BindArgs
		if tracer != nil {
			tracer.HandlerEnter(ev, name, h.Name, depth, d.idx)
		}
		d.stats.Indirect.Add(1)
		d.stats.HandlersRun.Add(1)
		if pol == Propagate {
			h.Fn(ctx)
		} else if pv, panicked := runProtected(h.Fn, ctx); panicked {
			d.recordFault(FaultInfo{
				Event: ev, EventName: name, Handler: h.Name,
				Mode: mode, Depth: depth, Domain: d.idx, PanicVal: pv,
			}, tracer)
		} else if pol == Quarantine && d.fault.tracked.Load() > 0 {
			d.noteSuccess(ev, h.Name)
		}
		if tracer != nil {
			tracer.HandlerExit(ev, name, h.Name, depth, d.idx)
		}
		if ctx.halted {
			break
		}
	}
}

// stateLockTraffic pays one state-maintenance lock round-trip on the
// executing domain's lock.
func (d *Domain) stateLockTraffic() {
	d.stats.Locks.Add(1)
	d.stateMu.Lock()
	//lint:ignore SA2001 intentional: models per-handler lock traffic only
	d.stateMu.Unlock()
}
