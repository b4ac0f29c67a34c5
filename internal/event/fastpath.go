package event

import "fmt"

// Step is one merged handler invocation inside a super-handler. It keeps
// the original event and handler names so instrumented executions of
// optimized code produce traces comparable with the unoptimized program.
type Step struct {
	Event     ID
	EventName string
	Handler   string
	Fn        HandlerFunc
	BindArgs  *Args
}

// Segment groups the merged steps belonging to one event of a chain. A
// super-handler for a single event has one segment; a chain or
// subsumption super-handler has one segment per covered event (paper
// Figs. 7-9). Version is the binding version of Event at optimization
// time: the guard of section 3.3.
//
// If Fused is non-nil it replaces Steps: it is a single fused body,
// typically compiled from the merged and optimized HIR of all the
// segment's handlers, and is invoked once per activation.
type Segment struct {
	Event     ID
	EventName string
	Version   uint64
	Steps     []Step
	Fused     HandlerFunc
	FusedName string
	// FusedIR optionally records the IR behind Fused (an *hir.Function),
	// kept opaque here; the code-size experiment reads it.
	FusedIR any
	// AsyncEntry marks a segment whose link from its predecessor in the
	// chain is asynchronous in the profile: an async raise of this event
	// from inside the chain may be speculatively coalesced into an inline
	// continuation instead of enqueued (coalesce.go). Sync subsumption of
	// the segment is unaffected.
	AsyncEntry bool
}

// SuperHandler is an optimized dispatch route installed for one event.
// When the event is raised and every guard passes, the merged code runs
// instead of the generic marshal/lookup/indirect-call sequence. Nested
// synchronous raises of covered events from inside the merged handlers
// dispatch directly into their segment (subsumption, Fig. 9).
//
// Partitioned selects the extended organization of Fig. 14: the entry
// guard alone gates the fast path, and each interior segment re-checks
// its own guard at dispatch time, falling back to the original code for
// just that event when its binding changed.
type SuperHandler struct {
	Entry       ID
	Segments    []Segment
	Partitioned bool

	// Provenance records which tier produced this super-handler:
	// "offline" (ahead-of-time plan install), "adaptive" (online
	// controller), "generated" (evgen AOT code), or "" for manual
	// installs. Purely informational; surfaced by FastPaths and the
	// /optimizer debug endpoint.
	Provenance string

	// OnDeopt, when non-nil, is invoked after the runtime auto-uninstalls
	// this super-handler because its optimized code panicked under an
	// Isolate/Quarantine fault policy. The optimizer sets it so the
	// installation handle learns which entries were evicted.
	OnDeopt func(*SuperHandler)

	segOf map[ID]int  // covered event -> segment index
	recs  []*eventRec // registry records, resolved at install (stable pointers)
}

// Covers reports whether the super-handler has a segment for ev.
func (sh *SuperHandler) Covers(ev ID) bool {
	_, ok := sh.segOf[ev]
	return ok
}

// CoveredEvents returns the events of all segments in order.
func (sh *SuperHandler) CoveredEvents() []ID {
	out := make([]ID, len(sh.Segments))
	for i := range sh.Segments {
		out[i] = sh.Segments[i].Event
	}
	return out
}

// InstallFastPath installs sh as the fast path for its entry event,
// replacing any previous fast path. The first segment must be the entry
// event's own segment. Installation follows the publish discipline:
// segment records resolve under the registry write lock, then the
// super-handler pointer is stored atomically, so concurrent raises on
// any domain either see the whole installed fast path or none of it.
func (s *System) InstallFastPath(sh *SuperHandler) error {
	_, err := s.installFastPath(sh, nil, false)
	return err
}

// ReplaceFastPath installs sh only if the entry's current fast path is
// exactly old (nil meaning "no fast path installed"). It reports whether
// the swap happened; false with a nil error means another installation
// won the race. This is the churn-safe primitive of the adaptive
// optimizer: a controller that planned against an observed state cannot
// clobber a super-handler someone else (a manual Optimize call, another
// controller tick, the fault supervisor's eviction) installed in the
// meantime, and a replan replaces its own previous install atomically —
// raises observe either the old fast path or the new one, never a
// generic window in between.
func (s *System) ReplaceFastPath(old, sh *SuperHandler) (bool, error) {
	return s.installFastPath(sh, old, true)
}

// installFastPath resolves sh's segment records under the registry lock
// and publishes it, either unconditionally or by compare-and-swap
// against old.
func (s *System) installFastPath(sh *SuperHandler, old *SuperHandler, cas bool) (bool, error) {
	if len(sh.Segments) == 0 {
		return false, fmt.Errorf("event: InstallFastPath: no segments")
	}
	if sh.Segments[0].Event != sh.Entry {
		return false, fmt.Errorf("event: InstallFastPath: first segment is %d, entry is %d",
			sh.Segments[0].Event, sh.Entry)
	}
	sh.segOf = make(map[ID]int, len(sh.Segments))
	for i := range sh.Segments {
		seg := &sh.Segments[i]
		if _, dup := sh.segOf[seg.Event]; !dup {
			sh.segOf[seg.Event] = i
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rec(sh.Entry)
	if r == nil || r.deleted {
		return false, ErrUnknownEvent
	}
	sh.recs = make([]*eventRec, len(sh.Segments))
	for i := range sh.Segments {
		sr := s.rec(sh.Segments[i].Event)
		if sr == nil {
			return false, ErrUnknownEvent
		}
		sh.recs[i] = sr
	}
	if cas {
		swapped := r.fast.CompareAndSwap(old, sh)
		if swapped {
			if h := s.sched; h != nil {
				h.Sched(SchedInstall, int(r.dom.Load()), sh.Entry, sh.Segments[0].Version)
			}
		}
		return swapped, nil
	}
	r.fast.Store(sh)
	if h := s.sched; h != nil {
		h.Sched(SchedInstall, int(r.dom.Load()), sh.Entry, sh.Segments[0].Version)
	}
	return true, nil
}

// RemoveFastPath uninstalls the fast path of ev, if any.
func (s *System) RemoveFastPath(ev ID) {
	if r := s.recLF(ev); r != nil {
		r.fast.Store(nil)
		if h := s.sched; h != nil {
			h.Sched(SchedRemove, int(r.dom.Load()), ev, 0)
		}
	}
}

// RemoveFastPathIf uninstalls sh only if it is still the installed fast
// path of its entry, reporting whether it removed anything. A handle
// that uninstalls a plan uses this so it cannot clobber a newer
// super-handler installed after sh was auto-deoptimized.
func (s *System) RemoveFastPathIf(sh *SuperHandler) bool {
	r := s.recLF(sh.Entry)
	if r == nil || !r.fast.CompareAndSwap(sh, nil) {
		return false
	}
	if h := s.sched; h != nil {
		h.Sched(SchedRemove, int(r.dom.Load()), sh.Entry, 0)
	}
	return true
}

// deoptimize atomically uninstalls a super-handler whose optimized code
// faulted on domain d. The compare-and-swap makes the eviction idempotent
// across domains (the counter credits the domain that won the race).
// Caller then replays the activation generically.
func (s *System) deoptimize(d *Domain, sh *SuperHandler) {
	r := s.recLF(sh.Entry)
	if r == nil || !r.fast.CompareAndSwap(sh, nil) {
		return
	}
	d.stats.Deopts.Add(1)
	if h := s.sched; h != nil {
		h.Sched(SchedRemove, d.idx, sh.Entry, 0)
	}
	if sh.OnDeopt != nil {
		sh.OnDeopt(sh)
	}
}

// FastPath returns the installed fast path of ev (nil if none).
func (s *System) FastPath(ev ID) *SuperHandler {
	if r := s.recLF(ev); r != nil {
		return r.fast.Load()
	}
	return nil
}

// versionsMatch checks the guards of all segments. Versions are read
// from the lock-free atomics: a deleted or rebound event has a bumped
// version, so a stale pointer can only fail the comparison.
func (sh *SuperHandler) versionsMatch() bool {
	for i := range sh.Segments {
		if sh.recs[i].ver.Load() != sh.Segments[i].Version {
			return false
		}
	}
	return true
}

// segMatches checks a single segment guard.
func (sh *SuperHandler) segMatches(i int) bool {
	return sh.recs[i].ver.Load() == sh.Segments[i].Version
}

// run executes the super-handler for one activation of its entry event
// on domain d. It returns false (without side effects) when the guard
// fails and the caller must take the generic path.
func (sh *SuperHandler) run(d *Domain, mode Mode, args []Arg, depth int, tracer Tracer) bool {
	if sh.Partitioned {
		if !sh.segMatches(0) {
			return false
		}
	} else if !sh.versionsMatch() {
		return false
	}
	// The execution state lives in this depth's dispatch scratch: one
	// argument view is built for the whole chain (no per-handler record
	// or resolution) and nothing on the steady-state path allocates.
	d.slot(depth).ce.start(sh, d, tracer).runSegment(0, args, mode, depth)
	return true
}

// chainExec is the live execution state of one super-handler activation.
type chainExec struct {
	sh         *SuperHandler
	d          *Domain
	tracer     Tracer
	supervised bool // record in-flight handler names for fault attribution
	// splice is set when nothing watches this run: no tracer, no
	// observation stream and the Propagate policy. Only then may fused
	// code run a statically spliced raise (Ctx.SpliceLive), because a
	// spliced raise is not an activation and nothing would see it.
	splice bool
}

// start resets ce for a run of sh on domain d and returns it. The fields
// are stored one by one: a composite literal would be built in a stack
// temporary and block-copied, and reading the copy back right away
// stalls store forwarding on the hot path.
func (ce *chainExec) start(sh *SuperHandler, d *Domain, tracer Tracer) *chainExec {
	ce.sh, ce.d, ce.tracer = sh, d, tracer
	ce.supervised = d.sys.policy() != Propagate
	ce.splice = tracer == nil && d.sys.obs == nil && !ce.supervised
	return ce
}

// runSegment executes the steps (or fused body) of one segment. The
// arguments are copied into the inline record of this depth's scratch
// context (cloned past inlineArgs), so the caller's slice is never
// retained and the steady-state segment run does not allocate.
func (ce *chainExec) runSegment(idx int, args []Arg, mode Mode, depth int) {
	seg := &ce.sh.Segments[idx]
	d := ce.d
	s := d.sys

	// One state-maintenance lock round-trip per segment, instead of one
	// per handler on the generic path.
	d.stateLockTraffic()

	ctx := &d.slot(depth).ctx
	*ctx = Ctx{
		System: s,
		Event:  seg.Event,
		Name:   seg.EventName,
		Mode:   mode,
		depth:  depth,
		chain:  ce,
		dom:    d,
	}
	ctx.setArgs(args)
	if seg.Fused != nil {
		ctx.Handler = seg.FusedName
		if ce.supervised {
			d.noteCurrent(seg.Event, seg.EventName, seg.FusedName, depth)
		}
		if ce.tracer != nil {
			ce.tracer.HandlerEnter(seg.Event, seg.EventName, seg.FusedName, depth, d.idx)
		}
		d.stats.HandlersRun.Add(1)
		seg.Fused(ctx)
		if ce.tracer != nil {
			ce.tracer.HandlerExit(seg.Event, seg.EventName, seg.FusedName, depth, d.idx)
		}
		if ce.supervised {
			d.clearCurrentHandler()
		}
		return
	}
	for i := range seg.Steps {
		st := &seg.Steps[i]
		ctx.Handler = st.Handler
		ctx.BindArgs = st.BindArgs
		if ce.supervised {
			d.noteCurrent(seg.Event, seg.EventName, st.Handler, depth)
		}
		if ce.tracer != nil {
			ce.tracer.HandlerEnter(seg.Event, seg.EventName, st.Handler, depth, d.idx)
		}
		d.stats.HandlersRun.Add(1)
		st.Fn(ctx)
		if ce.tracer != nil {
			ce.tracer.HandlerExit(seg.Event, seg.EventName, st.Handler, depth, d.idx)
		}
		if ce.supervised {
			d.clearCurrentHandler()
		}
		if ctx.halted {
			break
		}
	}
}

// dispatchNested handles a synchronous raise of ev from inside a merged
// handler. If ev is covered by the chain, control transfers directly into
// its segment (the subsumption of Fig. 9) after re-checking that
// segment's guard; a stale guard falls back to the original code for just
// that event (Fig. 14). It reports whether it handled the raise.
func (ce *chainExec) dispatchNested(c *Ctx, ev ID, args []Arg) bool {
	idx, ok := ce.sh.segOf[ev]
	if !ok || idx == 0 {
		// Not covered (or a cyclic raise of the entry): generic path.
		return false
	}
	d := ce.d
	// The segment route of the one dispatch: the segment guard is
	// re-checked there, since a handler earlier in this very chain may
	// have rebound ev.
	if err := d.sys.dispatch(d, ev, Sync, args, c.depth+1, ce.sh, idx); err != nil {
		d.sys.report(err)
	}
	if ce.supervised {
		// The caller's handler body resumes: restore its attribution so a
		// panic after the nested raise is not pinned on the nested segment.
		d.noteCurrent(c.Event, c.Name, c.Handler, c.depth)
	}
	return true
}

// SpliceLive reports whether fused code running in c may execute its
// statically spliced copy of segment seg in place of a synchronous raise
// of ev (the guard of guarded subsumption, paper Figs. 9 and 14). It
// holds when c runs under a super-handler whose segment seg is ev with
// its planned binding version, and nothing watches the run (no tracer,
// no telemetry or spans, Propagate policy). Otherwise the caller raises
// ev, and the raise takes the segment route with its per-event
// fallback, exactly as without the splice.
func (c *Ctx) SpliceLive(seg int, ev ID) bool {
	ce := c.chain
	if ce == nil || !ce.splice || seg <= 0 || seg >= len(ce.sh.Segments) {
		return false
	}
	return ce.sh.Segments[seg].Event == ev && ce.sh.segMatches(seg)
}
