package event

import (
	"eventopt/internal/span"
)

// WithSpanTracing enables causal span tracing at construction: sampled
// root raises get a trace ID, and causality propagates through nested
// raises, cross-domain async handoffs, coalesced continuations, batched
// drains, timer retries, dead-letter replays and post-deopt generic
// replays. The context travels as fixed-size words inside the pooled
// activation records and timer entries, so the sampled path stays
// allocation-free (the same discipline as the telemetry layer).
func WithSpanTracing(cfg span.Config) Option {
	return func(s *System) { s.wantSpans, s.wantSpanCfg = true, cfg }
}

// Spans returns the span collector (nil unless the system was built with
// WithSpanTracing).
func (s *System) Spans() *span.Collector { return s.spans }

// SpanTracingEnabled reports whether the span layer is active.
func (s *System) SpanTracingEnabled() bool { return s.spans != nil }

// spanContext picks the span context of a dispatch at depth: nested
// raises inherit the domain's open span; a top-level dispatch adopts the
// context stamped on its activation record (pend*, set by runTop) or,
// when it carries none and mayRoot is set, compares the dispatch's draw
// against the root threshold. It reports traced=false for an unsampled
// activation, which then pays one branch and, at top level, one
// compare. Caller holds runMu.
func (d *Domain) spanContext(depth int, mayRoot bool, draw uint64) (trace, parent uint64, kind span.Kind, traced bool) {
	if depth > 0 {
		return d.curTrace, d.curSpan, span.KindSync, d.curTrace != 0
	}
	// pendSpan/pendKind mean nothing while pendTrace is zero, so clearing
	// the trace word alone retires them.
	if trace = d.pendTrace; trace != 0 {
		d.pendTrace = 0
		return trace, d.pendSpan, span.Kind(d.pendKind), true
	}
	if mayRoot && d.sys.spans.SampleRoot(d.idx, draw) {
		return 0, 0, span.KindRoot, true
	}
	return 0, 0, 0, false
}

// spanTierOf classifies which execution tier a super-handler represents:
// AOT-generated code, a fused HIR body, or a steps-based fast path.
func spanTierOf(sh *SuperHandler) uint8 {
	if sh.Provenance == "generated" {
		return uint8(span.TierGenerated)
	}
	for i := range sh.Segments {
		if sh.Segments[i].Fused != nil {
			return uint8(span.TierHIR)
		}
	}
	return uint8(span.TierFast)
}

// spanNoteTier credits the innermost open span with the tier of the
// super-handler that ran it. One plain-field branch when tracing is off
// or the activation is unsampled. Caller holds runMu.
func (d *Domain) spanNoteTier(sh *SuperHandler) {
	if d.curTrace != 0 {
		d.spanTier = spanTierOf(sh)
	}
}

// spanNoteFlags ORs fallback/deopt annotations into the innermost open
// span. Caller holds runMu.
func (d *Domain) spanNoteFlags(f span.Flags) {
	if d.curTrace != 0 {
		d.spanFlags |= uint8(f)
	}
}

// enqueueFrom is enqueue stamped with the raising handler's span
// context, so a cross-domain RaiseAsync carries its trace to the target
// domain's queue. Outside a sampled trace it is a plain enqueue.
func (s *System) enqueueFrom(d *Domain, ev ID, mode Mode, args []Arg) {
	if s.spans == nil || d == nil || d.curTrace == 0 {
		s.enqueue(ev, mode, args)
		return
	}
	s.enqueueCtx(ev, mode, args, d.curTrace, d.curSpan, uint8(span.KindAsync))
}

// raiseAfterFrom is RaiseAfter stamped with the raising handler's span
// context (timer-deferred hop).
func (s *System) raiseAfterFrom(from *Domain, delay Duration, ev ID, args []Arg) Timer {
	if s.spans == nil || from == nil || from.curTrace == 0 {
		return s.RaiseAfter(delay, ev, args...)
	}
	return s.raiseAfterCtx(delay, ev, args, from.curTrace, from.curSpan, uint8(span.KindTimer))
}
