// Package span is the causal tracing layer of the event runtime: a
// stdlib-only collector that turns sampled root raises into trace trees
// spanning every scheduling hop an activation can take — sync nested
// raises, cross-domain async handoffs, coalesced continuations, batched
// drains, timer-deferred retries, dead-letter replays and post-deopt
// generic replays. The runtime threads two fixed-size words (trace ID +
// parent span ID) through the pooled activation records and timer
// entries, so propagation costs no allocation; spans land in per-domain
// seqlock rings modeled on the telemetry flight recorder.
//
// Retention is tail-based: faulted traces are always kept, roots slower
// than the live p99 are marked for retention, and a hash-sampled
// fraction of healthy traces is kept as a baseline. Marked traces are
// swept out of the rings lazily (at export time), which keeps the
// record path free of locks and allocation.
package span

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Kind says which scheduling hop created a span — how the activation
// that the span measures reached its domain.
type Kind uint8

const (
	// KindRoot is a sampled external raise: the start of a new trace.
	KindRoot Kind = iota
	// KindSync is a nested synchronous raise (Ctx.Raise), including
	// subsumed fast-path segments.
	KindSync
	// KindAsync is a queued raise (Ctx.RaiseAsync), possibly handed to
	// another domain.
	KindAsync
	// KindCoalesced is an async raise captured as a same-domain
	// continuation instead of a queue round-trip.
	KindCoalesced
	// KindTimer is a raise deferred through the timer heap
	// (Ctx.RaiseAfter).
	KindTimer
	// KindRetry is a faulted activation replayed by the retry policy.
	KindRetry
	// KindDeadLetter is the dead-letter notification published after
	// retries were exhausted.
	KindDeadLetter
	// KindHandoff is an async raise captured into another domain's
	// continuation FIFO: a continuation hop that crossed a domain
	// boundary without a queue round-trip.
	KindHandoff

	numKinds
)

var kindNames = [numKinds]string{
	"root", "sync", "async", "coalesced", "timer", "retry", "dead-letter", "handoff",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its symbolic name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the symbolic name (or a legacy integer).
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n uint8
		if err2 := json.Unmarshal(b, &n); err2 == nil {
			*k = Kind(n)
			return nil
		}
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("span: unknown kind %q", s)
}

// Tier says which execution tier ran the span's handlers, mirroring the
// paper's staging: the generic dispatcher, a steps-based fast path, a
// fused HIR body, or AOT-generated code.
type Tier uint8

const (
	TierGeneric Tier = iota
	TierFast
	TierHIR
	TierGenerated

	numTiers
)

var tierNames = [numTiers]string{"generic", "fast", "hir", "generated"}

func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// MarshalJSON renders the tier as its symbolic name.
func (t Tier) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON accepts the symbolic name (or a legacy integer).
func (t *Tier) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n uint8
		if err2 := json.Unmarshal(b, &n); err2 == nil {
			*t = Tier(n)
			return nil
		}
		return err
	}
	for i, name := range tierNames {
		if name == s {
			*t = Tier(i)
			return nil
		}
	}
	return fmt.Errorf("span: unknown tier %q", s)
}

// Flags annotate why a span took the path it did.
type Flags uint8

const (
	// FlagFault: at least one handler faulted during the span.
	FlagFault Flags = 1 << iota
	// FlagGuardFallback: the fast-path entry guard failed and the
	// generic dispatcher ran instead.
	FlagGuardFallback
	// FlagSegFallback: a nested or coalesced raise matched a segment
	// whose guard failed at dispatch time.
	FlagSegFallback
	// FlagDeoptReplay: optimized code faulted, the super-handler was
	// deoptimized, and the activation was replayed generically.
	FlagDeoptReplay
)

var flagNames = []struct {
	f    Flags
	name string
}{
	{FlagFault, "fault"},
	{FlagGuardFallback, "guard-fallback"},
	{FlagSegFallback, "seg-fallback"},
	{FlagDeoptReplay, "deopt-replay"},
}

func (f Flags) String() string {
	if f == 0 {
		return ""
	}
	var parts []string
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			parts = append(parts, fn.name)
		}
	}
	return strings.Join(parts, ",")
}

// MarshalJSON renders the flag set as a comma-joined name list.
func (f Flags) MarshalJSON() ([]byte, error) { return json.Marshal(f.String()) }

// UnmarshalJSON accepts the comma-joined name list (or a legacy integer).
func (f *Flags) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n uint8
		if err2 := json.Unmarshal(b, &n); err2 == nil {
			*f = Flags(n)
			return nil
		}
		return err
	}
	*f = 0
	if s == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		found := false
		for _, fn := range flagNames {
			if fn.name == part {
				*f |= fn.f
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("span: unknown flag %q", part)
		}
	}
	return nil
}

// Mode mirrors event.Mode without importing the event package (span sits
// below event in the dependency order).
const (
	ModeSync  uint8 = 0
	ModeAsync uint8 = 1
	ModeTimed uint8 = 2
)

func modeName(m uint8) string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeAsync:
		return "async"
	case ModeTimed:
		return "timed"
	default:
		return fmt.Sprintf("mode(%d)", m)
	}
}

// Span is one recorded hop of a trace. IDs are dense per domain:
// bits 48..63 carry domain+1, the low 48 bits a per-domain sequence, so
// IDs are unique across domains without shared atomics. A root span's
// Trace equals its own ID.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Event  int32  `json:"event"`
	Name   string `json:"name,omitempty"` // resolved at export time
	Domain int    `json:"domain"`
	Kind   Kind   `json:"kind"`
	Tier   Tier   `json:"tier"`
	Flags  Flags  `json:"flags,omitempty"`
	Mode   string `json:"mode"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Duration is the span's wall time on the system clock.
func (sp Span) Duration() int64 { return sp.End - sp.Start }

// Root reports whether the span started its trace.
func (sp Span) Root() bool { return sp.ID == sp.Trace }

// meta packs the non-ID scalar fields of a span into one atomic word:
//
//	bits  0..31  event ID
//	bits 32..35  kind
//	bits 36..39  tier
//	bits 40..47  flags
//	bits 48..51  mode
func packMeta(ev int32, kind Kind, tier Tier, flags Flags, mode uint8) uint64 {
	return uint64(uint32(ev)) |
		uint64(kind&0xF)<<32 |
		uint64(tier&0xF)<<36 |
		uint64(flags)<<40 |
		uint64(mode&0xF)<<48
}

func unpackMeta(m uint64) (ev int32, kind Kind, tier Tier, flags Flags, mode uint8) {
	return int32(uint32(m)),
		Kind(m >> 32 & 0xF),
		Tier(m >> 36 & 0xF),
		Flags(m >> 40 & 0xFF),
		uint8(m >> 48 & 0xF)
}
