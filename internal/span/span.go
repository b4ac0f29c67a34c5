// Package span is the causal tracing layer of the event runtime: a
// stdlib-only collector that turns sampled root raises into trace trees
// spanning every scheduling hop an activation can take — sync nested
// raises, cross-domain async handoffs, coalesced continuations, batched
// drains, timer-deferred retries, dead-letter replays and post-deopt
// generic replays. The runtime threads two fixed-size words (trace ID +
// parent span ID) through the pooled activation records and timer
// entries, so propagation costs no allocation; spans are the traced
// records of the per-domain observation stream (telemetry.Stream) that
// the flight recorder also reads, so an activation that is both timed
// and traced is written once.
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
	"slices"
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

func (k Kind) String() string { return enumName(kindNames[:], uint8(k), "kind") }

// MarshalJSON renders the kind as its symbolic name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the symbolic name (or a legacy integer).
func (k *Kind) UnmarshalJSON(b []byte) error {
	n, err := parseEnum(b, kindNames[:], "kind")
	if err == nil {
		*k = Kind(n)
	}
	return err
}

// enumName is the symbolic name of v, or what(v) past the table.
func enumName(names []string, v uint8, what string) string {
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", what, v)
}

// parseEnum decodes a symbolic name from names (or a legacy integer
// indexing names; one past the table would not re-encode).
func parseEnum(b []byte, names []string, what string) (uint8, error) {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n uint8
		if json.Unmarshal(b, &n) != nil {
			return 0, err
		}
		if int(n) >= len(names) {
			return 0, fmt.Errorf("span: %s %d out of range", what, n)
		}
		return n, nil
	}
	if i := slices.Index(names, s); i >= 0 {
		return uint8(i), nil
	}
	return 0, fmt.Errorf("span: unknown %s %q", what, s)
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

func (t Tier) String() string { return enumName(tierNames[:], uint8(t), "tier") }

// MarshalJSON renders the tier as its symbolic name.
func (t Tier) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON accepts the symbolic name (or a legacy integer).
func (t *Tier) UnmarshalJSON(b []byte) error {
	n, err := parseEnum(b, tierNames[:], "tier")
	if err == nil {
		*t = Tier(n)
	}
	return err
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

// flagNames names the flag bits, lowest first.
var flagNames = [...]string{"fault", "guard-fallback", "seg-fallback", "deopt-replay"}

func (f Flags) String() string {
	var parts []string
	for i, name := range flagNames {
		if f&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	return strings.Join(parts, ",")
}

// MarshalJSON renders the flag set as a comma-joined name list.
func (f Flags) MarshalJSON() ([]byte, error) { return json.Marshal(f.String()) }

// UnmarshalJSON accepts the comma-joined name list (or a legacy integer
// made of named bits only; an unnamed bit would not re-encode).
func (f *Flags) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n uint8
		if json.Unmarshal(b, &n) != nil {
			return err
		}
		if n>>len(flagNames) != 0 {
			return fmt.Errorf("span: flags %d has unnamed bits", n)
		}
		*f = Flags(n)
		return nil
	}
	*f = 0
	if s == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		i := slices.Index(flagNames[:], part)
		if i < 0 {
			return fmt.Errorf("span: unknown flag %q", part)
		}
		*f |= 1 << i
	}
	return nil
}

// modeNames names event.Mode values (span sits below event in the
// dependency order, so it cannot import the type).
var modeNames = [...]string{"sync", "async", "timed"}

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
