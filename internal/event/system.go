package event

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"eventopt/internal/span"
	"eventopt/internal/telemetry"
)

// Tracer receives instrumentation callbacks from the runtime. The profile
// package installs one to record event and handler traces (paper section
// 3.1). Super-handlers emit the same callbacks for the handlers they run,
// so traces of optimized and unoptimized executions are comparable.
//
// dom identifies the event domain executing the activation (always 0 on a
// single-domain system). Callbacks from different domains may arrive
// concurrently; within one domain they are serialized by that domain's
// atomicity lock.
type Tracer interface {
	// Event is called once per activation, before any handler runs.
	Event(ev ID, name string, mode Mode, depth, dom int)
	// HandlerEnter/HandlerExit bracket each handler invocation.
	HandlerEnter(ev ID, eventName, handler string, depth, dom int)
	HandlerExit(ev ID, eventName, handler string, depth, dom int)
}

// Counters accumulates runtime statistics. All fields are updated with
// atomic adds so they can be read while the system runs. They exist so
// tests and benchmarks can verify which dispatch path executed and how
// much generic-path work was avoided. A synchronous raise that fused
// code runs as its statically spliced copy (Ctx.SpliceLive, which holds
// only on runs nothing observes) is not an activation: it counts in
// none of Raises, SyncRaises, HandlersRun or Locks.
type Counters struct {
	Raises       atomic.Int64 // all activations (any mode)
	SyncRaises   atomic.Int64
	AsyncRaises  atomic.Int64
	TimedRaises  atomic.Int64
	Generic      atomic.Int64 // activations via the generic path
	FastRuns     atomic.Int64 // activations via an installed fast path
	Fallbacks    atomic.Int64 // fast-path guard failures
	SegFallbacks atomic.Int64 // partitioned per-segment fallbacks (Fig. 14)
	Indirect     atomic.Int64 // indirect handler calls on the generic path
	Marshals     atomic.Int64 // argument records built
	ArgResolves  atomic.Int64 // per-handler parameter resolutions
	Locks        atomic.Int64 // state-maintenance lock acquisitions
	HandlersRun  atomic.Int64 // total handler bodies executed (both paths)

	// Async chain-merging counters (coalesce.go). The X-domain pair
	// counts cross-domain captures: raises of covered segments owned by
	// another domain, captured into that domain's continuation FIFO (or
	// enqueued there when its guard failed). Both are credited to the
	// raising domain, like Coalesced/CoalesceFallbacks.
	Coalesced         atomic.Int64 // async raises captured as pending continuations
	CoalesceFallbacks atomic.Int64 // coalesce attempts that fell back to a real enqueue
	XDomainHandoffs   atomic.Int64 // cross-domain raises captured into the target's continuation FIFO
	XDomainFallbacks  atomic.Int64 // cross-domain captures that fell back to a real enqueue

	// Supervision counters (fault.go). All zero under the default
	// Propagate policy with an unbounded queue.
	PanicsRecovered atomic.Int64 // handler panics recovered (Isolate/Quarantine)
	Retries         atomic.Int64 // faulted async activations re-enqueued
	Quarantines     atomic.Int64 // circuit-breaker trips
	Reinstates      atomic.Int64 // quarantined bindings re-admitted
	Deopts          atomic.Int64 // super-handlers auto-uninstalled after a fault
	DeadLetters     atomic.Int64 // activations that exhausted their retry budget
	QueueDrops      atomic.Int64 // activations dropped/rejected by a bounded queue
}

// StatsSnapshot is a coherent copy of the counters: every atomic is
// loaded exactly once, so derived quantities (fast-path share, fallback
// rate) are internally consistent even when taken mid-load. Derived
// lines in Summary and the -stats reports of the tools are computed
// from one snapshot, never from repeated live loads. Its fields are
// Counters' fields, by name and in order (TestCountersFieldList).
type StatsSnapshot struct {
	Raises, SyncRaises, AsyncRaises, TimedRaises int64
	Generic, FastRuns, Fallbacks, SegFallbacks   int64
	Indirect, Marshals, ArgResolves, Locks       int64
	HandlersRun                                  int64
	Coalesced, CoalesceFallbacks                 int64
	XDomainHandoffs, XDomainFallbacks            int64
	PanicsRecovered, Retries, Quarantines        int64
	Reinstates, Deopts, DeadLetters, QueueDrops  int64
}

// numCounters is the length of the one field list Counters and
// StatsSnapshot share; the array views below index it.
const numCounters = unsafe.Sizeof(StatsSnapshot{}) / 8

// Both structs are nothing but that list, so each is laid out exactly
// as an array of it. A field added to one and not the other breaks the
// build here.
var _ [unsafe.Sizeof(Counters{}) - unsafe.Sizeof(StatsSnapshot{})]struct{}
var _ [unsafe.Sizeof(StatsSnapshot{}) - unsafe.Sizeof(Counters{})]struct{}

func (c *Counters) cells() *[numCounters]atomic.Int64 {
	return (*[numCounters]atomic.Int64)(unsafe.Pointer(c))
}

func (s *StatsSnapshot) cells() *[numCounters]int64 {
	return (*[numCounters]int64)(unsafe.Pointer(s))
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	for i := range c.cells() {
		c.cells()[i].Store(0)
	}
}

// Snapshot loads every counter once and returns the copies.
func (c *Counters) Snapshot() (s StatsSnapshot) {
	for i := range c.cells() {
		s.cells()[i] = c.cells()[i].Load()
	}
	return s
}

// add accumulates o into s field by field.
func (s *StatsSnapshot) add(o StatsSnapshot) {
	for i, v := range o.cells() {
		s.cells()[i] += v
	}
}

// FastShare is the fraction of dispatched activations that took an
// installed fast path, in [0,1]; it reports 0 when nothing dispatched.
func (s StatsSnapshot) FastShare() float64 {
	total := s.Generic + s.FastRuns
	if total == 0 {
		return 0
	}
	return float64(s.FastRuns) / float64(total)
}

// Summary renders the snapshot as a human-readable report.
func (s StatsSnapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "raises        %8d (sync %d, async %d, timed %d)\n",
		s.Raises, s.SyncRaises, s.AsyncRaises, s.TimedRaises)
	fmt.Fprintf(&b, "dispatch      %8d generic, %d fast, %d fallbacks, %d seg-fallbacks (fast share %.1f%%)\n",
		s.Generic, s.FastRuns, s.Fallbacks, s.SegFallbacks, 100*s.FastShare())
	fmt.Fprintf(&b, "overheads     %8d indirect, %d marshals, %d arg-resolves, %d locks\n",
		s.Indirect, s.Marshals, s.ArgResolves, s.Locks)
	fmt.Fprintf(&b, "handlers run  %8d\n", s.HandlersRun)
	fmt.Fprintf(&b, "coalesce      %8d merged async raises, %d enqueue fallbacks\n",
		s.Coalesced, s.CoalesceFallbacks)
	fmt.Fprintf(&b, "x-domain      %8d handoffs, %d enqueue fallbacks\n",
		s.XDomainHandoffs, s.XDomainFallbacks)
	fmt.Fprintf(&b, "faults        %8d recovered, %d retries, %d quarantines, %d reinstates\n",
		s.PanicsRecovered, s.Retries, s.Quarantines, s.Reinstates)
	fmt.Fprintf(&b, "degradation   %8d deopts, %d dead-letters, %d queue drops\n",
		s.Deopts, s.DeadLetters, s.QueueDrops)
	return b.String()
}

// Summary renders the counters as a human-readable report (one line per
// group); cmd/evprof prints it after a workload run. The counters are
// snapshotted once so the derived fast-path share cannot mix values from
// different instants mid-load.
func (c *Counters) Summary() string {
	return c.Snapshot().Summary()
}

// System is an event runtime instance: registry, clock, and one or more
// event domains. A domain is an independent scheduling shard — run
// queue, timer heap, atomicity lock and fault supervisor — and events
// are assigned to domains by affinity (hash of the ID by default,
// explicit via PinEvent). With the default single domain the system
// behaves exactly like the historical serialized runtime; with N>1
// domains, activations of events in different domains execute
// concurrently while the registry stays lock-free for readers.
type System struct {
	mu      sync.Mutex // guards registry writes (the publish side)
	events  []*eventRec
	byName  map[string]ID
	bindSeq uint64

	table atomic.Pointer[[]*eventRec]   // lock-free ID -> record table
	names atomic.Pointer[map[string]ID] // lock-free name -> ID table

	noPool bool // test hook: disable activation pooling (oracle runs)

	domains []*Domain
	batchK  int // Run-loop drain batch cap (WithBatchDrain; <=1: unbatched)

	clock   Clock
	sched   SchedHook // scheduling observer seam; nil in production
	trc     atomic.Pointer[tracerRef]
	fault   faultShared // shared supervision config (fault.go)
	haltErr func(error) // reporter for raise errors on async paths

	obs   *telemetry.Stream    // observation stream shared by tel and spans; nil when both are off
	tel   *telemetry.Telemetry // live observability layer; nil unless enabled
	spans *span.Collector      // causal span tracing; nil unless enabled
	slo   *telemetry.Watchdog  // SLO burn-rate watchdog; nil unless enabled

	sloEvent ID // the synthetic slo.breach event (when the watchdog is on)

	wantDomains  int            // WithDomains value, consumed by New
	wantQcap     int            // queue bound remembered for domain creation
	wantQpolicy  OverflowPolicy // overflow policy remembered for domain creation
	wantTel      bool           // WithTelemetry requested, consumed by New
	wantTelCfg   telemetry.Config
	wantSpans    bool // WithSpanTracing requested, consumed by New
	wantSpanCfg  span.Config
	wantSLO      bool // WithSLOWatchdog requested, consumed by New
	wantSLOCfg   telemetry.SLOConfig
	wantAdaptive any // WithAdaptiveOptimizer policy, consumed by the facade
}

// tracerRef boxes the installed Tracer so it can swap atomically.
type tracerRef struct{ t Tracer }

// Option configures a System.
type Option func(*System)

// WithClock selects the clock; the default is a real monotonic clock.
// Supply NewVirtualClock() for deterministic scheduling.
func WithClock(c Clock) Option {
	return func(s *System) { s.clock = c }
}

// WithErrorReporter installs a callback invoked when an asynchronous or
// timed activation targets an unknown/deleted event. The default ignores
// such activations (an event with no handlers is ignored per the model).
func WithErrorReporter(f func(error)) Option {
	return func(s *System) { s.haltErr = f }
}

// WithDomains shards the system into n event domains (n < 1 is treated
// as 1). Each domain owns its run queue, timer heap, atomicity lock and
// quarantine state; events are spread over domains by ID hash unless
// pinned. The default is one domain, which preserves the fully
// serialized, deterministic behavior of the historical runtime.
func WithDomains(n int) Option {
	return func(s *System) { s.wantDomains = n }
}

// defaultBatchK is the Run loop's drain batch cap when WithBatchDrain is
// not given.
const defaultBatchK = 64

// WithBatchDrain sets the drain batch cap K (default 64): each domain's
// Run loop pops up to K runnable activations per queue-lock acquisition,
// and each activation of a batch runs exactly as it would alone. A pop
// that finds at most one continuation or queued activation pending takes
// just one, exactly as K = 1 would, so a one-item-in-flight pipeline
// pays nothing for the cap. K <= 1 keeps the one-activation-per-
// acquisition loop (K <= 0 is clamped to unbatched). Step, Drain and
// DrainBatched take their batch size from the call, not from this
// option: deterministic single-step sweeps stay byte-identical to the
// unbatched runtime.
func WithBatchDrain(k int) Option {
	return func(s *System) { s.batchK = max(k, 0) }
}

// New creates an empty event system.
func New(opts ...Option) *System {
	s := &System{
		byName: make(map[string]ID),
		clock:  NewRealClock(),
		batchK: defaultBatchK,
	}
	for _, opt := range opts {
		opt(s)
	}
	n := s.wantDomains
	if n < 1 {
		n = 1
	}
	s.domains = make([]*Domain, n)
	for i := range s.domains {
		s.domains[i] = newDomain(s, i)
	}
	if s.wantQcap > 0 {
		s.SetQueueBound(s.wantQcap, s.wantQpolicy)
	}
	if s.wantAdaptive != nil {
		// The adaptive controller plans from the live telemetry graph.
		s.wantTel = true
	}
	if s.wantSLO {
		// The watchdog burns against the telemetry histograms.
		s.wantTel = true
	}
	if s.wantTel || s.wantSpans {
		s.obs = telemetry.NewStream(n, s.wantTelCfg.RingSize)
	}
	if s.wantTel {
		s.tel = telemetry.New(s.obs, s.wantTelCfg)
	}
	if s.wantSpans {
		s.spans = span.NewCollector(s.obs, s.wantSpanCfg)
	}
	if s.wantSLO {
		s.initSLO()
	}
	return s
}

// SetTracer installs (or removes, with nil) the instrumentation hook.
func (s *System) SetTracer(t Tracer) {
	if t == nil {
		s.trc.Store(nil)
		return
	}
	s.trc.Store(&tracerRef{t: t})
}

// tracer returns the installed Tracer (nil if none), lock-free.
func (s *System) tracer() Tracer {
	if ref := s.trc.Load(); ref != nil {
		return ref.t
	}
	return nil
}

// TracerInstalled reports whether a tracer is active.
func (s *System) TracerInstalled() bool { return s.tracer() != nil }

// Stats exposes the runtime counters. Counters are kept per domain (each
// domain increments only its own set, so sharded dispatch never contends
// on a shared counter cache line); on a single-domain system Stats
// returns that domain's live counters, preserving the historical
// behavior (including Stats().Reset()). On a multi-domain system it
// returns a freshly aggregated copy — read-only in effect; use
// ResetStats to zero a sharded system and DomainStats for one shard.
func (s *System) Stats() *Counters {
	if len(s.domains) == 1 {
		return &s.domains[0].stats
	}
	agg := &Counters{}
	snap := s.StatsAggregate()
	for i, v := range snap.cells() {
		agg.cells()[i].Store(v)
	}
	return agg
}

// StatsAggregate returns one snapshot summed over all domains.
func (s *System) StatsAggregate() StatsSnapshot {
	var snap StatsSnapshot
	for _, d := range s.domains {
		snap.add(d.stats.Snapshot())
	}
	return snap
}

// DomainStats returns the counter snapshot of one domain (zero for an
// out-of-range index).
func (s *System) DomainStats(dom int) StatsSnapshot {
	if dom < 0 || dom >= len(s.domains) {
		return StatsSnapshot{}
	}
	return s.domains[dom].stats.Snapshot()
}

// ResetStats zeroes the counters of every domain.
func (s *System) ResetStats() {
	for _, d := range s.domains {
		d.stats.Reset()
	}
}

// StatsSummary renders the aggregate counter report and, on a sharded
// system, a per-domain breakdown line for each domain (domains were the
// main blind spot of the flat Summary).
func (s *System) StatsSummary() string {
	agg := s.StatsAggregate()
	if len(s.domains) == 1 {
		return agg.Summary()
	}
	var b strings.Builder
	b.WriteString(agg.Summary())
	for i, d := range s.domains {
		ds := d.stats.Snapshot()
		fmt.Fprintf(&b, "domain %-2d     %8d raises (sync %d, async %d, timed %d), %d generic, %d fast, %d handlers, %d faults, %d quarantines, %d drops\n",
			i, ds.Raises, ds.SyncRaises, ds.AsyncRaises, ds.TimedRaises,
			ds.Generic, ds.FastRuns, ds.HandlersRun, ds.PanicsRecovered, ds.Quarantines, ds.QueueDrops)
	}
	return b.String()
}

// Clock returns the system clock.
func (s *System) Clock() Clock { return s.clock }

// Now returns the current time on the system clock.
func (s *System) Now() Duration { return s.clock.Now() }
