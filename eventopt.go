// Package eventopt is a profile-directed optimizer for event-based
// programs, reproducing "Profile-Directed Optimization of Event-Based
// Programs" (Rajagopalan, Debray, Hiltunen, Schlichting; PLDI 2002).
//
// The package ties the pieces together behind one façade:
//
//   - an event runtime in the Cactus mold (events, handlers, dynamic
//     bindings, synchronous/asynchronous/timed activation),
//   - trace-based event and handler profiling (event graphs, reduced
//     graphs, event paths and chains),
//   - the optimizer: handler merging into super-handlers, event-chain
//     subsumption, HIR fusion with compiler passes (inlining, constant
//     propagation, CSE, DCE), installed behind binding-version guards
//     with whole-chain or per-event (partitioned) fallback.
//
// Typical use:
//
//	app := eventopt.New()
//	ev := app.Sys.Define("request")
//	app.Sys.Bind(ev, "audit", auditHandler)
//	app.Sys.Bind(ev, "serve", serveHandler)
//
//	app.StartProfiling()
//	runRepresentativeWorkload(app)
//	prof, _ := app.StopProfiling()
//
//	plan, handle, _ := app.Optimize(prof, eventopt.DefaultOptions())
//	_ = plan // inspect with plan.Describe(app.Sys)
//	// ... hot events now dispatch through super-handlers ...
//	handle.Uninstall() // back to fully generic dispatch
package eventopt

import (
	"errors"
	"io"
	"net/http"

	"eventopt/internal/adaptive"
	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/hirrt"
	"eventopt/internal/profile"
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
	"eventopt/internal/telemetry/httpdebug"
	"eventopt/internal/trace"
)

// Re-exported types: the runtime, profile and optimizer vocabulary.
type (
	// System is the event runtime (registry + scheduler).
	System = event.System
	// Ctx is the per-activation handler context.
	Ctx = event.Ctx
	// HandlerFunc is the signature of event handlers.
	HandlerFunc = event.HandlerFunc
	// ID identifies an event.
	ID = event.ID
	// Arg is one named raise argument.
	Arg = event.Arg
	// Options configures the optimizer.
	Options = core.Options
	// Plan is the optimizer's chosen set of super-handlers.
	Plan = core.Plan
	// Installed is the handle over installed super-handlers.
	Installed = core.Installed
	// Profile is an analyzed event/handler profile.
	Profile = profile.Profile
	// Module groups the HIR execution context of one component.
	Module = hirrt.Module
	// FaultPolicy selects the runtime's response to handler panics.
	FaultPolicy = event.FaultPolicy
	// FaultConfig tunes panic isolation and the quarantine breaker.
	FaultConfig = event.FaultConfig
	// RetryConfig tunes async retry with backoff and dead-lettering.
	RetryConfig = event.RetryConfig
	// FaultInfo describes one recovered handler panic.
	FaultInfo = event.FaultInfo
	// OverflowPolicy selects bounded-queue overflow behavior.
	OverflowPolicy = event.OverflowPolicy
	// TelemetryConfig tunes the live telemetry layer (see WithTelemetry).
	TelemetryConfig = telemetry.Config
	// FlightDump is one automatic flight-recorder capture.
	FlightDump = telemetry.FlightDump
	// FlightRecord is one activation in the flight recorder.
	FlightRecord = telemetry.FlightRecord
	// EventTelemetry is the histogram snapshot of one (event, domain) cell.
	EventTelemetry = telemetry.EventSnapshot
	// AdaptivePolicy tunes the adaptive online optimizer (see
	// WithAdaptiveOptimizer). The zero value selects sensible defaults.
	AdaptivePolicy = adaptive.Policy
	// AdaptiveController is the running adaptive optimizer of one App.
	AdaptiveController = adaptive.Controller
	// OptimizerSnapshot is the adaptive controller's published state.
	OptimizerSnapshot = telemetry.OptimizerSnapshot
	// SpanConfig tunes causal span tracing (see WithSpanTracing).
	SpanConfig = span.Config
	// Span is one recorded hop of a sampled trace.
	Span = span.Span
	// SLOConfig configures the SLO watchdog (see WithSLOWatchdog).
	SLOConfig = telemetry.SLOConfig
	// SLOObjective is one latency service-level objective.
	SLOObjective = telemetry.SLOObjective
	// SLOBreach is one fired watchdog alert.
	SLOBreach = telemetry.SLOBreach
)

// Fault policies (see event.FaultPolicy). Propagate is the default.
const (
	Propagate  = event.Propagate
	Isolate    = event.Isolate
	Quarantine = event.Quarantine
)

// Bounded-queue overflow policies (see event.OverflowPolicy).
const (
	DropOldest = event.DropOldest
	DropNewest = event.DropNewest
	RejectNew  = event.RejectNew
)

// BindOption configures a Bind call.
type BindOption = event.BindOption

// A builds a named argument (shorthand for raise calls).
func A(name string, val any) Arg { return event.A(name, val) }

// WithOrder sets a handler's execution order (lower runs first).
func WithOrder(order int) BindOption { return event.WithOrder(order) }

// WithParams declares the parameters a handler expects from the raise.
func WithParams(names ...string) BindOption { return event.WithParams(names...) }

// WithBindArgs attaches static bind-time arguments to the binding.
func WithBindArgs(args ...Arg) BindOption { return event.WithBindArgs(args...) }

// DefaultOptions enables the full optimization stack.
func DefaultOptions() Options { return core.DefaultOptions() }

// SystemOption configures the runtime at construction.
type SystemOption = event.Option

// WithVirtualClock runs the app on a deterministic virtual clock (timed
// events fire by advancing simulated time in Drain).
func WithVirtualClock() SystemOption {
	return event.WithClock(event.NewVirtualClock())
}

// WithFaultConfig installs a supervision configuration: panic isolation
// (Isolate) or isolation plus a per-binding quarantine circuit breaker
// with backoff re-admission (Quarantine). With a policy set, a panic in
// optimized code additionally auto-deoptimizes the faulting
// super-handler and replays the activation through generic dispatch.
func WithFaultConfig(cfg FaultConfig) SystemOption { return event.WithFaultConfig(cfg) }

// WithFaultPolicy is WithFaultConfig with default tuning.
func WithFaultPolicy(p FaultPolicy) SystemOption { return event.WithFaultPolicy(p) }

// WithRetryConfig re-enqueues faulted asynchronous activations with
// capped exponential backoff and dead-letters exhausted ones.
func WithRetryConfig(cfg RetryConfig) SystemOption { return event.WithRetryConfig(cfg) }

// WithQueueBound bounds the asynchronous run queue (per domain).
func WithQueueBound(capacity int, policy OverflowPolicy) SystemOption {
	return event.WithQueueBound(capacity, policy)
}

// WithTelemetry enables the live observability layer: per-event latency
// and queue-delay histograms, a per-domain flight recorder dumped
// automatically on quarantine trips and dead-letters, and a sampled
// continuous event-graph feed that keeps System.Telemetry().Graph()
// current without a separate profiling run. The zero TelemetryConfig
// selects the defaults; the record paths stay allocation-free.
func WithTelemetry(cfg TelemetryConfig) SystemOption { return event.WithTelemetry(cfg) }

// WithSpanTracing enables causal span tracing: sampled root raises get
// a trace ID that propagates through nested raises, cross-domain async
// handoffs, coalesced continuations, batched drains, timer retries,
// dead-letter replays and post-deopt generic replays. Retained traces
// are served at /spans (JSON, ?format=chrome for a Chrome trace export)
// and rendered by evtop's span pane. The zero SpanConfig samples 1-in-16
// roots; the context rides as fixed-size words in the pooled activation
// records, so sync raises stay at 0 allocs/op with tracing on.
func WithSpanTracing(cfg SpanConfig) SystemOption { return event.WithSpanTracing(cfg) }

// WithSLOWatchdog attaches the SLO burn-rate watchdog (implies
// WithTelemetry): each tick evaluates the configured latency objectives
// against the histogram growth since the previous tick, and a burn rate
// at or above the threshold dumps the affected domain's flight ring and
// raises a synthetic "slo.breach" event — bind a handler to it to
// alert or shed load. Drive ticks with Sys.SLO().Start(interval) or
// explicit Sys.SLO().Tick() calls.
func WithSLOWatchdog(cfg SLOConfig) SystemOption { return event.WithSLOWatchdog(cfg) }

// WithAdaptiveOptimizer attaches the closed-loop adaptive optimizer:
// a background controller that periodically lifts the live telemetry
// graph into the offline planning machinery (reduce, hot paths, chain
// subsumption), installs super-handlers for the currently-hot events,
// and demotes them when the workload shifts. It implies WithTelemetry;
// New starts the controller's background loop, and App.Adaptive exposes
// it (Stop/Uninstall/Close, manual Tick for tests). The offline
// profile→optimize workflow (StartProfiling / Optimize) remains the
// paper-faithful path; the adaptive layer reuses it online.
func WithAdaptiveOptimizer(p AdaptivePolicy) SystemOption {
	return event.WithAdaptiveOptimizer(p)
}

// WithDomains shards the runtime into n event domains. Each domain owns
// its own run queue, timer heap, atomicity lock and quarantine state;
// events spread over domains by ID hash unless pinned with
// System.PinEvent. The default single domain preserves the fully
// deterministic serialized runtime; with n > 1, activations of events in
// different domains execute in parallel under System.Run.
func WithDomains(n int) SystemOption { return event.WithDomains(n) }

// WithBatchDrain makes the domain run loops of System.Run pop up to k
// runnable activations per queue-lock acquisition; each popped
// activation then runs exactly as it would alone. Step and Drain stay
// strictly single-step, and System.DrainBatched takes its batch size
// from its argument. k < 2 leaves draining unbatched.
func WithBatchDrain(k int) SystemOption { return event.WithBatchDrain(k) }

// App is one event-based application: a runtime plus its HIR module and
// an optional live profiling session.
type App struct {
	Sys *System
	Mod *Module

	rec      *trace.Recorder
	adaptive *AdaptiveController
}

// New creates an application with a fresh runtime. When the runtime was
// configured with WithAdaptiveOptimizer, the adaptive controller is
// created here (the facade owns the HIR module it fuses against) and its
// background loop started.
func New(opts ...SystemOption) *App {
	sys := event.New(opts...)
	app := &App{Sys: sys, Mod: hirrt.NewModule(sys)}
	if pol, ok := sys.AdaptivePolicy().(adaptive.Policy); ok {
		// New cannot fail here: WithAdaptiveOptimizer implied telemetry.
		if c, err := adaptive.Start(sys, app.Mod, pol); err == nil {
			app.adaptive = c
		}
	}
	return app
}

// Adaptive returns the running adaptive controller, or nil when the app
// was built without WithAdaptiveOptimizer.
func (a *App) Adaptive() *AdaptiveController { return a.adaptive }

// Close stops background machinery: the adaptive controller's loop is
// halted and its installs evicted. Apps without adaptive optimization
// need no Close.
func (a *App) Close() {
	if a.adaptive != nil {
		a.adaptive.Close()
	}
}

// StartProfiling begins recording events and handler activity (the
// paper's instrumented execution). It replaces any previous recording.
func (a *App) StartProfiling() {
	a.rec = trace.NewRecorder()
	a.rec.EnableHandlerProfiling()
	a.Sys.SetTracer(a.rec)
}

// ErrNotProfiling is returned by StopProfiling without StartProfiling.
var ErrNotProfiling = errors.New("eventopt: StopProfiling without StartProfiling")

// StopProfiling ends the recording and analyzes it into a Profile.
func (a *App) StopProfiling() (*Profile, error) {
	if a.rec == nil {
		return nil, ErrNotProfiling
	}
	a.Sys.SetTracer(nil)
	entries := a.rec.Entries()
	a.rec = nil
	return profile.Analyze(entries)
}

// Optimize plans super-handlers from a profile and installs them.
func (a *App) Optimize(prof *Profile, opts Options) (*Plan, *Installed, error) {
	return core.Apply(a.Sys, prof, a.Mod, opts)
}

// DebugHandler returns the HTTP observability surface of the app:
// /metrics (counters + telemetry snapshots), /metrics.prom (Prometheus
// text exposition), /events (per-event histogram document, the evtop
// feed), /graph (live sampled event graph as Graphviz DOT, ?threshold=
// reduces), /flightrecorder (automatic flight dumps), /spans (causal
// span traces, ?format=chrome for a Chrome trace export), /trace
// (Chrome trace-event JSON of the current profiling recording) and
// /debug/pprof. Mount it on a mux or serve it directly:
//
//	go http.ListenAndServe("localhost:6060", app.DebugHandler())
//
// The handler captures the profiling recorder active at call time, so
// call it after StartProfiling when /trace should serve the recording;
// telemetry endpoints require WithTelemetry (404 otherwise) while
// /metrics always serves the runtime counters.
func (a *App) DebugHandler() http.Handler { return httpdebug.New(a.Sys, a.rec) }

// WriteChromeTrace exports the in-progress profiling recording as
// Chrome trace-event JSON (loadable in chrome://tracing or Perfetto):
// one timeline per event domain, a complete-duration slice per
// activation with nested handler slices when handler profiling is on.
// It snapshots the recorder between StartProfiling and StopProfiling.
func (a *App) WriteChromeTrace(w io.Writer) error {
	if a.rec == nil {
		return ErrNotProfiling
	}
	return trace.WriteChrome(w, a.rec.Entries())
}

// ProfileTwoPhase implements the paper's two-phase profiling workflow
// (section 3.1): the workload first runs under event-level
// instrumentation only; the event graph is reduced by threshold (0
// selects an automatic tenth-of-max) to find the hot events; then the
// workload runs again with handler-level instrumentation enabled for
// exactly those events. The returned profile carries full handler detail
// where it matters and stays small everywhere else. The workload must be
// repeatable — the paper's programs were run "enough times to develop an
// adequate profile".
func (a *App) ProfileTwoPhase(workload func(), threshold int) (*Profile, error) {
	// Phase 1: events only.
	rec1 := trace.NewRecorder()
	a.Sys.SetTracer(rec1)
	workload()
	a.Sys.SetTracer(nil)
	p1, err := profile.Analyze(rec1.Entries())
	if err != nil {
		return nil, err
	}
	t := threshold
	if t <= 0 {
		t = core.AutoThreshold(p1.Graph)
	}
	hot := p1.Graph.Reduce(t).Nodes()
	if len(hot) == 0 {
		return p1, nil // nothing hot: the event-level profile is all there is
	}

	// Phase 2: handler instrumentation for the hot events only.
	rec2 := trace.NewRecorder()
	rec2.EnableHandlerProfiling(hot...)
	a.Sys.SetTracer(rec2)
	workload()
	a.Sys.SetTracer(nil)
	return profile.Analyze(rec2.Entries())
}
