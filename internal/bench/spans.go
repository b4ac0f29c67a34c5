package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"eventopt/internal/event"
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
)

// SpansReport is the serializable result of RunSpans (uploaded by CI as
// BENCH_spans.json). It records the sync-raise latency with the
// observability stack off, with telemetry only, and with telemetry plus
// span tracing at the default head-sampling rates.
type SpansReport struct {
	CPUs        int     `json:"cpus"`
	Ops         int     `json:"ops"`
	SampleEvery int     `json:"sample_every"`
	OffNs       float64 `json:"off_ns_per_raise"`
	TelemetryNs float64 `json:"telemetry_ns_per_raise"`
	SpansNs     float64 `json:"spans_ns_per_raise"`
	DeltaPct    float64 `json:"delta_pct"`    // telemetry+spans vs telemetry (gated)
	CombinedPct float64 `json:"combined_pct"` // telemetry+spans vs off (informational)
	GatePct     float64 `json:"gate_pct"`
	Pass        bool    `json:"pass"`
}

// WriteJSON serializes the report (indented, trailing newline).
func (r *SpansReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SpansGatePct is the CI budget: span tracing stacked on the telemetry
// layer may not slow the sync raise path by more than this percentage
// over the telemetry-only baseline (the telemetry layer's own cost has
// its own gate, TelemetryGatePct).
const SpansGatePct = 10.0

func spanSystems() (off, tel, spans func()) {
	args := []event.Arg{{Name: "n", Val: 7}, {Name: "s", Val: "x"}}
	handler := func(ctx *event.Ctx) { handlerSink += ctx.Args.Int("n") }

	plain := event.New()
	pev := plain.Define("hot")
	plain.Bind(pev, "h", handler, event.WithParams("n", "s"))

	tele := event.New(event.WithTelemetry(telemetry.Config{}))
	tev := tele.Define("hot")
	tele.Bind(tev, "h", handler, event.WithParams("n", "s"))

	// The shipped defaults: telemetry times 1-in-16 dispatches and span
	// tracing samples 1-in-16 roots. Head sampling is what keeps tracing
	// affordable — the fully-sampled path is gated for allocations (not
	// latency) in TestAllocRegression.
	both := event.New(
		event.WithTelemetry(telemetry.Config{}),
		event.WithSpanTracing(span.Config{}),
	)
	bev := both.Define("hot")
	both.Bind(bev, "h", handler, event.WithParams("n", "s"))

	return func() { _ = plain.Raise(pev, args...) },
		func() { _ = tele.Raise(tev, args...) },
		func() { _ = both.Raise(bev, args...) }
}

// RunSpans measures the latency cost of span tracing stacked on the
// telemetry layer and fails when the increment over the telemetry-only
// baseline exceeds SpansGatePct on the sync raise path. Measurement
// discipline follows RunTelemetry: alternating minimum-of-passes pairs
// cancel drift, and a failing comparison is retried with the best
// attempt reported.
func RunSpans(w io.Writer, ops int) (*SpansReport, error) {
	rep := &SpansReport{CPUs: runtime.NumCPU(), Ops: ops, SampleEvery: span.DefaultSampleEvery, GatePct: SpansGatePct}
	header(w, "Span tracing overhead (sync raise, telemetry + sampled spans)")

	const attempts = 5
	best := false
	for try := 0; try < attempts; try++ {
		off, tel, spans := spanSystems()
		dTel, dSpans := measurePair(ops, tel, spans)
		dOff, _ := measurePair(ops, off, tel)
		delta := 100 * (float64(dSpans) - float64(dTel)) / float64(dTel)
		if !best || delta < rep.DeltaPct {
			rep.OffNs = float64(dOff.Nanoseconds())
			rep.TelemetryNs = float64(dTel.Nanoseconds())
			rep.SpansNs = float64(dSpans.Nanoseconds())
			rep.DeltaPct = delta
			rep.CombinedPct = 100 * (float64(dSpans) - float64(dOff)) / float64(dOff)
			best = true
		}
		if rep.DeltaPct <= SpansGatePct {
			break
		}
	}
	rep.Pass = rep.DeltaPct <= SpansGatePct

	fmt.Fprintf(w, "%-20s %12s\n", "Variant", "ns/raise")
	fmt.Fprintf(w, "%-20s %12.1f\n", "observability off", rep.OffNs)
	fmt.Fprintf(w, "%-20s %12.1f\n", "telemetry only", rep.TelemetryNs)
	fmt.Fprintf(w, "%-20s %12.1f\n", "telemetry+spans", rep.SpansNs)
	fmt.Fprintf(w, "overhead: %+.1f%% over telemetry (gate %.0f%%), %+.1f%% over bare\n",
		rep.DeltaPct, rep.GatePct, rep.CombinedPct)
	if !rep.Pass {
		return rep, fmt.Errorf("span tracing overhead %.1f%% exceeds the %.0f%% gate", rep.DeltaPct, rep.GatePct)
	}
	return rep, nil
}
