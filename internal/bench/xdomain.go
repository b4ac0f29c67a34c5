package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"eventopt/internal/event"
)

// XDomainGateSpeedup is the CI budget for the merged cross-domain
// pipeline: continuation handoff must beat the enqueue-per-link route
// by at least this factor.
const XDomainGateSpeedup = 1.15

// XDomainAdaptivePct is the drain-rule budget: the default Run loop
// (no WithBatchDrain, each pop sized from the backlog up to the default
// cap) must drain a backlog within this percentage of the best static
// batch size.
const XDomainAdaptivePct = 15.0

// KRow is one static point of the batch-size sweep.
type KRow struct {
	K   int     `json:"k"`
	EPS float64 `json:"events_per_sec"`
}

// XDomainReport is the serializable result of RunXDomain (uploaded by
// CI as BENCH_xdomain.json): the merged-vs-enqueue pipeline comparison,
// the default-vs-static batch-size sweep, and the sync-raise allocation
// check with coalescing enabled.
type XDomainReport struct {
	CPUs        int     `json:"cpus"`
	Hops        int     `json:"pipeline_hops"`
	PipelineOps int     `json:"pipeline_ops"`
	UnmergedNs  float64 `json:"pipeline_unmerged_ns_per_op"`
	MergedNs    float64 `json:"pipeline_merged_ns_per_op"`
	PipelineX   float64 `json:"pipeline_speedup"` // unmerged / merged
	GateSpeedup float64 `json:"gate_speedup"`

	StaticRows    []KRow  `json:"static_rows"`
	BestStaticK   int     `json:"best_static_k"`
	BestStaticEPS float64 `json:"best_static_eps"`
	DefaultEPS    float64 `json:"default_eps"`
	// DefaultVsBestPct is (default/best - 1)*100; the gate requires it
	// to stay above -XDomainAdaptivePct.
	DefaultVsBestPct float64 `json:"default_vs_best_pct"`
	GatePct          float64 `json:"gate_pct"`

	RaiseAllocs float64 `json:"sync_raise_allocs_per_op"`
	Pass        bool    `json:"pass"`
}

// WriteJSON serializes the report (indented, trailing newline).
func (r *XDomainReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// xdomainHops is the pipeline depth: stages alternate domains, so every
// interior raise crosses a domain edge.
const xdomainHops = 6

// xdomainStageHandlers is the handler count per pipeline stage: two
// observers plus a forwarder, each declaring a parameter, so the
// generic route pays the paper's per-handler overheads (parameter
// resolution, state-lock traffic, bookkeeping) at every stage while the
// merged segment pays them once.
const xdomainStageHandlers = 3

// xdomainPipelineOp builds a pipeline of xdomainHops+1 stages that
// ping-pongs between two domains (stage i pinned to domain i%2), three
// handlers per stage: two observers and, on interior stages, a
// forwarder that raises the next stage asynchronously (the argument
// slice is hoisted so the steady-state op never allocates). The per-op
// driver raises the head synchronously and drains, so exactly one
// activation is in flight and every interior raise meets an idle target
// domain. With merged, one super-handler covers the whole pipeline with
// async-entry segments, so each cross-domain link is a continuation
// handoff instead of a ring enqueue+pop plus a fresh per-handler
// dispatch on the target.
func xdomainPipelineOp(merged bool) (func(), *event.System) {
	s := event.New(event.WithDomains(2))
	n := xdomainHops + 1
	evs := make([]event.ID, n)
	names := make([]string, n)
	for i := range evs {
		names[i] = fmt.Sprintf("stage%d", i)
		evs[i] = s.Define(names[i])
		if err := s.PinEvent(evs[i], i%2); err != nil {
			panic(err)
		}
	}
	args := []event.Arg{{Name: "n", Val: 7}}
	obsFn := func(ctx *event.Ctx) { parallelSink.Add(int64(ctx.Args.Int("n"))) }
	segs := make([]event.Segment, n)
	for i := range evs {
		last := obsFn
		lastName := "obs3"
		if i < n-1 {
			next := evs[i+1]
			last = func(ctx *event.Ctx) { ctx.RaiseAsync(next, args...) }
			lastName = "fwd"
		}
		s.Bind(evs[i], "obs1", obsFn, event.WithOrder(0), event.WithParams("n"))
		s.Bind(evs[i], "obs2", obsFn, event.WithOrder(1), event.WithParams("n"))
		s.Bind(evs[i], lastName, last, event.WithOrder(2), event.WithParams("n"))
		segs[i] = event.Segment{
			Event: evs[i], EventName: names[i], Version: s.Version(evs[i]),
			AsyncEntry: i > 0,
			Steps: []event.Step{
				{Event: evs[i], EventName: names[i], Handler: "obs1", Fn: obsFn},
				{Event: evs[i], EventName: names[i], Handler: "obs2", Fn: obsFn},
				{Event: evs[i], EventName: names[i], Handler: lastName, Fn: last},
			},
		}
	}
	if merged {
		if err := s.InstallFastPath(&event.SuperHandler{Entry: evs[0], Segments: segs}); err != nil {
			panic(err)
		}
	}
	return func() {
		_ = s.Raise(evs[0], args...)
		s.Drain()
	}, s
}

// RunXDomain measures the cross-domain continuation-handoff layer and
// the Run loop's drain rule. Three gates:
//
//  1. the merged pipeline (every link a cross-domain handoff) must beat
//     enqueue-per-link by XDomainGateSpeedup;
//  2. on a prefilled backlog, the default Run loop must come within
//     XDomainAdaptivePct of the best static K;
//  3. the driving sync raise must stay allocation-free with coalescing
//     and handoff enabled.
//
// Loaded CI machines get a few attempts at the timed gates; the best
// attempt counts.
func RunXDomain(w io.Writer, events int) (*XDomainReport, error) {
	rep := &XDomainReport{
		CPUs: runtime.NumCPU(), Hops: xdomainHops,
		GateSpeedup: XDomainGateSpeedup, GatePct: XDomainAdaptivePct,
	}

	pops := events / 10
	if pops < 1000 {
		pops = 1000
	}
	rep.PipelineOps = pops
	header(w, fmt.Sprintf("Cross-domain continuation handoff (%d-hop pipeline, 2 domains)", xdomainHops))
	for try := 0; try < 4; try++ {
		unm, _ := xdomainPipelineOp(false)
		mrg, ms := xdomainPipelineOp(true)
		dUn, dMg := measurePair(pops, unm, mrg)
		x := 0.0
		if dMg > 0 {
			x = float64(dUn) / float64(dMg)
		}
		if x > rep.PipelineX {
			rep.UnmergedNs = float64(dUn.Nanoseconds())
			rep.MergedNs = float64(dMg.Nanoseconds())
			rep.PipelineX = x
		}
		if st := ms.StatsAggregate(); st.XDomainHandoffs == 0 {
			return rep, fmt.Errorf("merged pipeline never handed off across domains")
		}
		if rep.PipelineX >= XDomainGateSpeedup {
			break
		}
	}
	fmt.Fprintf(w, "%-18s %12s\n", "Variant", "ns/op")
	fmt.Fprintf(w, "%-18s %12.1f\n", "enqueue-per-link", rep.UnmergedNs)
	fmt.Fprintf(w, "%-18s %12.1f\n", "handoff-merged", rep.MergedNs)
	fmt.Fprintf(w, "pipeline speedup: %.2fx (gate %.2fx)\n", rep.PipelineX, XDomainGateSpeedup)

	// Sync-raise allocations through the merged pipeline: warmed pools,
	// then the whole op (raise + drain of four handoffs) must be free.
	mrg, _ := xdomainPipelineOp(true)
	for i := 0; i < 100; i++ {
		mrg()
	}
	rep.RaiseAllocs = testing.AllocsPerRun(200, mrg)
	fmt.Fprintf(w, "sync raise with coalescing: %.2f allocs/op\n", rep.RaiseAllocs)

	const kDomains = 4
	header(w, fmt.Sprintf("Default drain vs static batch K (%d domains, prefilled backlog)", kDomains))
	fmt.Fprintf(w, "%-10s %16s\n", "Batch K", "ev/s")
	statics := []int{1, 16, 64, 128}
	for try := 0; try < 3; try++ {
		rows := make([]KRow, 0, len(statics))
		bestK, bestEPS := 0, 0.0
		for _, k := range statics {
			r := KRow{K: k, EPS: bestBatchEPS(kDomains, k, events)}
			rows = append(rows, r)
			if r.EPS > bestEPS {
				bestK, bestEPS = k, r.EPS
			}
		}
		def := bestBatchEPS(kDomains, 0, events)
		pct := 100 * (def - bestEPS) / bestEPS
		if rep.DefaultEPS == 0 || pct > rep.DefaultVsBestPct {
			rep.StaticRows, rep.BestStaticK, rep.BestStaticEPS = rows, bestK, bestEPS
			rep.DefaultEPS, rep.DefaultVsBestPct = def, pct
		}
		if rep.DefaultVsBestPct >= -XDomainAdaptivePct {
			break
		}
	}
	for _, r := range rep.StaticRows {
		fmt.Fprintf(w, "%-10d %16.0f\n", r.K, r.EPS)
	}
	fmt.Fprintf(w, "%-10s %16.0f  (%+.1f%% vs best static K=%d, gate -%.0f%%)\n",
		"default", rep.DefaultEPS, rep.DefaultVsBestPct, rep.BestStaticK, XDomainAdaptivePct)

	rep.Pass = rep.PipelineX >= XDomainGateSpeedup &&
		rep.DefaultVsBestPct >= -XDomainAdaptivePct &&
		rep.RaiseAllocs == 0
	if !rep.Pass {
		return rep, fmt.Errorf(
			"xdomain gate failed: pipeline %.2fx (want >= %.2fx), default %+.1f%% vs best static (want >= -%.0f%%), raise allocs %.2f (want 0)",
			rep.PipelineX, XDomainGateSpeedup, rep.DefaultVsBestPct, XDomainAdaptivePct, rep.RaiseAllocs)
	}
	return rep, nil
}
