package main

import (
	"time"

	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/hirrt"
	"eventopt/internal/profile"
	"eventopt/internal/trace"
)

// Execution tiers of the twin sweep on video and seccomm. tierInterp is
// the workload's own configuration.
const (
	tierGeneric   = iota // no plan: every raise takes generic dispatch
	tierInterp           // the profiled plan, fused bodies run by the HIR interpreter
	tierClosure          // the same plan, fused bodies compiled to closures
	tierGenerated        // the ahead-of-time generated super-handlers
	numTiers
)

// profiled reports whether a tier plans from its own profiling run.
func profiled(tier int) bool { return tier == tierInterp || tier == tierClosure }

// planInstall analyzes a profiling run's trace, plans with opts and
// installs the plan, adding each stage's time and size to info.
func planInstall(sys *event.System, mod *hirrt.Module, rec *trace.Recorder, opts core.Options, info *setupInfo) error {
	entries := rec.Entries()
	info.Entries += len(entries)
	t := time.Now()
	prof, err := profile.Analyze(entries)
	if err != nil {
		return err
	}
	info.Analyze += time.Since(t)
	t = time.Now()
	plan, err := core.BuildPlan(sys, prof, opts)
	if err != nil {
		return err
	}
	info.Plan += time.Since(t)
	t = time.Now()
	ins, err := plan.Install(sys, mod)
	if err != nil {
		return err
	}
	info.Install += time.Since(t)
	info.Supers += len(ins.Supers)
	return nil
}

// interleave runs rounds in which every twin runs one block, each round
// starting from the next twin, so drift in machine load reaches all twins
// alike. It returns each twin's median block time in ns.
func interleave(twins, rounds int, block func(twin int)) []float64 {
	times := make([][]float64, twins)
	for r := 0; r < rounds; r++ {
		for k := 0; k < twins; k++ {
			j := (r + k) % twins
			t := time.Now()
			block(j)
			times[j] = append(times[j], float64(time.Since(t)))
		}
	}
	med := make([]float64, twins)
	for j := range times {
		med[j] = median(times[j])
	}
	return med
}

// tierSweep builds one twin per tier, drives them with the same op stream
// in interleaved blocks of block ops, and checks every tier's outputs
// against the generic tier's. build returns a twin's op and the output
// digests its ops append to. It returns the tier metrics, the ops run and
// the ops whose outputs disagreed.
func tierSweep(block int, build func(tier int) (op func(), outputs *[]uint64, err error)) (map[string]float64, int, int, error) {
	var ops [numTiers]func()
	var outs [numTiers]*[]uint64
	for tier := range ops {
		var err error
		if ops[tier], outs[tier], err = build(tier); err != nil {
			return nil, 0, 0, err
		}
	}
	ns := interleave(numTiers, sweepRounds, func(tier int) {
		for i := 0; i < block; i++ {
			ops[tier]()
		}
	})
	us := make([]float64, numTiers)
	failed := 0
	for tier := range ops {
		us[tier] = ns[tier] / float64(block) / 1e3
		failed += mismatches(*outs[tierGeneric], *outs[tier])
	}
	return tierMetrics(us), numTiers * sweepRounds * block, failed, nil
}

// tierMetrics names the per-op time of each tier, in µs, and the share of
// the generic op time the interpreter tier saves: the paper's §1 claim
// that dispatch is up to 20% of run time.
func tierMetrics(us []float64) map[string]float64 {
	m := map[string]float64{
		"event.tier_generic_op_us": us[tierGeneric],
		"hir.interp_op_us":         us[tierInterp],
		"hir.closure_op_us":        us[tierClosure],
		"codegen.generated_op_us":  us[tierGenerated],
	}
	if us[tierGeneric] > 0 {
		m["hir.dispatch_share"] = (us[tierGeneric] - us[tierInterp]) / us[tierGeneric]
	}
	return m
}

// mismatches counts the positions where got differs from want, over the
// shorter of the two.
func mismatches(want, got []uint64) int {
	n := 0
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			n++
		}
	}
	return n
}
