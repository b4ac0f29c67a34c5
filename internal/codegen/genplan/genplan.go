// Package genplan builds the deterministic golden plans evgen generates
// code from. Each recipe constructs a fresh workload system, profiles
// it with the same drive pattern the benchmarks use, and stops at
// core.BuildPlan (no install): the caller either feeds the plan to the
// code generator (evgen) or rebuilds it at runtime to compare tiers.
//
// The workloads run on virtual clocks with fixed inputs, so the same
// recipe always yields the same trace, the same profile, and therefore
// the same plan — which is what makes the checked-in generated sources
// reproducible byte-for-byte.
package genplan

import (
	"fmt"

	"eventopt/internal/core"
	"eventopt/internal/ctp"
	"eventopt/internal/profile"
	"eventopt/internal/seccomm"
	"eventopt/internal/trace"
	"eventopt/internal/video"
)

// Workloads lists the recipe names evgen accepts.
var Workloads = []string{"seccomm", "videoplayer"}

// SecCommEndpoint constructs the canonical seccomm endpoint used by the
// generation recipe (the Fig. 12 configuration).
func SecCommEndpoint() (*seccomm.Endpoint, error) {
	return seccomm.New(seccomm.Config{
		DESKey: []byte("8bytekey"),
		XORKey: []byte{0x5A, 0xA5, 0x3C},
		IV:     []byte("initvect"),
	})
}

// SecCommPlan profiles e with the Fig. 12 drive pattern (one priming
// push, then 50 push/pop rounds of a 256-byte message) and returns the
// full-fusion plan. The priming raises run untraced, so calling this on
// a to-be-traced endpoint perturbs nothing but protocol state — both
// tiers of the trace-equivalence test prime identically.
func SecCommPlan(e *seccomm.Endpoint) (*core.Plan, error) {
	msg := make([]byte, 256)
	var pkt []byte
	e.OnSend(func(p []byte) { pkt = append([]byte(nil), p...) })
	e.Push(msg)
	if pkt == nil {
		return nil, fmt.Errorf("genplan: seccomm push produced no packet")
	}
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	e.Sys.SetTracer(rec)
	for i := 0; i < 50; i++ {
		e.Push(msg)
		e.HandlePacket(pkt)
	}
	e.Sys.SetTracer(nil)
	e.OnSend(nil)
	prof, err := profile.Analyze(rec.Entries())
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.MergeAll = true
	opts.FullFusion = true
	opts.Partitioned = false
	return core.BuildPlan(e.Sys, prof, opts)
}

// VideoPlayer constructs the canonical video player used by the
// generation recipe (the Fig. 11 configuration).
func VideoPlayer() (*video.Player, error) {
	return video.NewPlayer(ctp.DefaultConfig(), 25, 900)
}

// VideoPlan profiles p over 200 frames (the Fig. 11 profiling run) and
// returns the default partitioned plan.
func VideoPlan(p *video.Player) (*core.Plan, error) {
	prof, err := p.Profile(200)
	if err != nil {
		return nil, err
	}
	return core.BuildPlan(p.Sender.Sys, prof, core.DefaultOptions())
}
