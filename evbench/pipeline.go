package main

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"

	"eventopt/internal/adaptive"
	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
	"eventopt/internal/trace"
)

const (
	pipeStages       = 7
	pipeHandlers     = 3 // per stage: two observers and a forwarder
	pipePool         = 4096
	pipeProfileItems = 200
	pipeBurstWave    = 2048
	// pipeTickOps is how many items run between two controller ticks. A
	// count, not a wall-clock period, keeps the controller's work per item
	// the same however fast the machine runs.
	pipeTickOps       = 2048
	pipeRPCSweepBlock = 256
)

// stageDomain pins the stages: every hop either stays in a domain or
// crosses to the other, three of each.
var stageDomain = [pipeStages]int{0, 0, 1, 1, 0, 0, 1}

// Observation levels of the pipeline system.
const (
	obsBare      = iota // no telemetry, no spans
	obsTelemetry        // WithTelemetry
	obsFull             // WithTelemetry and WithSpanTracing: the workload's configuration
	numObs
)

// pipeItem is one payload and its CRC-32.
type pipeItem struct {
	payload []byte
	sum     uint32
}

// pipeSlot carries one item through the stages: it is the only raise
// argument, so a hop allocates nothing.
type pipeSlot struct {
	item    *pipeItem
	payload []byte // as handed on from stage to stage
	op      int
	t0, t1  int64
	fwdAt   [pipeStages]int64 // when each stage raised the next (traced phase)
	visits  int32
	seen    int32
	bad     bool
}

// pipeWorkload is the 7-stage async chain on two domains under Run,
// planned by profiling an unsharded twin and applying GraphChains and
// AsyncChains. wave is the number of items the generator raises before
// it waits for all of them: 1 for pipeline_rpc, 2048 for pipeline_burst.
type pipeWorkload struct {
	wave  int
	items []pipeItem
}

func newPipeline(seed uint64, wave int) *pipeWorkload {
	rng := rand.New(rand.NewPCG(seed, 3))
	w := &pipeWorkload{wave: wave, items: make([]pipeItem, pipePool)}
	for i := range w.items {
		p := make([]byte, 64+rng.IntN(193))
		for j := range p {
			p[j] = byte(rng.Uint32())
		}
		w.items[i] = pipeItem{payload: p, sum: crc32.ChecksumIEEE(p)}
	}
	return w
}

// pipeSys is one pipeline system and its generator state.
type pipeSys struct {
	w       *pipeWorkload
	sys     *event.System
	evs     [pipeStages]event.ID
	wave    int
	slots   []pipeSlot
	next    int
	corrupt int // op whose payload a middle stage hands on with a flipped byte, or -1
	failed  int

	remaining atomic.Int64  // items of the wave still in flight
	done      chan struct{} // signalled when the wave completes
	stop      chan struct{} // closes the Run loops
	stopped   chan struct{}

	ctl      *adaptive.Controller
	nextTick int // p.next at which the controller ticks next
	tr       *tracer

	// Traced phase only. hops[d][k] holds hop latencies observed on
	// domain d, k = 0 for same-domain hops and 1 for cross-domain ones;
	// each domain appends only to its own slices.
	stamp          atomic.Bool
	hops           [2][2][]int64
	queueMax       int
	kSum, kSamples int
	stats0         event.StatsSnapshot
}

// newPipeSys builds the stage events and handlers on a fresh system with
// the given options; with more than one domain the stages are pinned.
func (w *pipeWorkload) newPipeSys(wave int, opts ...event.Option) (*pipeSys, error) {
	p := &pipeSys{
		w: w, sys: event.New(opts...), wave: wave, slots: make([]pipeSlot, wave),
		corrupt: -1, done: make(chan struct{}, 1),
	}
	s := p.sys
	for i := range p.evs {
		p.evs[i] = s.Define(fmt.Sprintf("stage%d", i))
		if s.NumDomains() > 1 {
			if err := s.PinEvent(p.evs[i], stageDomain[i]); err != nil {
				return nil, err
			}
		}
	}
	for i, ev := range p.evs {
		stage := i
		first := func(ctx *event.Ctx) {
			sl := slotOf(ctx)
			sl.visits++
			if stage > 0 && p.stamp.Load() {
				kind := 0
				if stageDomain[stage] != stageDomain[stage-1] {
					kind = 1
				}
				h := &p.hops[ctx.Domain()][kind]
				if len(*h) < cap(*h) {
					*h = append(*h, nanotime()-sl.fwdAt[stage-1])
				}
			}
		}
		observe := func(ctx *event.Ctx) { slotOf(ctx).visits++ }
		last, lastName := p.finish, "finish"
		if stage < pipeStages-1 {
			next := p.evs[stage+1]
			last, lastName = func(ctx *event.Ctx) {
				v, _ := ctx.Args.Lookup("s")
				sl := v.(*pipeSlot)
				sl.visits++
				if p.stamp.Load() {
					sl.fwdAt[stage] = nanotime()
				}
				if sl.op == p.corrupt && stage == pipeStages/2 {
					// Hand on a copy with one byte flipped: the last
					// stage's CRC check must catch it.
					bad := slices.Clone(sl.payload)
					bad[len(bad)/2] ^= 0xff
					sl.payload = bad
				}
				ctx.RaiseAsync(next, event.Arg{Name: "s", Val: v})
			}, "forward"
		}
		s.Bind(ev, "observe1", first, event.WithOrder(0), event.WithParams("s"))
		s.Bind(ev, "observe2", observe, event.WithOrder(1), event.WithParams("s"))
		s.Bind(ev, lastName, last, event.WithOrder(2), event.WithParams("s"))
	}
	return p, nil
}

func slotOf(ctx *event.Ctx) *pipeSlot {
	v, _ := ctx.Args.Lookup("s")
	return v.(*pipeSlot)
}

// finish is the last stage's last handler: it checks the item and
// completes it.
func (p *pipeSys) finish(ctx *event.Ctx) {
	sl := slotOf(ctx)
	sl.visits++
	sl.seen++
	sl.bad = crc32.ChecksumIEEE(sl.payload) != sl.item.sum || sl.visits != pipeStages*pipeHandlers
	sl.t1 = nanotime()
	if p.remaining.Add(-1) == 0 {
		p.done <- struct{}{}
	}
}

// build sets up a two-domain pipeline at one observation level: profile
// an unsharded twin (the graph builders see only per-domain adjacency),
// plan GraphChains+AsyncChains on the sharded system, start its Run
// loops and, with ctl, an adaptive controller the generator ticks.
func (w *pipeWorkload) build(obs int, ctl bool, tr *tracer) (*pipeSys, setupInfo, error) {
	var info setupInfo
	t0 := time.Now()
	twin, err := w.newPipeSys(1)
	if err != nil {
		return nil, info, err
	}
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	twin.sys.SetTracer(rec)
	t := time.Now()
	lat := make([]int64, 1)
	for i := 0; i < pipeProfileItems; i++ {
		twin.run(lat)
	}
	twin.sys.SetTracer(nil)
	info.ProfileRun = time.Since(t)

	opts := []event.Option{event.WithDomains(2)}
	if obs >= obsTelemetry {
		opts = append(opts, event.WithTelemetry(telemetry.Config{}))
	}
	if obs >= obsFull {
		opts = append(opts, event.WithSpanTracing(span.Config{}))
	}
	p, err := w.newPipeSys(w.wave, opts...)
	if err != nil {
		return nil, info, err
	}
	p.tr = tr
	plan := core.Options{Threshold: 1, Subsume: true, GraphChains: true, AsyncChains: true, MaxChainLen: 8}
	if err := planInstall(p.sys, nil, rec, plan, &info); err != nil {
		return nil, info, err
	}
	if sh := p.sys.FastPath(p.evs[0]); sh == nil || len(sh.Segments) != pipeStages {
		return nil, info, fmt.Errorf("pipeline: the plan does not cover all %d stages", pipeStages)
	}
	if ctl {
		if p.ctl, err = adaptive.New(p.sys, nil, adaptive.Policy{}); err != nil {
			return nil, info, err
		}
	}
	p.stop, p.stopped = make(chan struct{}), make(chan struct{})
	go func() {
		p.sys.Run(p.stop)
		close(p.stopped)
	}()
	info.Total = time.Since(t0)
	p.stats0 = p.sys.StatsAggregate()
	p.nextTick = pipeTickOps
	return p, info, nil
}

func (w *pipeWorkload) setup(tr *tracer, corrupt int) (instance, setupInfo, error) {
	p, info, err := w.build(obsFull, true, tr)
	if err != nil {
		return nil, info, err
	}
	p.corrupt = corrupt
	if tr != nil {
		for d := range p.hops {
			for k := range p.hops[d] {
				p.hops[d][k] = make([]int64, 0, 2*w.traceOps())
			}
		}
	}
	return p, info, nil
}

func (w *pipeWorkload) traceOps() int {
	if w.wave > 1 {
		return 50 * w.wave
	}
	return 60000
}

func (p *pipeSys) batch() int { return p.wave }

// run raises one wave of items from the generator, waits until the last
// stage has completed all of them, then checks each.
func (p *pipeSys) run(lat []int64) {
	traced := p.tr != nil && p.tr.on
	p.stamp.Store(traced)
	root := p.tr.begin(spOp)
	p.remaining.Store(int64(p.wave))
	for j := range p.slots {
		sl := &p.slots[j]
		it := &p.w.items[(p.next+j)%len(p.w.items)]
		*sl = pipeSlot{item: it, payload: it.payload, op: p.next + j}
		sp := p.tr.begin(spRaiseAsync)
		sl.t0 = nanotime()
		p.sys.RaiseAsync(p.evs[0], event.Arg{Name: "s", Val: sl})
		p.tr.end(sp)
	}
	if traced {
		p.queueMax = max(p.queueMax, p.sys.QueueLen())
		p.kSum += p.sys.BatchK(0) + p.sys.BatchK(1)
		p.kSamples += 2
	}
	if p.stop == nil {
		p.sys.Drain() // the unsharded profiling twin has no Run loop
	}
	<-p.done
	p.tr.end(root)
	for j := range p.slots {
		sl := &p.slots[j]
		lat[j] = sl.t1 - sl.t0
		if sl.seen != 1 || sl.bad {
			p.failed++
		}
	}
	p.next += p.wave
	if p.ctl != nil && p.next >= p.nextTick {
		sp := p.tr.begin(spTick)
		p.ctl.Tick()
		p.tr.end(sp)
		p.nextTick += pipeTickOps
	}
}

func (p *pipeSys) layers(m map[string]float64, elapsed time.Duration) {
	var same, cross []int64
	for d := range p.hops {
		same = append(same, p.hops[d][0]...)
		cross = append(cross, p.hops[d][1]...)
	}
	m["event.hop_same_us_p50"] = distOf(same).P50
	m["event.hop_cross_us_p50"] = distOf(cross).P50
	m["event.queue_len_max"] = float64(p.queueMax)
	if p.kSamples > 0 {
		m["event.batch_k_mean"] = float64(p.kSum) / float64(p.kSamples)
	}
	if s := p.ctl.Snapshot(); s != nil { // the serving system always has a controller
		m["adaptive.k_changes_per_s"] = float64(s.BatchRaises+s.BatchShrinks) / elapsed.Seconds()
	}
}

func (p *pipeSys) stats() event.StatsSnapshot { return p.sys.StatsAggregate() }

func (p *pipeSys) close() {
	close(p.stop)
	<-p.stopped
	if p.ctl != nil {
		p.ctl.Close()
	}
}

// check reports the items that arrived more or less than once, with a
// wrong checksum or without passing every handler, and any supervision
// event since setup.
func (p *pipeSys) check() (int, int, error) {
	failed := p.failed + faultCount(p.stats0, p.stats())
	return p.next, min(failed, p.next), nil
}

// sweep drives the bare, telemetry and telemetry+spans twins with the
// same items, interleaved, and reports what each observation layer costs.
func (w *pipeWorkload) sweep() (map[string]float64, int, int, error) {
	var twins [numObs]*pipeSys
	defer func() {
		for _, p := range twins {
			if p != nil {
				p.close()
			}
		}
	}()
	for obs := range twins {
		p, _, err := w.build(obs, false, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		twins[obs] = p
	}
	calls := max(pipeRPCSweepBlock/w.wave, 1)
	lat := make([]int64, w.wave)
	ns := interleave(numObs, sweepRounds, func(obs int) {
		for i := 0; i < calls; i++ {
			twins[obs].run(lat)
		}
	})
	attempted, failed := 0, 0
	for _, p := range twins {
		a, f, _ := p.check()
		attempted += a
		failed += f
	}
	return map[string]float64{
		"telemetry.overhead_pct": (ns[obsTelemetry]/ns[obsBare] - 1) * 100,
		"span.overhead_pct":      (ns[obsFull]/ns[obsTelemetry] - 1) * 100,
	}, attempted, failed, nil
}
