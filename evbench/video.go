package main

import (
	"hash/maphash"
	"math/rand/v2"
	"time"

	"eventopt/internal/bench"
	"eventopt/internal/codegen/gen"
	"eventopt/internal/core"
	"eventopt/internal/ctp"
	"eventopt/internal/event"
	"eventopt/internal/trace"
)

const (
	videoInterval      = event.Duration(time.Second / 25) // 25 fps
	videoProfileFrames = 200
	videoPool          = 4096    // distinct frames drawn per seed
	videoBuf           = 1 << 16 // seeded bytes the frames are cut from
	videoSweepBlock    = 256
)

// hashSeed keys every output digest of one process, so a system and its
// twins hash alike.
var hashSeed = maphash.MakeSeed()

// input is one input of a stream: a slice of the workload's seeded bytes,
// and for video the frame's priority.
type input struct {
	off, size int
	key       bool
}

// videoWorkload is the Fig. 10/11 player: CTP at 25 fps on a virtual
// clock, one domain, frames of 200-4200 B (one to four fragments), one in
// ten a key frame, and every 97th segment lost so retransmit timers fire.
type videoWorkload struct {
	buf     []byte
	frames  []input
	digests []uint64 // output buffer of the serving instance, reused across setups
}

func newVideo(seed uint64) *videoWorkload {
	rng := rand.New(rand.NewPCG(seed, 1))
	w := &videoWorkload{buf: make([]byte, videoBuf+4200), frames: make([]input, videoPool)}
	for i := range w.buf {
		w.buf[i] = byte(rng.Uint32())
	}
	for i := range w.frames {
		w.frames[i] = input{off: rng.IntN(videoBuf), size: 200 + rng.IntN(4001), key: rng.IntN(10) == 0}
	}
	return w
}

func (w *videoWorkload) frame(i int) ([]byte, bool) {
	f := w.frames[i%len(w.frames)]
	return w.buf[f.off : f.off+f.size], f.key
}

// videoSys is one player. Op i sends frame i of the stream and drains the
// protocol up to the frame's pacing deadline; the segments the op
// delivers and the protocol counters after it fold into one digest.
type videoSys struct {
	w       *videoWorkload
	s       *ctp.Sender
	tr      *tracer
	base    event.Duration
	next    int      // stream index of the next frame
	cur     int      // stream index of the op in progress
	corrupt int      // stream index whose first delivered byte is flipped, or -1
	digest  uint64   // outputs of the op in progress
	digests []uint64 // one per op run since setup, while there is room
	stats0  event.StatsSnapshot
}

// build sets up a player of one tier: it runs the 200-frame profiling run
// (traced for the profiled tiers) and installs the tier's plan.
func (w *videoWorkload) build(tier int, tr *tracer, corrupt int) (*videoSys, setupInfo, error) {
	var info setupInfo
	t0 := time.Now()
	cfg := ctp.DefaultConfig()
	cfg.LossEvery = 97
	s, err := ctp.New(cfg, event.WithClock(event.NewVirtualClock()))
	if err != nil {
		return nil, info, err
	}
	v := &videoSys{w: w, s: s, tr: tr, corrupt: -1}
	if corrupt >= 0 {
		v.corrupt = videoProfileFrames + corrupt // ops count from the end of setup
	}
	s.OnSegment(v.segment)
	s.Start()
	v.base = s.Sys.Now()

	rec := trace.NewRecorder()
	if profiled(tier) {
		rec.EnableHandlerProfiling()
		s.Sys.SetTracer(rec)
	}
	t := time.Now()
	for i := 0; i < videoProfileFrames; i++ {
		v.op()
	}
	s.Sys.SetTracer(nil)
	info.ProfileRun = time.Since(t)
	switch tier {
	case tierInterp, tierClosure:
		opts := core.DefaultOptions()
		opts.CompileClosures = tier == tierClosure
		err = planInstall(s.Sys, s.Mod, rec, opts, &info)
	case tierGenerated:
		_, err = core.InstallGenerated(s.Sys, s.Mod, gen.VideoplayerSupers())
	}
	if err != nil {
		return nil, info, err
	}
	info.Total = time.Since(t0)
	info.FusedInstrs = bench.MeasureCodeSize(s.Sys).Added
	v.stats0 = s.Sys.StatsAggregate()
	return v, info, nil
}

// segment folds one delivered segment into the op's digest.
func (v *videoSys) segment(seq int64, payload []byte, parity bool) {
	if v.cur == v.corrupt && len(payload) > 0 {
		payload[0] ^= 0xff // a wrong delivered byte: the check must catch it
		v.corrupt = -1
	}
	h := maphash.Bytes(hashSeed, payload) ^ uint64(seq)*0x9e3779b97f4a7c15
	if parity {
		h = ^h
	}
	v.digest = v.digest*1099511628211 ^ h
}

func (v *videoSys) op() {
	data, key := v.w.frame(v.next)
	v.cur = v.next
	v.next++
	root := v.tr.begin(spOp)
	sp := v.tr.begin(spRaise)
	v.s.SendFrame(data, key)
	v.tr.end(sp)
	sp = v.tr.begin(spDrain)
	v.s.Sys.DrainFor(v.base + event.Duration(v.next)*videoInterval)
	v.tr.end(sp)
	v.tr.end(root)
	if len(v.digests) < cap(v.digests) {
		st := v.s.Stats
		for _, x := range [...]int{st.FramesSent, st.Segments, st.Parity, st.Transmitted, st.Dropped,
			st.Acked, st.Retransmits, st.Timeouts, st.Deferred, st.Delivered, st.Resizes, st.SamplesRun} {
			v.digest = v.digest*1099511628211 ^ uint64(x)
		}
		v.digests = append(v.digests, v.digest)
	}
	v.digest = 0
}

func (w *videoWorkload) setup(tr *tracer, corrupt int) (instance, setupInfo, error) {
	v, info, err := w.build(tierInterp, tr, corrupt)
	if err != nil {
		return nil, info, err
	}
	if w.digests == nil {
		w.digests = make([]uint64, 0, maxSamples)
	}
	v.digests = w.digests[:0]
	return v, info, nil
}

func (w *videoWorkload) traceOps() int { return 40000 }

func (v *videoSys) batch() int { return 1 }

func (v *videoSys) run(lat []int64) {
	t := nanotime()
	v.op()
	lat[0] = nanotime() - t
}

func (v *videoSys) stats() event.StatsSnapshot { return v.s.Sys.StatsAggregate() }

func (v *videoSys) close() {}

// check replays every op on a generic-dispatch twin built from the same
// stream: on the virtual clock the twin must deliver the same segments
// and count the same protocol events, op by op.
func (v *videoSys) check() (int, int, error) {
	twin, _, err := v.w.build(tierGeneric, nil, -1)
	if err != nil {
		return 0, 0, err
	}
	twin.digests = make([]uint64, 0, len(v.digests))
	for len(twin.digests) < len(v.digests) {
		twin.op()
	}
	failed := mismatches(twin.digests, v.digests) + faultCount(v.stats0, v.stats())
	return len(v.digests), min(failed, len(v.digests)), nil
}

// sweep drives one player per tier with the same frames, interleaved,
// and checks every tier's outputs against the generic tier's.
func (w *videoWorkload) sweep() (map[string]float64, int, int, error) {
	return tierSweep(videoSweepBlock, func(tier int) (func(), *[]uint64, error) {
		v, _, err := w.build(tier, nil, -1)
		if err != nil {
			return nil, nil, err
		}
		v.digests = make([]uint64, 0, sweepRounds*videoSweepBlock)
		return v.op, &v.digests, nil
	})
}
