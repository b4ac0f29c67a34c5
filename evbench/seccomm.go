package main

import (
	"bytes"
	"hash/maphash"
	"math/rand/v2"
	"time"

	"eventopt/internal/bench"
	"eventopt/internal/codegen/gen"
	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/seccomm"
	"eventopt/internal/trace"
)

const (
	seccommPool       = 1000 // distinct messages per seed; a multiple of 100 keeps every weight exact
	seccommBuf        = 1 << 16
	seccommProfileOps = 100 // a multiple of 100 keeps every weight exact
	seccommSweepBlock = 64
)

// Message sizes and their weights in percent.
var (
	seccommSizes   = [...]int{64, 128, 256, 512, 1024, 2048}
	seccommWeights = [...]int{30, 25, 20, 12, 8, 5}
)

// seccommWorkload is the Fig. 12 loopback: a coordinator+DES+XOR
// endpoint pair planned with MergeAll and FullFusion. One op pushes a
// message on A, feeds A's packet to B and drains B.
type seccommWorkload struct {
	buf     []byte
	msgs    []input
	profile []input  // the profiling run's messages
	hashes  []uint64 // output buffer of the serving instance, reused across setups
}

func newSeccomm(seed uint64) *seccommWorkload {
	rng := rand.New(rand.NewPCG(seed, 2))
	w := &seccommWorkload{buf: make([]byte, seccommBuf+2048), msgs: make([]input, seccommPool)}
	for i := range w.buf {
		w.buf[i] = byte(rng.Uint32())
	}
	// Every seed gets the sizes in exactly the given proportions, in its
	// own order, so the mix of work does not vary between seeds.
	// The profiling run takes the first messages of each size, in the
	// same proportions, so set-up does the same work on every seed.
	i, cum := 0, 0
	for j, wt := range seccommWeights {
		cum += wt
		for first := i; i < cum*seccommPool/100; i++ {
			w.msgs[i] = input{off: rng.IntN(seccommBuf), size: seccommSizes[j]}
			if i-first < wt*seccommProfileOps/100 {
				w.profile = append(w.profile, w.msgs[i])
			}
		}
	}
	rng.Shuffle(len(w.msgs), func(a, b int) { w.msgs[a], w.msgs[b] = w.msgs[b], w.msgs[a] })
	return w
}

func (w *seccommWorkload) data(m input) []byte { return w.buf[m.off : m.off+m.size] }

func (w *seccommWorkload) msg(i int) []byte { return w.data(w.msgs[i%len(w.msgs)]) }

// seccommSys is one endpoint pair. Every op records a digest of A's
// packet, inverted when B failed to deliver the plaintext or counted an
// error, so a failed round trip never matches the generic twin.
type seccommSys struct {
	w         *seccommWorkload
	a, b      *seccomm.Endpoint
	tr        *tracer
	next      int
	corrupt   int // op whose packet gets one byte flipped, or -1
	cur, pkt  []byte
	delivered bool
	hashes    []uint64
	stats0    event.StatsSnapshot

	wrapped bool                                    // the cipher intrinsics record spans
	bare    [2][len(cipherIntrinsics)]hir.Intrinsic // A's and B's, while wrapped
}

// cipherIntrinsics are the intrinsics a traced run times as the ciphers layer.
var cipherIntrinsics = [...]string{"des_enc", "des_dec", "xor_apply"}

// build sets up an endpoint pair of one tier.
func (w *seccommWorkload) build(tier int, tr *tracer, corrupt int) (*seccommSys, setupInfo, error) {
	var info setupInfo
	t0 := time.Now()
	x := &seccommSys{w: w, tr: tr, corrupt: corrupt}
	cfg := seccomm.Config{
		DESKey: []byte("8bytekey"),
		XORKey: []byte{0x5A, 0xA5, 0x3C},
		IV:     []byte("initvect"),
	}
	for _, e := range []**seccomm.Endpoint{&x.a, &x.b} {
		var err error
		if *e, err = seccomm.New(cfg); err != nil {
			return nil, info, err
		}
		if err := w.plan(*e, tier, &info); err != nil {
			return nil, info, err
		}
	}
	x.a.OnSend(func(p []byte) { x.pkt = append(x.pkt[:0], p...) })
	x.b.OnDeliver(func(p []byte) { x.delivered = bytes.Equal(p, x.cur) })
	info.Total = time.Since(t0)
	info.FusedInstrs = bench.MeasureCodeSize(x.a.Sys).Added + bench.MeasureCodeSize(x.b.Sys).Added
	x.stats0 = x.stats()
	return x, info, nil
}

// plan profiles endpoint e with the Fig. 12 drive, a priming push and
// then push/pop rounds of the profiling messages, and installs the
// tier's plan.
func (w *seccommWorkload) plan(e *seccomm.Endpoint, tier int, info *setupInfo) error {
	var pkt []byte
	e.OnSend(func(p []byte) { pkt = append(pkt[:0], p...) })
	e.Push(w.data(w.profile[0]))
	rec := trace.NewRecorder()
	if profiled(tier) {
		rec.EnableHandlerProfiling()
		e.Sys.SetTracer(rec)
	}
	t := time.Now()
	for _, m := range w.profile {
		e.Push(w.data(m))
		e.HandlePacket(pkt)
	}
	e.Sys.SetTracer(nil)
	info.ProfileRun += time.Since(t)
	e.OnSend(nil)
	switch tier {
	case tierInterp, tierClosure:
		// The paper merged the SecComm chains in full by hand; the
		// mechanical equivalent is full fusion with static subsumption.
		opts := core.DefaultOptions()
		opts.MergeAll = true
		opts.FullFusion = true
		opts.Partitioned = false
		opts.CompileClosures = tier == tierClosure
		return planInstall(e.Sys, e.Mod, rec, opts, info)
	case tierGenerated:
		_, err := core.InstallGenerated(e.Sys, e.Mod, gen.SeccommSupers())
		return err
	}
	return nil
}

// traceSpans wraps the cipher intrinsics of both endpoints in spans while
// a traced block runs, and restores the bare intrinsics after it, so
// untraced ops pay nothing for the spans. The serving tier runs fused
// bodies in the HIR interpreter, which resolves intrinsics at every call.
func (x *seccommSys) traceSpans(on bool) {
	if on == x.wrapped {
		return
	}
	x.wrapped = on
	for i, e := range []*seccomm.Endpoint{x.a, x.b} {
		for j, name := range cipherIntrinsics {
			bare := &x.bare[i][j]
			e.Mod.WrapIntrinsic(name, func(in hir.Intrinsic) hir.Intrinsic {
				if !on {
					return *bare
				}
				*bare = in
				fn := in.Fn
				in.Fn = func(args []hir.Value) hir.Value {
					sp := x.tr.begin(spCipher)
					v := fn(args)
					x.tr.end(sp)
					return v
				}
				return in
			})
		}
	}
}

func (x *seccommSys) op() {
	x.cur = x.w.msg(x.next)
	i := x.next
	x.next++
	x.delivered = false
	errs := x.b.Errors
	root := x.tr.begin(spOp)
	sp := x.tr.begin(spRaise)
	x.a.Push(x.cur)
	x.tr.end(sp)
	if i == x.corrupt && len(x.pkt) > 0 {
		x.pkt[len(x.pkt)/2] ^= 0xff // a wrong packet byte: the check must catch it
	}
	sp = x.tr.begin(spRaise)
	x.b.HandlePacket(x.pkt)
	x.tr.end(sp)
	sp = x.tr.begin(spDrain)
	x.b.Sys.Drain()
	x.tr.end(sp)
	x.tr.end(root)
	if len(x.hashes) < cap(x.hashes) {
		h := maphash.Bytes(hashSeed, x.pkt)
		if !x.delivered || x.b.Errors != errs {
			h = ^h
		}
		x.hashes = append(x.hashes, h)
	}
}

func (w *seccommWorkload) setup(tr *tracer, corrupt int) (instance, setupInfo, error) {
	x, info, err := w.build(tierInterp, tr, corrupt)
	if err != nil {
		return nil, info, err
	}
	if w.hashes == nil {
		w.hashes = make([]uint64, 0, maxSamples)
	}
	x.hashes = w.hashes[:0]
	return x, info, nil
}

func (w *seccommWorkload) traceOps() int { return 12000 }

func (x *seccommSys) batch() int { return 1 }

func (x *seccommSys) run(lat []int64) {
	t := nanotime()
	x.op()
	lat[0] = nanotime() - t
}

func (x *seccommSys) stats() event.StatsSnapshot {
	return addStats(x.a.Sys.StatsAggregate(), x.b.Sys.StatsAggregate(), 1)
}

func (x *seccommSys) close() {}

// check compares every op's packet with a generic-dispatch twin's. A
// packet depends only on its message, so the twin pushes each distinct
// message of the stream once.
func (x *seccommSys) check() (int, int, error) {
	twin, _, err := x.w.build(tierGeneric, nil, -1)
	if err != nil {
		return 0, 0, err
	}
	want := make([]uint64, len(x.w.msgs))
	for i := range want {
		twin.a.Push(x.w.msg(i))
		want[i] = maphash.Bytes(hashSeed, twin.pkt)
	}
	failed := faultCount(x.stats0, x.stats())
	for i, h := range x.hashes {
		if h != want[i%len(want)] {
			failed++
		}
	}
	return len(x.hashes), min(failed, len(x.hashes)), nil
}

// sweep drives one endpoint pair per tier with the same messages,
// interleaved, and checks every tier's packets against the generic tier's.
func (w *seccommWorkload) sweep() (map[string]float64, int, int, error) {
	return tierSweep(seccommSweepBlock, func(tier int) (func(), *[]uint64, error) {
		x, _, err := w.build(tier, nil, -1)
		if err != nil {
			return nil, nil, err
		}
		x.hashes = make([]uint64, 0, sweepRounds*seccommSweepBlock)
		return x.op, &x.hashes, nil
	})
}
