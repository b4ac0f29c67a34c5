package ctp

import (
	"crypto/subtle"

	"eventopt/internal/event"
	"eventopt/internal/hir"
)

// Global state cells used by the HIR micro-protocols. Exposed for tests
// and the benchmark harness.
const (
	CellSeq      = "seq"      // last assigned sequence number
	CellInflight = "inflight" // unacknowledged segments (flow control)
	CellWindow   = "window"   // current flow-control window
	CellParity   = "parity"   // FEC parity accumulator (bytes)
	CellFECCount = "feccount" // data segments since last parity segment
	CellFECOut   = "fecout"   // parity segments transmitted
	CellBytesOut = "bytesout" // payload+header bytes handed to the driver
	CellDeferred = "deferred" // segments deferred by flow control
	CellAcked    = "acked"    // acknowledgements seen by flow control
	CellSent     = "sent"     // SegmentSent activations
	CellTimeouts = "timeouts" // SegmentTimeout activations
	CellFirings  = "firings"  // controller firings
	CellCtlVal   = "ctlval"   // controller's computed rate value
	CellAdapts   = "adapts"   // adaptation rounds
	CellAdaptCnt = "adaptcnt" // rounds since the last fragment resize
	CellFramesIn = "framesin" // application messages accepted
)

// registerIntrinsics exposes the host operations the HIR handlers need.
func (s *Sender) registerIntrinsics() {
	m := s.Mod
	// xor_bytes folds a segment into the sender's parity accumulator in
	// place. It writes sender state, so it is impure: constant folding
	// must not run it at plan time, and CSE/DCE must neither merge two
	// folds nor drop one.
	m.RegisterIntrinsic("xor_bytes", false, func(a []hir.Value) hir.Value {
		return hir.BytesVal(s.foldParity(a[0].Bytes(), a[1].Bytes()))
	})
	m.RegisterIntrinsic("link_send", false, func(a []hir.Value) hir.Value {
		s.link.transmit(a[0].Int(), a[1].Bytes(), a[2].Bool())
		return hir.None
	})
	m.RegisterIntrinsic("sched_rto", false, func(a []hir.Value) hir.Value {
		s.hold(a[0].Int(), a[1].Bytes(), a[2].Bool())
		s.armRTO(a[0].Int(), 0)
		return hir.None
	})
	m.RegisterIntrinsic("count_defer", false, func(a []hir.Value) hir.Value {
		s.Stats.Deferred++
		return hir.None
	})
	m.RegisterIntrinsic("stats_sample", false, func(a []hir.Value) hir.Value {
		s.Stats.SamplesRun++
		return hir.None
	})
}

// bindUserIn installs the user-input micro-protocol on both priorities.
// The counting handler is HIR; fragmentation iterates over the payload
// and is native (it is not on the per-segment hot path).
func (s *Sender) bindUserIn() {
	for _, ev := range []event.ID{s.Ev.MsgFromUserH, s.Ev.MsgFromUserL} {
		b := hir.NewBuilder("userin_count", 0)
		n := b.Load(CellFramesIn)
		one := b.Int(1)
		b.Store(CellFramesIn, b.Bin(hir.Add, n, one))
		b.Return(hir.NoReg)
		s.Mod.Bind(ev, "userin_count", b.Fn(), event.WithOrder(10))

		s.Sys.Bind(ev, "frag", s.fragHandler, event.WithOrder(20), event.WithParams("msg", "size"))
	}
}

// fragHandler splits the application message into MTU-sized segments and
// raises SegFromUser for each (synchronously, per the Cactus model).
func (s *Sender) fragHandler(c *event.Ctx) {
	msg := c.Args.Bytes("msg")
	mtu := s.Cfg.MTU
	if len(msg) == 0 {
		c.Raise(s.Ev.SegFromUser, event.Bytes("seg", []byte{}), event.Int("len", 0))
		return
	}
	for off := 0; off < len(msg); off += mtu {
		end := off + mtu
		if end > len(msg) {
			end = len(msg)
		}
		frag := msg[off:end]
		s.Stats.Segments++
		c.Raise(s.Ev.SegFromUser, event.Bytes("seg", frag), event.Int("len", len(frag)))
	}
}

// bindSegFromUser installs the Fig. 8 handler sequence FEC-SFU1,
// SeqSeg-SFU, TDriver-SFU, FEC-SFU2 — all in HIR.
func (s *Sender) bindSegFromUser() {
	ev := s.Ev.SegFromUser

	// FEC-SFU1: fold the segment into the parity accumulator.
	b := hir.NewBuilder("FEC-SFU1", 0)
	seg := b.Arg("seg")
	par := b.Load(CellParity)
	b.Store(CellParity, b.Call("xor_bytes", par, seg))
	b.Return(hir.NoReg)
	s.Mod.Bind(ev, "FEC-SFU1", b.Fn(), event.WithOrder(10), event.WithParams("seg"))

	// SeqSeg-SFU: assign the next sequence number.
	b = hir.NewBuilder("SeqSeg-SFU", 0)
	sq := b.Load(CellSeq)
	one := b.Int(1)
	sq2 := b.Bin(hir.Add, sq, one)
	b.Store(CellSeq, sq2)
	b.Return(hir.NoReg)
	s.Mod.Bind(ev, "SeqSeg-SFU", b.Fn(), event.WithOrder(20))

	// TDriver-SFU: hand the segment to the network stage (the nested
	// synchronous raise that subsumption eliminates, Fig. 9).
	b = hir.NewBuilder("TDriver-SFU", 0)
	seg = b.Arg("seg")
	sq = b.Load(CellSeq)
	zero := b.Int(0)
	b.Raise("Seg2Net", []string{"seg", "seq", "fec"}, []hir.Reg{seg, sq, zero})
	b.Return(hir.NoReg)
	s.Mod.Bind(ev, "TDriver-SFU", b.Fn(), event.WithOrder(30), event.WithParams("seg"))

	// FEC-SFU2: every k-th segment, emit the parity segment.
	b = hir.NewBuilder("FEC-SFU2", 0)
	cnt := b.Load(CellFECCount)
	one = b.Int(1)
	cnt2 := b.Bin(hir.Add, cnt, one)
	k := b.Int(int64(s.Cfg.FECInterval))
	due := b.Bin(hir.Ge, cnt2, k)
	emit := b.NewBlock()
	skip := b.NewBlock()
	b.SetBlock(hir.Entry)
	b.Branch(due, emit, skip)
	b.SetBlock(emit)
	par = b.Load(CellParity)
	sq = b.Load(CellSeq)
	o := b.Int(1)
	psq := b.Bin(hir.Add, sq, o)
	b.Store(CellSeq, psq)
	fec := b.Int(1)
	b.Raise("Seg2Net", []string{"seg", "seq", "fec"}, []hir.Reg{par, psq, fec})
	z := b.Int(0)
	b.Store(CellFECCount, z)
	empty := b.Const(hir.BytesVal([]byte{}))
	b.Store(CellParity, empty)
	b.Return(hir.NoReg)
	b.SetBlock(skip)
	b.Store(CellFECCount, cnt2)
	b.Return(hir.NoReg)
	s.Mod.Bind(ev, "FEC-SFU2", b.Fn(), event.WithOrder(40))
}

// bindSeg2Net installs the network-stage handlers PAU-S2N, WFC-S2N,
// FEC-S2N, TD-S2N (Fig. 8, shaded sequence) — all in HIR.
func (s *Sender) bindSeg2Net() {
	ev := s.Ev.Seg2Net
	const headerSize = 28 // simulated CTP segment header

	// PAU-S2N: packet assembly/accounting.
	b := hir.NewBuilder("PAU-S2N", 0)
	seg := b.Arg("seg")
	ln := b.Un(hir.Len, seg)
	hdr := b.Int(headerSize)
	total := b.Bin(hir.Add, ln, hdr)
	out := b.Load(CellBytesOut)
	b.Store(CellBytesOut, b.Bin(hir.Add, out, total))
	b.Return(hir.NoReg)
	s.Mod.Bind(ev, "PAU-S2N", b.Fn(), event.WithOrder(10), event.WithParams("seg"))

	// WFC-S2N: window flow control; over-window segments are deferred
	// and processing of this event halts.
	b = hir.NewBuilder("WFC-S2N", 0)
	infl := b.Load(CellInflight)
	wnd := b.Load(CellWindow)
	over := b.Bin(hir.Ge, infl, wnd)
	deferB := b.NewBlock()
	passB := b.NewBlock()
	b.SetBlock(hir.Entry)
	b.Branch(over, deferB, passB)
	b.SetBlock(deferB)
	d := b.Load(CellDeferred)
	one := b.Int(1)
	b.Store(CellDeferred, b.Bin(hir.Add, d, one))
	b.Call("count_defer", one)
	b.Halt()
	b.SetBlock(passB)
	o2 := b.Int(1)
	b.Store(CellInflight, b.Bin(hir.Add, infl, o2))
	b.Return(hir.NoReg)
	s.Mod.Bind(ev, "WFC-S2N", b.Fn(), event.WithOrder(20))

	// FEC-S2N: count parity segments on their way out.
	b = hir.NewBuilder("FEC-S2N", 0)
	fec := b.Arg("fec")
	fo := b.Load(CellFECOut)
	b.Store(CellFECOut, b.Bin(hir.Add, fo, fec))
	b.Return(hir.NoReg)
	s.Mod.Bind(ev, "FEC-S2N", b.Fn(), event.WithOrder(30), event.WithParams("fec"))

	// TD-S2N: transmit, arm the retransmission timer, announce the send.
	b = hir.NewBuilder("TD-S2N", 0)
	seg = b.Arg("seg")
	sq := b.Arg("seq")
	fc := b.Arg("fec")
	zf := b.Int(0)
	isPar := b.Bin(hir.Ne, fc, zf)
	b.Call("link_send", sq, seg, isPar)
	b.Call("sched_rto", sq, seg, isPar)
	b.RaiseAsync("SegmentSent", []string{"seq"}, []hir.Reg{sq})
	b.Return(hir.NoReg)
	s.Mod.Bind(ev, "TD-S2N", b.Fn(), event.WithOrder(40), event.WithParams("seg", "seq"))
}

// bindReliability installs acknowledgement and timeout handling. Timer
// bookkeeping needs the native timer map; the flow-control reaction is
// HIR.
func (s *Sender) bindReliability() {
	// SegmentSent: bookkeeping only.
	b := hir.NewBuilder("sent_count", 0)
	n := b.Load(CellSent)
	one := b.Int(1)
	b.Store(CellSent, b.Bin(hir.Add, n, one))
	b.Return(hir.NoReg)
	s.Mod.Bind(s.Ev.SegmentSent, "sent_count", b.Fn())

	// SegmentAcked: cancel the timer (native), shrink the window
	// occupancy (HIR).
	s.Sys.Bind(s.Ev.SegmentAcked, "rtx_ack", func(c *event.Ctx) {
		seq := c.Args.Int64("seq")
		if tm, ok := s.rto[seq]; ok {
			tm.Cancel()
			delete(s.rto, seq)
			s.release(s.segs[seq].payload)
			delete(s.segs, seq)
		}
		s.Stats.Acked++
	}, event.WithOrder(10), event.WithParams("seq"))

	// wfc_ack: decrement the in-flight count, clamped at zero.
	b2 := hir.NewBuilder("wfc_ack", 0)
	infl2 := b2.Load(CellInflight)
	o2 := b2.Int(1)
	dec2 := b2.Bin(hir.Sub, infl2, o2)
	z3 := b2.Int(0)
	neg2 := b2.Bin(hir.Lt, dec2, z3)
	cB := b2.NewBlock()
	kB := b2.NewBlock()
	eB := b2.NewBlock()
	b2.SetBlock(hir.Entry)
	b2.Branch(neg2, cB, kB)
	b2.SetBlock(cB)
	zz := b2.Int(0)
	b2.Store(CellInflight, zz)
	b2.Jump(eB)
	b2.SetBlock(kB)
	b2.Store(CellInflight, dec2)
	b2.Jump(eB)
	b2.SetBlock(eB)
	ak := b2.Load(CellAcked)
	oo := b2.Int(1)
	b2.Store(CellAcked, b2.Bin(hir.Add, ak, oo))
	b2.Return(hir.NoReg)
	s.Mod.Bind(s.Ev.SegmentAcked, "wfc_ack", b2.Fn(), event.WithOrder(20))

	// SegmentTimeout: retransmit (native) and count (HIR).
	s.Sys.Bind(s.Ev.SegmentTimeout, "rtx_timeout", func(c *event.Ctx) {
		seq := c.Args.Int64("seq")
		attempt := c.Args.Int("attempt")
		s.Stats.Timeouts++
		entry, ok := s.segs[seq]
		if !ok {
			return // acked in the meantime
		}
		delete(s.rto, seq)
		max := s.Cfg.MaxRetransmits
		if max == 0 {
			max = 3
		}
		if max > 0 && attempt >= max {
			delete(s.segs, seq)
			s.release(entry.payload)
			return // give up on this segment
		}
		s.Stats.Retransmits++
		s.link.transmit(seq, entry.payload, entry.parity)
		s.armRTO(seq, attempt+1)
	}, event.WithOrder(10), event.WithParams("seq", "attempt"))

	b = hir.NewBuilder("to_count", 0)
	tc := b.Load(CellTimeouts)
	o3 := b.Int(1)
	b.Store(CellTimeouts, b.Bin(hir.Add, tc, o3))
	b.Return(hir.NoReg)
	s.Mod.Bind(s.Ev.SegmentTimeout, "to_count", b.Fn(), event.WithOrder(20))
}

// foldParity XORs seg into the parity accumulator and returns it. acc is
// the parity cell's value: empty when a new group starts (the cell is
// reset after each parity segment), otherwise the accumulator itself. A
// value the sender does not own is copied in first, so the fold only
// ever writes the sender's buffer. The result is the XOR of the two,
// zero-extended to the longer one.
func (s *Sender) foldParity(acc, seg []byte) []byte {
	p := s.parity[:cap(s.parity)]
	if len(acc) > 0 && len(p) > 0 && &acc[0] == &p[0] {
		p = p[:len(acc)]
	} else {
		p = append(p[:0], acc...)
	}
	n := subtle.XORBytes(p, p, seg)
	p = append(p, seg[n:]...)
	s.parity = p
	return p
}

// hold copies a segment into a retransmit buffer the sender owns, where
// it stays until the segment is acknowledged or given up.
func (s *Sender) hold(seq int64, payload []byte, parity bool) {
	var buf []byte
	if n := len(s.free); n > 0 {
		buf, s.free = s.free[n-1], s.free[:n-1]
	}
	s.segs[seq] = inflightSeg{payload: append(buf[:0], payload...), parity: parity}
}

// release returns a retransmit buffer to the free list, which keeps at
// most one buffer per window slot.
func (s *Sender) release(buf []byte) {
	if buf != nil && len(s.free) < s.Cfg.Window {
		s.free = append(s.free, buf)
	}
}

// armRTO schedules the retransmission timeout for a held segment.
func (s *Sender) armRTO(seq int64, attempt int) {
	s.rto[seq] = s.Sys.RaiseAfter(s.Cfg.RetransmitTimeout, s.Ev.SegmentTimeout,
		event.Int64("seq", seq), event.Int("attempt", attempt))
}

// bindController installs the congestion controller and adaptation
// micro-protocols: the alternating clocks drive the synchronous chain
// Controller -> ControllerFiring -> ControllerFired -> Adapt (the bold
// chain of Fig. 5), and Adapt occasionally requests a fragment resize.
func (s *Sender) bindController() {
	period := int64(s.Cfg.ControllerPeriod)

	clk := func(name, nextClk string) *hir.Function {
		b := hir.NewBuilder(name, 0)
		b.Raise("Controller", nil, nil)
		b.RaiseAfter(period, nextClk, nil, nil)
		b.Return(hir.NoReg)
		return b.Fn()
	}
	s.Mod.Bind(s.Ev.ControllerClkH, "clk_h", clk("clk_h", "ControllerClkL"))
	s.Mod.Bind(s.Ev.ControllerClkL, "clk_l", clk("clk_l", "ControllerClkH"))

	b := hir.NewBuilder("ctl_fire", 0)
	f := b.Load(CellFirings)
	one := b.Int(1)
	b.Store(CellFirings, b.Bin(hir.Add, f, one))
	b.Raise("ControllerFiring", nil, nil)
	b.Return(hir.NoReg)
	s.Mod.Bind(s.Ev.Controller, "ctl_fire", b.Fn())

	b = hir.NewBuilder("ctl_compute", 0)
	ak := b.Load(CellAcked)
	df := b.Load(CellDeferred)
	four := b.Int(4)
	val := b.Bin(hir.Sub, ak, b.Bin(hir.Mul, df, four))
	b.Store(CellCtlVal, val)
	b.Raise("ControllerFired", nil, nil)
	b.Return(hir.NoReg)
	s.Mod.Bind(s.Ev.ControllerFiring, "ctl_compute", b.Fn())

	b = hir.NewBuilder("ctl_done", 0)
	b.Raise("Adapt", nil, nil)
	b.Return(hir.NoReg)
	s.Mod.Bind(s.Ev.ControllerFired, "ctl_done", b.Fn())

	// Adapt handler 1: window adaptation (AIMD-flavored).
	b = hir.NewBuilder("adapt_window", 0)
	df = b.Load(CellDeferred)
	z := b.Int(0)
	congested := b.Bin(hir.Gt, df, z)
	shrinkB := b.NewBlock()
	growB := b.NewBlock()
	outB := b.NewBlock()
	b.SetBlock(hir.Entry)
	b.Branch(congested, shrinkB, growB)
	b.SetBlock(shrinkB)
	w := b.Load(CellWindow)
	two := b.Int(2)
	half := b.Bin(hir.Div, w, two)
	four2 := b.Int(4)
	tooSmall := b.Bin(hir.Lt, half, four2)
	clampB := b.NewBlock()
	storeB := b.NewBlock()
	b.SetBlock(shrinkB)
	b.Branch(tooSmall, clampB, storeB)
	b.SetBlock(clampB)
	fl := b.Int(4)
	b.Store(CellWindow, fl)
	b.Jump(outB)
	b.SetBlock(storeB)
	b.Store(CellWindow, half)
	b.Jump(outB)
	b.SetBlock(growB)
	w2 := b.Load(CellWindow)
	o4 := b.Int(1)
	grown := b.Bin(hir.Add, w2, o4)
	maxw := b.Int(int64(s.Cfg.Window))
	over := b.Bin(hir.Gt, grown, maxw)
	capB := b.NewBlock()
	okB2 := b.NewBlock()
	b.SetBlock(growB)
	b.Branch(over, capB, okB2)
	b.SetBlock(capB)
	mw := b.Int(int64(s.Cfg.Window))
	b.Store(CellWindow, mw)
	b.Jump(outB)
	b.SetBlock(okB2)
	b.Store(CellWindow, grown)
	b.Jump(outB)
	b.SetBlock(outB)
	zz2 := b.Int(0)
	b.Store(CellDeferred, zz2)
	b.Return(hir.NoReg)
	s.Mod.Bind(s.Ev.Adapt, "adapt_window", b.Fn(), event.WithOrder(10))

	// Adapt handler 2: count rounds; every 8th round, request a fragment
	// resize asynchronously (asynchronous edges never merge, section
	// 3.2.1 — this gives the optimizer a boundary to respect).
	b = hir.NewBuilder("adapt_rate", 0)
	a := b.Load(CellAdapts)
	o5 := b.Int(1)
	b.Store(CellAdapts, b.Bin(hir.Add, a, o5))
	c := b.Load(CellAdaptCnt)
	c2 := b.Bin(hir.Add, c, o5)
	seven := b.Int(7)
	masked := b.Bin(hir.And, c2, seven)
	z4 := b.Int(0)
	due := b.Bin(hir.Eq, masked, z4)
	resizeB := b.NewBlock()
	doneB := b.NewBlock()
	b.SetBlock(hir.Entry)
	b.Branch(due, resizeB, doneB)
	b.SetBlock(resizeB)
	b.RaiseAsync("ResizeFragment", nil, nil)
	b.Jump(doneB)
	b.SetBlock(doneB)
	b.Store(CellAdaptCnt, c2)
	b.Return(hir.NoReg)
	s.Mod.Bind(s.Ev.Adapt, "adapt_rate", b.Fn(), event.WithOrder(20))

	s.Sys.Bind(s.Ev.ResizeFragment, "resize", func(*event.Ctx) {
		s.Stats.Resizes++
	})

	// Sample: periodic statistics collection, self-rescheduling.
	b = hir.NewBuilder("sample", 0)
	o6 := b.Int(1)
	b.Call("stats_sample", o6)
	b.RaiseAfter(int64(s.Cfg.SamplePeriod), "Sample", nil, nil)
	b.Return(hir.NoReg)
	s.Mod.Bind(s.Ev.Sample, "sample", b.Fn())
}

// bindStartup installs the one-shot initialization handlers (Open,
// AddSysInput, SendMsg): the weight-1 edges of Fig. 5.
func (s *Sender) bindStartup() {
	init := func(name string) event.HandlerFunc {
		return func(*event.Ctx) {}
	}
	s.Sys.Bind(s.Ev.Open, "open_init", init("open"))
	s.Sys.Bind(s.Ev.AddSysInput, "sysinput_init", init("sysinput"))
	s.Sys.Bind(s.Ev.SendMsg, "sendmsg_init", init("sendmsg"))

	b := hir.NewBuilder("window_init", 0)
	w := b.Int(int64(s.Cfg.Window))
	b.Store(CellWindow, w)
	empty := b.Const(hir.BytesVal([]byte{}))
	b.Store(CellParity, empty)
	b.Return(hir.NoReg)
	s.Mod.Bind(s.Ev.Open, "window_init", b.Fn(), event.WithOrder(20))
}
