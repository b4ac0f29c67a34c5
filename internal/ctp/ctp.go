// Package ctp implements CTP, the configurable transport protocol that
// the paper's video player runs on (section 4.2, built with Cactus
// [24]). The protocol is composed of micro-protocols, each a set of
// event handlers, and reproduces the event vocabulary of paper Fig. 5:
//
//	Open, AddSysInput, SendMsg          — startup (weight-1 edges)
//	MsgFromUserH / MsgFromUserL         — application messages, two priorities
//	SegFromUser                         — one segment leaving the user stage
//	Seg2Net                             — one segment entering the network stage
//	ResizeFragment                      — fragment-size adaptation
//	SegmentSent / SegmentAcked / SegmentTimeout
//	Controller, ControllerFiring, ControllerFired, Adapt
//	ControllerClkH / ControllerClkL     — the controller's alternating clocks
//	Sample                              — periodic statistics sampling
//
// The hot path mirrors Fig. 8 exactly: SegFromUser runs the handlers
// FEC-SFU1, SeqSeg-SFU, TDriver-SFU, FEC-SFU2, where TDriver-SFU raises
// Seg2Net synchronously and Seg2Net runs PAU-S2N, WFC-S2N, FEC-S2N,
// TD-S2N. All hot-path handlers are written in HIR so the optimizer can
// merge, subsume and fuse them; startup and timer-management handlers
// are native Go.
package ctp

import (
	"fmt"

	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
)

// Config parameterizes the protocol instance. All values have working
// defaults via DefaultConfig.
type Config struct {
	// MTU is the fragmentation threshold in bytes.
	MTU int
	// FECInterval sends one parity segment per this many data segments.
	FECInterval int
	// Window is the flow-control window (max unacknowledged segments).
	Window int
	// RTT is the simulated round-trip time to the receiver.
	RTT event.Duration
	// RetransmitTimeout is the per-segment retransmission deadline.
	RetransmitTimeout event.Duration
	// ControllerPeriod is the congestion-controller firing period.
	ControllerPeriod event.Duration
	// SamplePeriod is the statistics sampling period.
	SamplePeriod event.Duration
	// LossEvery drops every Nth transmitted segment (0 disables loss).
	LossEvery int
	// MaxRetransmits caps retransmission attempts per segment; a
	// negative value retries forever. Zero selects the default of 3.
	MaxRetransmits int
}

// DefaultConfig returns the configuration used by the video player
// experiments.
func DefaultConfig() Config {
	return Config{
		MTU:               1400,
		FECInterval:       8,
		Window:            64,
		RTT:               4e6,   // 4ms
		RetransmitTimeout: 40e6,  // 40ms
		ControllerPeriod:  20e6,  // 20ms
		SamplePeriod:      100e6, // 100ms
		LossEvery:         0,
		MaxRetransmits:    3,
	}
}

// Events groups the protocol's event IDs.
type Events struct {
	Open, AddSysInput, SendMsg                           event.ID
	MsgFromUserH, MsgFromUserL                           event.ID
	SegFromUser, Seg2Net, ResizeFragment                 event.ID
	SegmentSent, SegmentAcked, SegmentTimeout            event.ID
	Controller, ControllerFiring, ControllerFired, Adapt event.ID
	ControllerClkH, ControllerClkL, Sample               event.ID
}

// Stats are the sender-side native counters (HIR bookkeeping lives in
// the module's global cells; see CellNames).
type Stats struct {
	FramesSent  int
	Segments    int
	Parity      int
	Transmitted int
	Dropped     int
	Acked       int
	Retransmits int
	Timeouts    int
	Deferred    int
	Delivered   int
	Resizes     int
	SamplesRun  int
}

// Sender is a CTP protocol instance bound to one event system. It runs
// on one domain: like Stats, its payload buffers are unsynchronized and
// rely on the system serializing its handlers.
type Sender struct {
	Sys *event.System
	Mod *hirrt.Module
	Ev  Events
	Cfg Config

	Stats  Stats
	link   *link
	rto    map[int64]event.Timer // in-flight retransmission timers by seq
	segs   map[int64]inflightSeg // in-flight payloads for retransmission
	free   [][]byte              // released retransmit buffers, at most Window
	parity []byte                // FEC parity accumulator behind CellParity

	onDeliver func(seq int64, payload []byte)
	onSegment func(seq int64, payload []byte, parity bool)
	started   bool
}

// New builds a sender over a fresh event system with the given clock
// (pass event.WithClock(event.NewVirtualClock()) for determinism).
func New(cfg Config, opts ...event.Option) (*Sender, error) {
	if cfg.MTU <= 0 || cfg.Window <= 0 || cfg.FECInterval <= 0 {
		return nil, fmt.Errorf("ctp: invalid config %+v", cfg)
	}
	s := &Sender{
		Sys:  event.New(opts...),
		Cfg:  cfg,
		rto:  make(map[int64]event.Timer),
		segs: make(map[int64]inflightSeg),
	}
	s.Mod = hirrt.NewModule(s.Sys)
	s.link = &link{sender: s}
	s.defineEvents()
	s.registerIntrinsics()
	s.bindUserIn()
	s.bindSegFromUser()
	s.bindSeg2Net()
	s.bindReliability()
	s.bindController()
	s.bindStartup()
	// Working defaults so frames flow even before Open re-initializes
	// the session (tests and examples may skip Start).
	s.Mod.Globals.Set(CellWindow, hir.IntVal(int64(cfg.Window)))
	s.Mod.Globals.Set(CellParity, hir.BytesVal([]byte{}))
	return s, nil
}

func (s *Sender) defineEvents() {
	d := s.Sys.Define
	s.Ev = Events{
		Open: d("Open"), AddSysInput: d("AddSysInput"), SendMsg: d("SendMsg"),
		MsgFromUserH: d("MsgFromUserH"), MsgFromUserL: d("MsgFromUserL"),
		SegFromUser: d("SegFromUser"), Seg2Net: d("Seg2Net"),
		ResizeFragment: d("ResizeFragment"),
		SegmentSent:    d("SegmentSent"), SegmentAcked: d("SegmentAcked"),
		SegmentTimeout: d("SegmentTimeout"),
		Controller:     d("Controller"), ControllerFiring: d("ControllerFiring"),
		ControllerFired: d("ControllerFired"), Adapt: d("Adapt"),
		ControllerClkH: d("ControllerClkH"), ControllerClkL: d("ControllerClkL"),
		Sample: d("Sample"),
	}
}

// OnDeliver installs the receiver-side delivery callback. The payload is
// borrowed: it is a copy the link reuses for the next segment, valid
// until the callback returns, so a callback that keeps it must copy it.
// Writing to it changes nothing the sender sends later.
func (s *Sender) OnDeliver(fn func(seq int64, payload []byte)) { s.onDeliver = fn }

// OnSegment installs a richer delivery callback that also reports
// whether the segment is FEC parity; Receiver uses it. Its payload is
// borrowed like OnDeliver's.
func (s *Sender) OnSegment(fn func(seq int64, payload []byte, parity bool)) { s.onSegment = fn }

// AttachReceiver wires a reassembling Receiver to this sender's link and
// returns it. The receiver joins the stream at the sender's current
// position, so segments sent before attachment are not awaited.
func (s *Sender) AttachReceiver() *Receiver {
	r := NewReceiverAt(s.Cfg.FECInterval, s.Seq()+1)
	s.OnSegment(r.Segment)
	return r
}

// Start raises the startup events (the weight-1 edges of Fig. 5) and
// arms the controller and sampling clocks.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.Sys.Raise(s.Ev.Open)
	s.Sys.Raise(s.Ev.AddSysInput)
	s.Sys.Raise(s.Ev.SendMsg)
	s.Sys.RaiseAfter(s.Cfg.ControllerPeriod, s.Ev.ControllerClkH)
	s.Sys.RaiseAfter(s.Cfg.SamplePeriod, s.Ev.Sample)
}

// SendFrame pushes one application frame through the protocol. High
// priority frames enter through MsgFromUserH (the paper's video player
// distinguishes the two).
func (s *Sender) SendFrame(data []byte, highPriority bool) {
	s.Stats.FramesSent++
	ev := s.Ev.MsgFromUserL
	if highPriority {
		ev = s.Ev.MsgFromUserH
	}
	s.Sys.Raise(ev, event.Bytes("msg", data), event.Int("size", len(data)))
}

// Inflight reports the current number of unacknowledged segments as seen
// by the flow-control cell.
func (s *Sender) Inflight() int64 { return s.Mod.Globals.Get("inflight").Int() }

// Seq reports the last assigned sequence number.
func (s *Sender) Seq() int64 { return s.Mod.Globals.Get("seq").Int() }
