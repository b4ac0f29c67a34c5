package ctp

import (
	"bytes"
	"testing"

	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/profile"
	"eventopt/internal/trace"
)

// newTestSender builds a sender on a virtual clock.
func newTestSender(t *testing.T, mutate func(*Config)) *Sender {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg, event.WithClock(event.NewVirtualClock()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInvalidConfigRejected(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.MTU = 0 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.FECInterval = 0 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Error("invalid config accepted")
		}
	}
}

func TestSingleFrameFlowsThrough(t *testing.T) {
	s := newTestSender(t, nil)
	var delivered [][]byte
	s.OnDeliver(func(seq int64, p []byte) { delivered = append(delivered, bytes.Clone(p)) })
	s.Start()
	payload := bytes.Repeat([]byte{0xAA}, 600)
	s.SendFrame(payload, true)
	s.Sys.DrainFor(1e9) // clocks self-reschedule; bound the horizon
	if len(delivered) != 1 {
		t.Fatalf("delivered = %d", len(delivered))
	}
	if !bytes.Equal(delivered[0], payload) {
		t.Error("payload corrupted")
	}
	if s.Seq() != 1 {
		t.Errorf("seq = %d", s.Seq())
	}
	if s.Stats.Acked != 1 {
		t.Errorf("acked = %d", s.Stats.Acked)
	}
	if s.Inflight() != 0 {
		t.Errorf("inflight = %d after ack", s.Inflight())
	}
}

func TestFragmentation(t *testing.T) {
	s := newTestSender(t, func(c *Config) { c.MTU = 100 })
	var sizes []int
	s.OnDeliver(func(seq int64, p []byte) { sizes = append(sizes, len(p)) })
	s.SendFrame(make([]byte, 250), false)
	s.Sys.Drain() // no Start: no self-rescheduling clocks armed
	if s.Stats.Segments != 3 {
		t.Errorf("segments = %d, want 3", s.Stats.Segments)
	}
	if len(sizes) != 3 || sizes[0] != 100 || sizes[1] != 100 || sizes[2] != 50 {
		t.Errorf("sizes = %v", sizes)
	}
}

// TestFragmentsArriveWithoutSpareCapacity: fragHandler raises
// msg[off:end], whose spare capacity is the next fragment. Each segment
// must arrive with cap == len, so a SegFromUser handler that appends to
// its segment reallocates instead of overwriting the following one.
func TestFragmentsArriveWithoutSpareCapacity(t *testing.T) {
	s := newTestSender(t, func(c *Config) { c.MTU = 100 })
	s.Sys.Bind(s.Ev.SegFromUser, "grow", func(c *event.Ctx) {
		seg := c.Args.Bytes("seg")
		if cap(seg) != len(seg) {
			t.Errorf("segment of %d bytes arrived with cap %d", len(seg), cap(seg))
		}
		_ = append(seg, 0xEE)
	}, event.WithOrder(0))
	var got []byte
	s.OnDeliver(func(seq int64, p []byte) { got = append(got, p...) })
	frame := make([]byte, 250)
	for i := range frame {
		frame[i] = byte(i)
	}
	want := bytes.Clone(frame)
	s.SendFrame(frame, false)
	s.Sys.Drain()
	if !bytes.Equal(frame, want) || !bytes.Equal(got, want) {
		t.Fatal("a segment handler's append overwrote the next fragment")
	}
}

func TestEmptyFrameStillMakesOneSegment(t *testing.T) {
	s := newTestSender(t, nil)
	n := 0
	s.OnDeliver(func(int64, []byte) { n++ })
	s.SendFrame(nil, false)
	s.Sys.Drain()
	if n != 1 {
		t.Errorf("delivered = %d", n)
	}
}

func TestFECParityEmission(t *testing.T) {
	s := newTestSender(t, func(c *Config) { c.FECInterval = 4 })
	s.Start()
	for i := 0; i < 8; i++ {
		s.SendFrame([]byte{byte(i), 1, 2}, false)
	}
	s.Sys.DrainFor(1e9)
	if got := s.Mod.Globals.Get(CellFECOut).Int(); got != 2 {
		t.Errorf("parity segments = %d, want 2", got)
	}
	// 8 data + 2 parity transmissions.
	if s.Stats.Transmitted != 10 {
		t.Errorf("transmitted = %d, want 10", s.Stats.Transmitted)
	}
	// Parity accumulator reset after emission.
	if len(s.Mod.Globals.Get(CellParity).Bytes()) != 0 {
		t.Error("parity not reset")
	}
}

func TestFECParityContent(t *testing.T) {
	s := newTestSender(t, func(c *Config) { c.FECInterval = 2 })
	var got [][]byte
	s.OnDeliver(func(seq int64, p []byte) { got = append(got, bytes.Clone(p)) })
	s.SendFrame([]byte{0xF0, 0x0F}, false)
	s.SendFrame([]byte{0x0F, 0x0F}, false)
	s.Sys.Drain()
	if len(got) != 3 {
		t.Fatalf("deliveries = %d", len(got))
	}
	want := []byte{0xFF, 0x00}
	if !bytes.Equal(got[2], want) {
		t.Errorf("parity = %x, want %x", got[2], want)
	}
}

func TestFlowControlDefersOverWindow(t *testing.T) {
	s := newTestSender(t, func(c *Config) { c.Window = 2; c.RTT = 1e9 })
	s.Start()
	for i := 0; i < 5; i++ {
		s.SendFrame([]byte{1}, false)
	}
	// No Drain yet: acks have not arrived; only 2 segments fit the window.
	if s.Stats.Deferred != 3 {
		t.Errorf("deferred = %d, want 3", s.Stats.Deferred)
	}
	if s.Stats.Transmitted != 2 {
		t.Errorf("transmitted = %d, want 2", s.Stats.Transmitted)
	}
	if s.Inflight() != 2 {
		t.Errorf("inflight = %d", s.Inflight())
	}
}

func TestLossTriggersRetransmit(t *testing.T) {
	s := newTestSender(t, func(c *Config) { c.LossEvery = 2; c.FECInterval = 1000 })
	s.Start()
	s.SendFrame([]byte{1}, false)
	s.SendFrame([]byte{2}, false) // this transmission is dropped
	s.Sys.DrainFor(1e9)
	if s.Stats.Dropped == 0 {
		t.Fatal("no loss simulated")
	}
	if s.Stats.Retransmits == 0 {
		t.Error("no retransmission after loss")
	}
	if s.Stats.Timeouts == 0 {
		t.Error("no timeout fired")
	}
}

func TestRetransmitGivesUpAfterAttempts(t *testing.T) {
	s := newTestSender(t, func(c *Config) { c.LossEvery = 1; c.FECInterval = 1000 })
	s.Start()
	s.SendFrame([]byte{1}, false)
	s.Sys.DrainFor(1e9)
	// Every transmission is lost; attempts must stop at the cap.
	if s.Stats.Retransmits != 3 {
		t.Errorf("retransmits = %d, want 3", s.Stats.Retransmits)
	}
	if len(s.segs) != 0 {
		t.Error("segment not abandoned after giving up")
	}
}

func TestControllerChainFires(t *testing.T) {
	s := newTestSender(t, func(c *Config) { c.ControllerPeriod = 10e6 })
	s.Start()
	s.Sys.DrainFor(100e6) // 100ms of virtual time
	firings := s.Mod.Globals.Get(CellFirings).Int()
	if firings < 8 {
		t.Errorf("controller firings = %d, want ~10", firings)
	}
	if got := s.Mod.Globals.Get(CellAdapts).Int(); got != firings {
		t.Errorf("adapts = %d, want %d (one per firing)", got, firings)
	}
	// Resize requested every 8th adaptation round.
	if s.Stats.Resizes == 0 {
		t.Error("no fragment resizes")
	}
	if s.Stats.SamplesRun == 0 {
		t.Error("sampler never ran")
	}
}

func TestWindowAdaptsUnderCongestion(t *testing.T) {
	s := newTestSender(t, func(c *Config) { c.Window = 8; c.RTT = 1e9 })
	s.Start()
	w0 := int64(8)
	for i := 0; i < 20; i++ {
		s.SendFrame([]byte{1}, false)
	}
	// Congestion: deferred > 0. Run one controller firing.
	s.Sys.DrainFor(s.Cfg.ControllerPeriod + 1e6)
	if got := s.Mod.Globals.Get(CellWindow).Int(); got >= w0 {
		t.Errorf("window = %d, want < %d after congestion", got, w0)
	}
}

func TestEventGraphHasFig5Shape(t *testing.T) {
	s := newTestSender(t, nil)
	rec := trace.NewRecorder()
	s.Sys.SetTracer(rec)
	s.Start()
	for i := 0; i < 40; i++ {
		s.SendFrame(make([]byte, 500), i%10 == 0)
		s.Sys.DrainFor(event.Duration((i + 1)) * 25e6)
	}
	s.Sys.SetTracer(nil)
	g := profile.BuildEventGraph(rec.Entries())

	find := func(name string) event.ID { return s.Sys.Lookup(name) }
	sfu, s2n := find("SegFromUser"), find("Seg2Net")
	if e := g.EdgeBetween(sfu, s2n); e == nil || !e.Sync() || e.Weight < 40 {
		t.Errorf("SegFromUser->Seg2Net edge = %+v", e)
	}
	ctl, fir := find("Controller"), find("ControllerFiring")
	if e := g.EdgeBetween(ctl, fir); e == nil || !e.Sync() {
		t.Errorf("Controller->ControllerFiring edge = %+v", e)
	}
	fd, ad := find("ControllerFired"), find("Adapt")
	if e := g.EdgeBetween(fd, ad); e == nil || !e.Sync() {
		t.Errorf("ControllerFired->Adapt edge = %+v", e)
	}
	// Chain extraction finds the controller chain (headed by one of the
	// alternating clock events, per Fig. 5's bold edges).
	chains := g.Reduce(5).Chains()
	foundCtl := false
	for _, c := range chains {
		for i := 0; i+3 < len(c); i++ {
			if c[i] == ctl && c[i+1] == fir && c[i+2] == fd && c[i+3] == ad {
				foundCtl = true
			}
		}
	}
	if !foundCtl {
		t.Errorf("controller chain not extracted; chains = %v", chains)
	}
}

// optimizeSender profiles a workload and installs the resulting plan.
func optimizeSender(t *testing.T, s *Sender, opts core.Options) {
	t.Helper()
	i := 0
	planSender(t, s, opts, 60, func() {
		s.SendFrame(make([]byte, 700), i%10 == 0)
		i++
		s.Sys.DrainFor(event.Duration(i) * 20e6)
	})
}

// planSender traces frames calls of send and installs the plan the
// profile yields.
func planSender(t *testing.T, s *Sender, opts core.Options, frames int, send func()) {
	t.Helper()
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	s.Sys.SetTracer(rec)
	for i := 0; i < frames; i++ {
		send()
	}
	s.Sys.SetTracer(nil)
	prof, err := profile.Analyze(rec.Entries())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Apply(s.Sys, prof, s.Mod, opts); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizedSenderEquivalence(t *testing.T) {
	run := func(s *Sender) (Stats, map[string]int64) {
		s.Start()
		for i := 0; i < 50; i++ {
			s.SendFrame(make([]byte, 900), i%5 == 0)
			s.Sys.DrainFor(event.Duration(i+1) * 10e6)
		}
		s.Sys.DrainFor(2e9)
		cells := map[string]int64{}
		for _, c := range []string{CellSeq, CellAcked, CellBytesOut, CellFECOut, CellFramesIn, CellSent} {
			cells[c] = s.Mod.Globals.Get(c).Int()
		}
		return s.Stats, cells
	}

	ref := newTestSender(t, nil)
	wantStats, wantCells := run(ref)

	opt := newTestSender(t, nil)
	optimizeSender(t, opt, core.DefaultOptions())
	// Reset protocol state that profiling touched.
	for _, c := range opt.Mod.Globals.Names() {
		opt.Mod.Globals.Set(c, opt.Mod.Globals.Get(c)) // keep; cells reset below
	}
	// Rebuild a fresh optimized sender instead: profile on a twin, then
	// transplant the plan is not possible across systems, so compare a
	// fresh reference against the post-profile deltas instead.
	optStats0 := opt.Stats
	cells0 := map[string]int64{}
	for _, c := range []string{CellSeq, CellAcked, CellBytesOut, CellFECOut, CellFramesIn, CellSent} {
		cells0[c] = opt.Mod.Globals.Get(c).Int()
	}
	gotStats, gotCells := run(opt)

	if d := gotStats.Acked - optStats0.Acked; d != wantStats.Acked {
		t.Errorf("acked delta = %d, want %d", d, wantStats.Acked)
	}
	if d := gotStats.Transmitted - optStats0.Transmitted; d != wantStats.Transmitted {
		t.Errorf("transmitted delta = %d, want %d", d, wantStats.Transmitted)
	}
	for c, want := range wantCells {
		if d := gotCells[c] - cells0[c]; d != want {
			t.Errorf("cell %s delta = %d, want %d", c, d, want)
		}
	}
	if opt.Sys.Stats().FastRuns.Load() == 0 {
		t.Error("optimized sender never used a fast path")
	}
}

func TestOptimizedSenderFullFusion(t *testing.T) {
	opt := newTestSender(t, nil)
	opts := core.DefaultOptions()
	opts.FullFusion = true
	opts.Partitioned = false
	optimizeSender(t, opt, opts)
	opt.Sys.Stats().Reset()
	opt.Start()
	for i := 0; i < 20; i++ {
		opt.SendFrame(make([]byte, 800), false)
	}
	opt.Sys.DrainFor(1e9)
	if opt.Sys.Stats().FastRuns.Load() == 0 {
		t.Error("no fast runs under full fusion")
	}
	if got := opt.Seq(); got < 20 {
		t.Errorf("seq = %d, want >= 20", got)
	}
}
