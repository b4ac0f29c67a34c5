package faultinject_test

// Chaos tests: the paper's workloads (SecComm, the CTP video player) run
// under injected faults with the full optimization stack installed, and
// the supervision layer must keep them live — no escaped panic, faulting
// super-handlers auto-deoptimized with generic replay, quarantined
// handlers re-admitted — with bit-for-bit reproducible statistics, since
// both the injector and the runtime (virtual clock, deterministic
// backoff) are seeded.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"eventopt/internal/core"
	"eventopt/internal/ctp"
	"eventopt/internal/event"
	"eventopt/internal/faultinject"
	"eventopt/internal/hir"
	"eventopt/internal/profile"
	"eventopt/internal/seccomm"
	"eventopt/internal/telemetry"
	"eventopt/internal/trace"
	"eventopt/internal/video"
)

func seccommConfig() seccomm.Config {
	return seccomm.Config{
		DESKey: []byte("8bytekey"),
		XORKey: []byte{0x5A, 0xA5, 0x3C},
		IV:     []byte("initvect"),
	}
}

// optimize profiles n pushes on e and installs the full optimization
// stack, returning the install handle (for eviction inspection).
func optimize(t *testing.T, e *seccomm.Endpoint, n int, opts core.Options) *core.Installed {
	t.Helper()
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	e.Sys.SetTracer(rec)
	for i := 0; i < n; i++ {
		e.Push([]byte("profile message"))
	}
	e.Sys.SetTracer(nil)
	prof, err := profile.Analyze(rec.Entries())
	if err != nil {
		t.Fatal(err)
	}
	_, ins, err := core.Apply(e.Sys, prof, e.Mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// chaosOutcome is everything a chaos run observes; runs with the same
// seed must produce identical outcomes.
type chaosOutcome struct {
	sent, injected                             int
	recovered, quarantines, reinstates, deopts int64
	evicted                                    int
}

// runSeccommChaos drives the acceptance scenario: SecComm with the full
// optimization stack, a ~1% panic rate injected into the xor_apply
// intrinsic, Quarantine supervision on a virtual clock.
func runSeccommChaos(t *testing.T, seed int64, pushes int) chaosOutcome {
	t.Helper()
	e, err := seccomm.New(seccommConfig(),
		event.WithClock(event.NewVirtualClock()),
		event.WithFaultConfig(event.FaultConfig{
			Policy:           event.Quarantine,
			FailureThreshold: 1,
			Backoff:          50 * event.Duration(1e6),
		}))
	if err != nil {
		t.Fatal(err)
	}
	ins := optimize(t, e, 50, core.DefaultOptions())
	if e.Sys.FastPath(e.MsgFromUser) == nil {
		t.Fatal("optimization did not install a fast path on msgFromUser")
	}

	// Interpose injection after optimization: interpreted fused bodies
	// call through the intrinsic's slot, which WrapIntrinsic updates in
	// place, so the installed super-handler faults too.
	inj := faultinject.New(seed)
	inj.SetRate(0.01)
	if !e.Mod.WrapIntrinsic("xor_apply", func(base hir.Intrinsic) hir.Intrinsic {
		return inj.Intrinsic("xor_apply", base)
	}) {
		t.Fatal("xor_apply intrinsic not found")
	}

	sent := 0
	e.OnSend(func([]byte) { sent++ })
	for i := 0; i < pushes; i++ {
		e.Push([]byte(fmt.Sprintf("chaos message %04d", i)))
		e.Sys.Drain() // fires due re-admission timers (virtual clock)
	}
	e.Sys.Drain() // re-admit any binding still quarantined

	st := e.Sys.Stats()
	return chaosOutcome{
		sent:        sent,
		injected:    inj.Injected(),
		recovered:   st.PanicsRecovered.Load(),
		quarantines: st.Quarantines.Load(),
		reinstates:  st.Reinstates.Load(),
		deopts:      st.Deopts.Load(),
		evicted:     len(ins.Evicted()),
	}
}

func TestSeccommChaosQuarantineConvergence(t *testing.T) {
	pushes := 2000
	if testing.Short() {
		pushes = 400
	}
	seed := faultinject.Seed(t, 42)
	o := runSeccommChaos(t, seed, pushes)

	// Liveness: every push made it to the wire despite the faults (a
	// quarantined privacy stage degrades the message, it does not drop it).
	if o.sent != pushes {
		t.Errorf("sent %d of %d pushes", o.sent, pushes)
	}
	if o.injected == 0 {
		t.Fatal("the 1%% rate injected nothing; pick another seed")
	}
	// Every injected panic was recovered — none escaped to the test.
	if o.recovered != int64(o.injected) {
		t.Errorf("PanicsRecovered = %d, injected = %d", o.recovered, o.injected)
	}
	// Faults inside installed super-handlers auto-deoptimized them (the
	// plan covers the push chain with more than one entry, so each entry
	// is evicted by the first fault that hits it), all visible through
	// the install handle.
	if o.deopts < 1 || int64(o.evicted) != o.deopts {
		t.Errorf("Deopts = %d, Evicted = %d, want >=1 and equal", o.deopts, o.evicted)
	}
	// Each generic fault trips the breaker (threshold 1); the fast-path
	// fault is accounted by its generic replay instead.
	if o.quarantines != int64(o.injected)-o.deopts {
		t.Errorf("Quarantines = %d, want injected-deopts = %d", o.quarantines, int64(o.injected)-o.deopts)
	}
	// Convergence: every quarantine episode ended in a re-admission.
	if o.reinstates != o.quarantines {
		t.Errorf("Reinstates = %d, Quarantines = %d", o.reinstates, o.quarantines)
	}

	// Determinism: an identical run produces the identical outcome.
	if o2 := runSeccommChaos(t, seed, pushes); o2 != o {
		t.Errorf("same seed diverged:\n  run1 %+v\n  run2 %+v", o, o2)
	}
	// And a different seed drives a genuinely different schedule.
	if o3 := runSeccommChaos(t, seed+7, pushes); o3.injected == o.injected && o3.quarantines == o.quarantines {
		t.Logf("note: seeds %d and %d coincided on %d injections", seed, seed+7, o.injected)
	}
}

func TestSeccommDeoptReplayHealsFaultedMessage(t *testing.T) {
	// A single fault inside the super-handler must not lose or corrupt the
	// message: the runtime deoptimizes and replays the whole activation
	// generically, so the pop side decodes every message intact.
	a, err := seccomm.New(seccommConfig(), event.WithFaultPolicy(event.Isolate))
	if err != nil {
		t.Fatal(err)
	}
	b, err := seccomm.New(seccommConfig())
	if err != nil {
		t.Fatal(err)
	}
	a.OnSend(func(pkt []byte) { b.HandlePacket(append([]byte(nil), pkt...)) })
	var got [][]byte
	b.OnDeliver(func(m []byte) { got = append(got, append([]byte(nil), m...)) })

	optimize(t, a, 50, core.DefaultOptions())
	got = nil // discard profiling traffic

	inj := faultinject.New(1)
	inj.FailOnCall("xor_apply", 37)
	if !a.Mod.WrapIntrinsic("xor_apply", func(base hir.Intrinsic) hir.Intrinsic {
		return inj.Intrinsic("xor_apply", base)
	}) {
		t.Fatal("xor_apply intrinsic not found")
	}

	const n = 100
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		want[i] = []byte(fmt.Sprintf("payload %03d", i))
		a.Push(want[i])
	}

	if inj.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", inj.Injected())
	}
	st := a.Sys.Stats()
	if st.Deopts.Load() != 1 || a.Sys.FastPath(a.MsgFromUser) != nil {
		t.Errorf("Deopts = %d, FastPath installed = %v", st.Deopts.Load(), a.Sys.FastPath(a.MsgFromUser) != nil)
	}
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("message %d corrupted: %q vs %q", i, got[i], want[i])
		}
	}
	if b.Errors != 0 {
		t.Errorf("pop-side errors = %d", b.Errors)
	}
}

func TestSeccommSurvivingTraceMatchesGenericDispatch(t *testing.T) {
	// After the deopt the system is fully generic; from that point the
	// optimized-then-deoptimized endpoint and a never-optimized endpoint
	// must produce identical handler traces for the same pushes.
	run := func(opt bool) []trace.Entry {
		e, err := seccomm.New(seccommConfig(), event.WithFaultPolicy(event.Isolate))
		if err != nil {
			t.Fatal(err)
		}
		if opt {
			optimize(t, e, 50, core.DefaultOptions())
			// The plan installs two entries (the msgFromUser chain and a
			// pushMsg entry for direct raises). Fault call 1 to deopt the
			// chain; its generic replay then re-raises pushMsg, whose own
			// fast path faults on call 2 and deopts too — one push
			// degrades the system all the way back to generic dispatch.
			inj := faultinject.New(1)
			inj.FailOnCall("xor_apply", 1)
			inj.FailOnCall("xor_apply", 2)
			e.Mod.WrapIntrinsic("xor_apply", func(base hir.Intrinsic) hir.Intrinsic {
				return inj.Intrinsic("xor_apply", base)
			})
			e.Push([]byte("the faulting push"))
			if e.Sys.FastPath(e.MsgFromUser) != nil || e.Sys.FastPath(e.PushMsg) != nil {
				t.Fatal("a fast path survived the faults")
			}
		}
		rec := trace.NewRecorder()
		rec.EnableHandlerProfiling()
		e.Sys.SetTracer(rec)
		for i := 0; i < 20; i++ {
			e.Push([]byte(fmt.Sprintf("steady message %02d", i)))
		}
		e.Sys.SetTracer(nil)
		return rec.Entries()
	}

	after, generic := run(true), run(false)
	if len(after) != len(generic) {
		t.Fatalf("trace lengths differ: %d vs %d", len(after), len(generic))
	}
	for i := range after {
		if after[i].Kind != generic[i].Kind ||
			after[i].EventName != generic[i].EventName ||
			after[i].Handler != generic[i].Handler ||
			after[i].Depth != generic[i].Depth {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, after[i], generic[i])
		}
	}
}

// runSeccommTwoDomainChaos drives one sharded chaos run: SecComm split
// over two event domains (push chain pinned to domain 0, pop chain to
// domain 1), a chaos handler panicking on every call in each chain, and
// threshold-1 Quarantine supervision. It returns the outcome counters.
func runSeccommTwoDomainChaos(t *testing.T, seed int64, msgs int) (sent, delivered int, injected int, st event.StatsSnapshot) {
	t.Helper()
	e, err := seccomm.New(seccommConfig(),
		event.WithDomains(2),
		event.WithClock(event.NewVirtualClock()),
		event.WithFaultConfig(event.FaultConfig{
			Policy:           event.Quarantine,
			FailureThreshold: 1,
			Backoff:          50 * event.Duration(1e6),
		}))
	if err != nil {
		t.Fatal(err)
	}
	// Explicit affinity: the whole push chain enters through msgFromUser
	// (domain 0), the pop chain through msgFromNet (domain 1). Nested
	// raises run inline, so each chain's faults land in its own domain.
	if err := e.Sys.PinEvent(e.MsgFromUser, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Sys.PinEvent(e.MsgFromNet, 1); err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(seed)
	inj.SetRate(1) // every chaos-handler call panics until quarantined
	inj.BindChaos(e.Sys, e.PushMsg, "push-chaos", -100)
	inj.BindChaos(e.Sys, e.PopMsg, "pop-chaos", -100)

	var wire [][]byte
	e.OnSend(func(p []byte) { sent++; wire = append(wire, append([]byte(nil), p...)) })
	e.OnDeliver(func([]byte) { delivered++ })

	for i := 0; i < msgs; i++ {
		e.Push([]byte(fmt.Sprintf("sharded chaos %03d", i)))
	}

	// Per-domain quarantine state: exactly one binding tripped per domain
	// side so far (the virtual clock has not advanced, so no re-admission
	// can have raced the assertion).
	if got := e.Sys.DomainQuarantineCount(0); got != 1 {
		t.Errorf("DomainQuarantineCount(0) = %d, want 1", got)
	}
	if got := e.Sys.DomainQuarantineCount(1); got != 0 {
		t.Errorf("DomainQuarantineCount(1) = %d before pops, want 0", got)
	}
	if !e.Sys.IsQuarantined(e.PushMsg, "push-chaos") {
		t.Error("push-chaos not quarantined")
	}

	for _, p := range wire {
		e.HandlePacket(p)
	}
	if got := e.Sys.DomainQuarantineCount(1); got != 1 {
		t.Errorf("DomainQuarantineCount(1) = %d, want 1", got)
	}
	if got := e.Sys.QuarantineCount(); got != 2 {
		t.Errorf("QuarantineCount = %d, want 2", got)
	}

	// Advancing virtual time re-admits both breakers through their own
	// domains' timer heaps; the chaos handlers immediately fault again and
	// re-quarantine, so Drain converges with the bindings parked.
	e.Sys.Drain()
	injected = inj.Injected()
	return sent, delivered, injected, e.Sys.Stats().Snapshot()
}

func TestSeccommTwoDomainChaosQuarantinePerDomain(t *testing.T) {
	msgs := 200
	if testing.Short() {
		msgs = 50
	}
	seed := faultinject.Seed(t, 42)
	sent, delivered, injected, st := runSeccommTwoDomainChaos(t, seed, msgs)

	// Liveness: the chaos handlers are skipped once quarantined; every
	// message still crossed the wire and decoded.
	if sent != msgs {
		t.Errorf("sent %d of %d", sent, msgs)
	}
	if delivered != msgs {
		t.Errorf("delivered %d of %d", delivered, msgs)
	}
	if injected == 0 {
		t.Fatal("nothing injected")
	}
	if st.PanicsRecovered != int64(injected) {
		t.Errorf("PanicsRecovered = %d, injected = %d", st.PanicsRecovered, injected)
	}
	if st.Quarantines < 2 {
		t.Errorf("Quarantines = %d, want >= 2 (one per domain)", st.Quarantines)
	}

	// Determinism: the sharded run is still fully reproducible — domains
	// only parallelize independent work, the per-domain schedules are
	// unchanged.
	sent2, delivered2, injected2, st2 := runSeccommTwoDomainChaos(t, seed, msgs)
	if sent2 != sent || delivered2 != delivered || injected2 != injected || st2 != st {
		t.Errorf("same seed diverged:\n  run1 sent %d delivered %d injected %d %+v\n  run2 sent %d delivered %d injected %d %+v",
			sent, delivered, injected, st, sent2, delivered2, injected2, st2)
	}
}

func TestVideoPlayerChaosLivenessAndDeterminism(t *testing.T) {
	frames := 150
	if testing.Short() {
		frames = 40
	}
	run := func(rate float64, seed int64) (video.Result, int, int64) {
		p, err := video.NewPlayer(ctp.DefaultConfig(), 30, 4*1024)
		if err != nil {
			t.Fatal(err)
		}
		p.Sender.Sys.SetFaultConfig(event.FaultConfig{Policy: event.Isolate})
		inj := faultinject.New(seed)
		inj.SetRate(rate)
		// A chaos handler ahead of the real SegFromUser handlers: its
		// panics are isolated, the segment pipeline still runs.
		inj.BindChaos(p.Sender.Sys, p.Sender.Ev.SegFromUser, "seg-chaos", -100)
		res := p.Run(frames)
		return res, inj.Injected(), p.Sender.Sys.Stats().PanicsRecovered.Load()
	}

	seed := faultinject.Seed(t, 11)
	baseline, _, _ := run(0, seed)
	res, injected, recovered := run(0.02, seed)
	if injected == 0 {
		t.Fatal("no faults injected; raise the rate or change the seed")
	}
	if recovered != int64(injected) {
		t.Errorf("PanicsRecovered = %d, injected = %d", recovered, injected)
	}
	// Liveness: isolated chaos panics cost the protocol nothing — the
	// chaos run matches the fault-free baseline segment for segment.
	if res.Delivered != baseline.Delivered || res.Stats != baseline.Stats {
		t.Errorf("chaos run diverged from baseline:\n  base  %+v (delivered %d)\n  chaos %+v (delivered %d)",
			baseline.Stats, baseline.Delivered, res.Stats, res.Delivered)
	}
	if res.Stats.FramesSent != frames {
		t.Errorf("FramesSent = %d, want %d", res.Stats.FramesSent, frames)
	}

	res2, injected2, recovered2 := run(0.02, seed)
	if injected2 != injected || recovered2 != recovered ||
		res2.Delivered != res.Delivered || res2.Stats != res.Stats {
		t.Errorf("same seed diverged:\n  run1 %+v (inj %d)\n  run2 %+v (inj %d)",
			res.Stats, injected, res2.Stats, injected2)
	}
}

// TestSeccommChaosFlightRecorderDump verifies the flight recorder under
// injected faults: a chaos handler on the push chain faults three times
// in a row, the quarantine breaker trips, and the automatic dump must
// contain the faulting activation — correctly attributed, marked
// faulted, with the injected panic as its cause — while concurrent
// snapshot readers hammer the ring for the race detector.
func TestSeccommChaosFlightRecorderDump(t *testing.T) {
	pushes := 400
	if testing.Short() {
		pushes = 120
	}
	e, err := seccomm.New(seccommConfig(),
		event.WithClock(event.NewVirtualClock()),
		event.WithTelemetry(telemetry.Config{RingSize: 64}),
		event.WithFaultConfig(event.FaultConfig{
			Policy:           event.Quarantine,
			FailureThreshold: 3,
			Backoff:          50 * event.Duration(1e6),
		}))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(7)
	inj.BindChaos(e.Sys, e.MsgFromUser, "push-chaos", 99)
	// Three consecutive faults starting mid-run trip the breaker.
	inj.FailOnCall("push-chaos", 50)
	inj.FailOnCall("push-chaos", 51)
	inj.FailOnCall("push-chaos", 52)

	tel := e.Sys.Telemetry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, r := range tel.FlightRecords(0) {
					if r.Outcome == telemetry.OutcomeFault && r.Cause == "" {
						panic("faulted flight record without a cause")
					}
				}
				tel.Graph()
				tel.Events()
			}
		}()
	}

	for i := 0; i < pushes; i++ {
		e.Push([]byte(fmt.Sprintf("chaos message %04d", i)))
		e.Sys.Drain()
	}
	close(stop)
	wg.Wait()

	if got := inj.Injected(); got != 3 {
		t.Fatalf("injected %d faults, want 3", got)
	}
	d := tel.LastDump()
	if d == nil {
		t.Fatal("quarantine trip produced no flight dump")
	}
	if !strings.Contains(d.Reason, "quarantine") || !strings.Contains(d.Reason, "push-chaos") {
		t.Fatalf("dump reason = %q, want quarantine of push-chaos", d.Reason)
	}
	if d.Domain != 0 || len(d.Records) == 0 {
		t.Fatalf("unexpected dump shape: domain %d, %d records", d.Domain, len(d.Records))
	}
	// The newest record in the dump is the activation that tripped the
	// breaker: the faulted msgFromUser raise with the injected cause.
	last := d.Records[len(d.Records)-1]
	if last.Outcome != telemetry.OutcomeFault {
		t.Fatalf("newest dumped record not faulted: %+v", last)
	}
	if !strings.Contains(last.Cause, "faultinject") || !strings.Contains(last.Cause, "push-chaos") {
		t.Fatalf("dumped cause = %q, want the injected fault", last.Cause)
	}
	if e.Sys.EventName(event.ID(last.Event)) != last.Name {
		t.Fatalf("record name %q does not match event %d", last.Name, last.Event)
	}
	faulted := 0
	for _, r := range d.Records {
		if r.Outcome == telemetry.OutcomeFault {
			faulted++
		}
	}
	// All three consecutive faults landed inside the 64-record window.
	if faulted != 3 {
		t.Fatalf("dump contains %d faulted records, want 3", faulted)
	}
}
