package video

import (
	"reflect"
	"testing"
	"time"

	"eventopt/internal/core"
	"eventopt/internal/ctp"
	"eventopt/internal/event"
	"eventopt/internal/profile"
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
	"eventopt/internal/trace"
)

func newPlayer(t *testing.T, rate int) *Player {
	t.Helper()
	p, err := NewPlayer(ctp.DefaultConfig(), rate, 900)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlayerValidation(t *testing.T) {
	if _, err := NewPlayer(ctp.DefaultConfig(), 0, 100); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewPlayer(ctp.DefaultConfig(), 10, -1); err == nil {
		t.Error("negative size accepted")
	}
	bad := ctp.DefaultConfig()
	bad.MTU = 0
	if _, err := NewPlayer(bad, 10, 100); err == nil {
		t.Error("bad protocol config accepted")
	}
}

func TestRunDeliversAllFrames(t *testing.T) {
	p := newPlayer(t, 25)
	res := p.Run(50)
	if res.Stats.FramesSent != 50 {
		t.Errorf("frames = %d", res.Stats.FramesSent)
	}
	if res.Delivered < 50 {
		t.Errorf("delivered = %d, want >= 50 (incl. parity)", res.Delivered)
	}
	if res.Stats.Acked != res.Stats.Transmitted {
		t.Errorf("acked %d != transmitted %d on a lossless link", res.Stats.Acked, res.Stats.Transmitted)
	}
	// 50 frames at 25fps = 2s of virtual time, plus the settling horizon.
	if res.VirtualDuration < 2e9 {
		t.Errorf("virtual duration = %v", res.VirtualDuration)
	}
	if res.EventTime <= 0 {
		t.Error("event time not measured")
	}
	// Controller ran throughout.
	if res.Stats.SamplesRun == 0 {
		t.Error("sampler never ran")
	}
}

func TestDecodeWorkMeasured(t *testing.T) {
	p := newPlayer(t, 10)
	p.DecodeWork = 200000
	res := p.Run(5)
	if res.DecodeTime <= 0 {
		t.Error("decode time not measured")
	}
	if res.BusyTime() != res.EventTime+res.DecodeTime {
		t.Error("BusyTime mismatch")
	}
}

func TestModeledTotalIdleAbsorption(t *testing.T) {
	r := Result{Frames: 10, EventTime: 2 * time.Millisecond, DecodeTime: 3 * time.Millisecond}
	// Large budget: total == budget (idle absorbs busy time).
	if got := r.ModeledTotal(10 * time.Millisecond); got != 100*time.Millisecond {
		t.Errorf("idle-dominated total = %v", got)
	}
	// Tiny budget: total == busy.
	if got := r.ModeledTotal(100 * time.Microsecond); got != 5*time.Millisecond {
		t.Errorf("busy-dominated total = %v", got)
	}
}

func TestTraceGraphMatchesFig5Spine(t *testing.T) {
	p := newPlayer(t, 25)
	entries := p.Trace(60)
	if len(entries) == 0 {
		t.Fatal("no trace")
	}
	// The hot spine must dominate: SegFromUser -> Seg2Net weight equals
	// segments+ (parity raises land inside SegFromUser handlers too).
	sys := p.Sender.Sys
	g := profile.BuildEventGraph(entries)
	e := g.EdgeBetween(sys.Lookup("SegFromUser"), sys.Lookup("Seg2Net"))
	if e == nil || e.Weight < 60 {
		t.Fatalf("hot edge = %+v", e)
	}
}

func TestOptimizeEquivalentResults(t *testing.T) {
	ref := newPlayer(t, 25)
	want := ref.Run(40)

	opt := newPlayer(t, 25)
	plan, err := opt.Optimize(60, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) == 0 {
		t.Fatal("empty plan")
	}
	got := opt.Run(40)
	if got.Stats.FramesSent != want.Stats.FramesSent ||
		got.Stats.Transmitted != want.Stats.Transmitted ||
		got.Stats.Acked != want.Stats.Acked ||
		got.Delivered != want.Delivered {
		t.Errorf("optimized run diverges: %+v vs %+v", got.Stats, want.Stats)
	}
	if opt.Sender.Sys.Stats().FastRuns.Load() == 0 {
		t.Error("no fast runs after optimize")
	}
}

func TestOptimizeFullFusion(t *testing.T) {
	opt := newPlayer(t, 25)
	opts := core.DefaultOptions()
	opts.FullFusion = true
	opts.Partitioned = false
	if _, err := opt.Optimize(60, opts); err != nil {
		t.Fatal(err)
	}
	got := opt.Run(30)
	if got.Stats.FramesSent != 30 || got.Stats.Acked != got.Stats.Transmitted {
		t.Errorf("full-fusion run broken: %+v", got.Stats)
	}
}

func TestPlaybackThroughReceiver(t *testing.T) {
	cfg := ctp.DefaultConfig()
	cfg.LossEvery = 9 // periodic loss: FEC and retransmission both engage
	cfg.FECInterval = 4
	p, err := NewPlayer(cfg, 25, 700)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Playback()
	var lens []int
	r.OnFrame = func(seq int64, payload []byte) { lens = append(lens, len(payload)) }
	res := p.Run(60)
	if res.Playback.Delivered != 60 {
		t.Fatalf("playback delivered = %d, want 60 (stats %+v)", res.Playback.Delivered, res.Playback)
	}
	if res.Playback.Recovered == 0 {
		t.Error("no FEC recoveries under periodic loss")
	}
	for i, l := range lens {
		if l != 700 {
			t.Fatalf("frame %d has %d bytes", i, l)
		}
	}
	// A second Run on the same player keeps delivering in order.
	res2 := p.Run(20)
	if res2.Playback.Delivered != 80 {
		t.Errorf("cumulative delivered = %d", res2.Playback.Delivered)
	}
}

func TestPlaybackWithOptimizedSender(t *testing.T) {
	cfg := ctp.DefaultConfig()
	cfg.FECInterval = 4
	p, err := NewPlayer(cfg, 25, 700)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Optimize(80, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	r := p.Playback() // attach after optimization: syncs to the stream
	res := p.Run(30)
	if res.Playback.Delivered != 30 {
		t.Fatalf("playback delivered = %d (stats %+v, next %d)",
			res.Playback.Delivered, res.Playback, r.Next())
	}
}

// TestObservedPlannedRunMatchesGeneric checks the observer rule of
// guarded subsumption on the video plan: under a tracer, telemetry,
// spans or a supervising fault policy every spliced raise takes the
// dynamic segment route, so a planned run raises exactly what a generic
// run raises over the same frames (and, traced, records the same
// event-level entries). Unobserved, the spliced raises vanish from the
// counters: Raises, SyncRaises, HandlersRun and Locks all fall by the
// same number, and nothing else moves.
func TestObservedPlannedRunMatchesGeneric(t *testing.T) {
	const profileFrames, frames = 60, 40
	run := func(t *testing.T, planned bool, rec *trace.Recorder, opts ...event.Option) (event.StatsSnapshot, []trace.Entry) {
		t.Helper()
		p, err := NewPlayer(ctp.DefaultConfig(), 25, 900, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if planned {
			if _, err := p.Optimize(profileFrames, core.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		} else if _, err := p.Profile(profileFrames); err != nil {
			t.Fatal(err)
		}
		sys := p.Sender.Sys
		sys.Stats().Reset()
		if rec != nil {
			sys.SetTracer(rec)
		}
		p.Run(frames)
		sys.SetTracer(nil)
		var events []trace.Entry
		if rec != nil {
			for _, e := range rec.Entries() {
				if e.Kind == trace.EventRaised {
					events = append(events, e)
				}
			}
		}
		return sys.Stats().Snapshot(), events
	}

	observers := []struct {
		name   string
		traced bool
		opts   []event.Option
	}{
		{"tracer", true, nil},
		{"telemetry", false, []event.Option{event.WithTelemetry(telemetry.Config{})}},
		{"spans", false, []event.Option{event.WithSpanTracing(span.Config{SampleEvery: 1})}},
		{"quarantine", false, []event.Option{event.WithFaultPolicy(event.Quarantine)}},
	}
	for _, o := range observers {
		t.Run(o.name, func(t *testing.T) {
			var genRec, planRec *trace.Recorder
			if o.traced {
				genRec, planRec = trace.NewRecorder(), trace.NewRecorder()
			}
			gen, genEvents := run(t, false, genRec, o.opts...)
			plan, planEvents := run(t, true, planRec, o.opts...)
			if plan.FastRuns == 0 {
				t.Fatal("planned run took no fast path")
			}
			if plan.Raises != gen.Raises || plan.SyncRaises != gen.SyncRaises {
				t.Errorf("planned Raises/SyncRaises = %d/%d, generic %d/%d",
					plan.Raises, plan.SyncRaises, gen.Raises, gen.SyncRaises)
			}
			if !reflect.DeepEqual(planEvents, genEvents) {
				t.Errorf("event-level trace differs: %d planned entries, %d generic", len(planEvents), len(genEvents))
			}
		})
	}

	t.Run("unobserved", func(t *testing.T) {
		traced, _ := run(t, true, trace.NewRecorder())
		bare, _ := run(t, true, nil)
		spliced := traced.Raises - bare.Raises
		if spliced <= 0 {
			t.Fatalf("no raise spliced: traced %d, unobserved %d raises", traced.Raises, bare.Raises)
		}
		for _, c := range []struct {
			name       string
			obs, unobs int64
		}{
			{"SyncRaises", traced.SyncRaises, bare.SyncRaises},
			{"HandlersRun", traced.HandlersRun, bare.HandlersRun},
			{"Locks", traced.Locks, bare.Locks},
		} {
			if c.obs-c.unobs != spliced {
				t.Errorf("%s falls by %d, Raises by %d", c.name, c.obs-c.unobs, spliced)
			}
		}
		if traced.AsyncRaises != bare.AsyncRaises || traced.TimedRaises != bare.TimedRaises ||
			traced.FastRuns != bare.FastRuns || traced.Generic != bare.Generic || traced.SegFallbacks != bare.SegFallbacks {
			t.Errorf("activations other than spliced raises moved:\ntraced %+v\nbare   %+v", traced, bare)
		}
	})
}
