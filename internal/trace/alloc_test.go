package trace

import (
	"testing"

	"eventopt/internal/event"
)

// TestAllocRegression gates the allocations of the recording side of a
// traced run; the event package's twin gates the dispatcher's side with
// a counting tracer.
func TestAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	t.Run("RecorderAmortized", func(t *testing.T) {
		// Once a domain's first chunk exists and the hot names are
		// interned, recording an entry allocates nothing except one fresh
		// chunk per 1024 entries — O(1) amortized, never an append-doubling
		// copy.
		r := NewRecorder()
		r.EnableHandlerProfiling()
		r.Event(1, "hot", event.Sync, 0, 0)
		r.HandlerEnter(1, "hot", "h", 0, 0)
		r.HandlerExit(1, "hot", "h", 0, 0)
		if got := testing.AllocsPerRun(5000, func() {
			r.Event(1, "hot", event.Sync, 0, 0)
			r.HandlerEnter(1, "hot", "h", 0, 0)
			r.HandlerExit(1, "hot", "h", 0, 0)
		}); got > 0 {
			t.Errorf("traced record loop: %.2f allocs/op, want 0 amortized", got)
		}
		if n := r.Len(); n < 15000 {
			t.Fatalf("recorded %d entries; the gate measured the wrong path", n)
		}
	})

	t.Run("RecordedSyncRaise", func(t *testing.T) {
		// A sync raise end to end through a real Recorder: the dispatcher's
		// traced path plus the recorder's chunk growth stay under half an
		// allocation per raise.
		args := []event.Arg{{Name: "n", Val: 7}, {Name: "s", Val: "x"}}
		s := event.New()
		ev := s.Define("hot")
		sink := 0
		s.Bind(ev, "h", func(ctx *event.Ctx) { sink += ctx.Args.Int("n") })
		rec := NewRecorder()
		s.SetTracer(rec)
		if err := s.Raise(ev, args...); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(5000, func() {
			_ = s.Raise(ev, args...)
		}); got > 0.5 {
			t.Errorf("recorded sync raise: %.2f allocs/op, want <= 0.5", got)
		}
		if n := rec.Len(); n < 5000 {
			t.Fatalf("recorded %d entries; the gate measured the wrong path", n)
		}
	})
}
