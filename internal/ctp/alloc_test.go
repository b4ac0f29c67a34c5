package ctp

import (
	"runtime"
	"testing"

	"eventopt/internal/core"
)

// TestAllocRegression is the allocation gate of the send path: once warm,
// a sender allocates nothing per frame, generic or planned, while frames
// fragment, parity segments go out, segments are lost, and timeouts
// retransmit them. Every payload buffer has one owner: the parity
// accumulator and the retransmit buffers belong to the sender and the
// delivery copy to the link, so a regression here means some stage went
// back to copying a payload into a fresh buffer.
func TestAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const warm, frames = 500, 2000
	for _, planned := range []bool{false, true} {
		name := "Generic"
		if planned {
			name = "Planned"
		}
		t.Run(name, func(t *testing.T) {
			s := newTestSender(t, func(c *Config) { c.LossEvery = 97 })
			st := newStream(s)
			var sink byte
			s.OnSegment(func(_ int64, p []byte, _ bool) {
				for _, b := range p {
					sink ^= b
				}
			})
			if planned {
				planSender(t, s, core.DefaultOptions(), 200, st.send)
			}
			for i := 0; i < warm; i++ {
				st.send()
			}
			stats0, fec0, fast0 := s.Stats, s.Mod.Globals.Get(CellFECOut).Int(), s.Sys.Stats().FastRuns.Load()

			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < frames; i++ {
				st.send()
			}
			runtime.ReadMemStats(&m1)

			if got := float64(m1.Mallocs-m0.Mallocs) / frames; got > 0.01 {
				t.Errorf("%s sender: %.4f allocs/frame, want <= 0.01", name, got)
			}
			if s.Stats.Segments-stats0.Segments <= frames || s.Mod.Globals.Get(CellFECOut).Int() == fec0 ||
				s.Stats.Timeouts == stats0.Timeouts || s.Stats.Retransmits == stats0.Retransmits {
				t.Fatalf("stats %+v: the gate must see fragments, parity, timeouts and retransmits", s.Stats)
			}
			if planned && s.Sys.Stats().FastRuns.Load() == fast0 {
				t.Fatal("the planned sender never ran a fast path; the gate measured the wrong path")
			}
		})
	}
}
