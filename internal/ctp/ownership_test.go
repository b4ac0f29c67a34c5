package ctp

import (
	"bytes"
	"fmt"
	"testing"

	"eventopt/internal/core"
	"eventopt/internal/event"
)

// stream sends frames like the video player's to a started sender: by
// default 200-4400 B (one to four fragments at the default MTU, the last
// usually short), one in ten high priority, each drained to its 40 ms
// pacing deadline.
type stream struct {
	s    *Sender
	data []byte
	base event.Duration
	n    int             // frames sent
	size func(i int) int // length of frame i
}

func newStream(s *Sender) *stream {
	data := make([]byte, 1<<14)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	s.Start()
	return &stream{s: s, data: data, base: s.Sys.Now(),
		size: func(i int) int { return 200 + i*1237%4201 }}
}

// frame returns frame i (counting from 1).
func (st *stream) frame(i int) []byte {
	off := i * 613 % 4000
	return st.data[off : off+st.size(i)]
}

func (st *stream) send() {
	st.n++
	st.s.SendFrame(st.frame(st.n), st.n%10 == 0)
	st.s.Sys.DrainFor(st.base + event.Duration(st.n)*40e6)
}

// segment is one delivered segment, copied out of the borrowed payload.
type segment struct {
	seq     int64
	payload []byte
	parity  bool
}

func (g segment) String() string {
	return fmt.Sprintf("{seq %d parity %v %d B % x...}", g.seq, g.parity, len(g.payload), g.payload[:min(8, len(g.payload))])
}

// record installs an OnSegment callback that copies every delivery.
func record(s *Sender) *[]segment {
	var out []segment
	s.OnSegment(func(seq int64, p []byte, parity bool) {
		out = append(out, segment{seq, bytes.Clone(p), parity})
	})
	return &out
}

// want replays the sender's sequencing over the stream's first n frames:
// data fragments take consecutive sequence numbers, and after every
// FECInterval of them a parity segment takes the next, holding their XOR
// zero-extended to the longest.
func (st *stream) want(n int) map[int64]segment {
	cfg := st.s.Cfg
	out := map[int64]segment{}
	var seq int64
	var par []byte
	data := 0
	for i := 1; i <= n; i++ {
		f := st.frame(i)
		for off := 0; off < len(f); off += cfg.MTU {
			frag := f[off:min(off+cfg.MTU, len(f))]
			seq++
			out[seq] = segment{seq, frag, false}
			for j := range frag {
				if j == len(par) {
					par = append(par, 0)
				}
				par[j] ^= frag[j]
			}
			if data++; data == cfg.FECInterval {
				seq++
				out[seq] = segment{seq, par, true}
				par, data = nil, 0
			}
		}
	}
	return out
}

// checkAgainst requires every delivered segment to carry what the
// sender was given for its sequence number: data as fragmented, parity
// as folded, retransmissions as first sent.
func checkAgainst(t *testing.T, got []segment, want map[int64]segment) {
	t.Helper()
	parity := 0
	for _, g := range got {
		w, ok := want[g.seq]
		if !ok || w.parity != g.parity || !bytes.Equal(w.payload, g.payload) {
			t.Fatalf("delivered %v, want %v", g, w)
		}
		if g.parity {
			parity++
		}
	}
	if parity == 0 {
		t.Fatal("no parity segment delivered; the check covered data only")
	}
}

// TestBorrowedPayloadScribbleChangesNothing: delivery callbacks that
// overwrite every byte they are handed must change no later delivery,
// retransmission or parity segment, and must not reach the frames the
// application sent. The stream runs under heavy loss, generic and
// planned, against a twin whose callback only copies.
func TestBorrowedPayloadScribbleChangesNothing(t *testing.T) {
	for _, planned := range []bool{false, true} {
		t.Run(fmt.Sprintf("planned=%v", planned), func(t *testing.T) {
			run := func(scribble bool) (*stream, []segment) {
				s := newTestSender(t, func(c *Config) { c.LossEvery = 3; c.FECInterval = 4 })
				st := newStream(s)
				if planned {
					planSender(t, s, core.DefaultOptions(), 100, st.send)
				}
				clean := bytes.Clone(st.data)
				fill := func(p []byte) {
					for i := range p {
						p[i] = ^p[i]
					}
				}
				var out []segment
				if scribble {
					s.OnDeliver(func(_ int64, p []byte) { fill(p) })
				}
				s.OnSegment(func(seq int64, p []byte, parity bool) {
					out = append(out, segment{seq, bytes.Clone(p), parity})
					if scribble {
						fill(p)
					}
				})
				for i := 0; i < 200; i++ {
					st.send()
				}
				s.Sys.DrainFor(s.Sys.Now() + 1e9)
				if !bytes.Equal(st.data, clean) {
					t.Fatal("a delivery callback wrote through to the application's frames")
				}
				if s.Stats.Retransmits == 0 || s.Mod.Globals.Get(CellFECOut).Int() == 0 {
					t.Fatalf("stats %+v: the stream must retransmit and send parity", s.Stats)
				}
				if planned && s.Sys.Stats().FastRuns.Load() == 0 {
					t.Fatal("the planned sender never ran a fast path")
				}
				return st, out
			}
			st, want := run(false)
			_, got := run(true)
			if len(got) != len(want) {
				t.Fatalf("scribbling twin delivered %d segments, copying twin %d", len(got), len(want))
			}
			for i := range want {
				if got[i].seq != want[i].seq || got[i].parity != want[i].parity ||
					!bytes.Equal(got[i].payload, want[i].payload) {
					t.Fatalf("delivery %d: scribbling twin %v, copying twin %v", i, got[i], want[i])
				}
			}
			checkAgainst(t, want, st.want(st.n))
		})
	}
}

// TestPlanInstalledMidParityGroup installs a plan while the parity
// accumulator holds a partial group: the fused handlers must go on
// folding into it, so the delivered stream equals a generic twin's.
func TestPlanInstalledMidParityGroup(t *testing.T) {
	cfg := func(c *Config) { c.LossEvery = 7; c.FECInterval = 4 }
	gen := newTestSender(t, cfg)
	genSt := newStream(gen)
	genOut := record(gen)

	opt := newTestSender(t, cfg)
	optSt := newStream(opt)
	optOut := record(opt)
	planSender(t, opt, core.DefaultOptions(), 100, func() {
		optSt.send()
		genSt.send()
	})
	// The stream is deterministic: its 100th frame ends inside a group.
	if opt.Mod.Globals.Get(CellFECCount).Int() == 0 {
		t.Fatal("the plan went in at a parity group boundary; pick another frame count")
	}
	if len(opt.Mod.Globals.Get(CellParity).Bytes()) == 0 {
		t.Fatal("parity accumulator empty inside a group")
	}
	fast0 := opt.Sys.Stats().FastRuns.Load()
	for i := 0; i < 200; i++ {
		optSt.send()
		genSt.send()
	}
	opt.Sys.DrainFor(opt.Sys.Now() + 1e9)
	gen.Sys.DrainFor(gen.Sys.Now() + 1e9)
	if opt.Sys.Stats().FastRuns.Load() == fast0 {
		t.Fatal("the installed plan never ran")
	}
	if len(*optOut) != len(*genOut) {
		t.Fatalf("planned sender delivered %d segments, generic twin %d", len(*optOut), len(*genOut))
	}
	for i, w := range *genOut {
		g := (*optOut)[i]
		if g.seq != w.seq || g.parity != w.parity || !bytes.Equal(g.payload, w.payload) {
			t.Fatalf("delivery %d: planned %v, generic %v", i, g, w)
		}
	}
	checkAgainst(t, *genOut, genSt.want(genSt.n))
}

// TestAttachedReceiverReassemblesUnderLoss: a receiver attached to a
// lossy sender, which recovers some segments from parity and gets the
// rest retransmitted, must hand the application exactly the frames sent.
// Fragments share one length, so FEC recovery is exact.
func TestAttachedReceiverReassemblesUnderLoss(t *testing.T) {
	for _, planned := range []bool{false, true} {
		t.Run(fmt.Sprintf("planned=%v", planned), func(t *testing.T) {
			s := newTestSender(t, func(c *Config) {
				c.MTU = 100
				c.FECInterval = 4
				c.LossEvery = 3
				c.MaxRetransmits = -1
			})
			st := newStream(s)
			st.size = func(i int) int { return 100 * (1 + i*7%4) }
			if planned {
				planSender(t, s, core.DefaultOptions(), 100, st.send)
			}
			r := s.AttachReceiver()
			var got []byte
			r.OnFrame = func(_ int64, p []byte) { got = append(got, p...) }
			var sent []byte
			for i := 0; i < 200; i++ {
				st.send()
				sent = append(sent, st.frame(st.n)...)
			}
			s.Sys.DrainFor(s.Sys.Now() + 2e9)
			if !bytes.Equal(got, sent) {
				t.Fatalf("receiver delivered %d bytes differing from the %d sent", len(got), len(sent))
			}
			if r.Stats.Recovered == 0 {
				t.Fatal("no FEC recovery; the check covered retransmission only")
			}
		})
	}
}
