package ctp

import "eventopt/internal/event"

// link is the simulated network under the protocol: it transmits
// segments to the (simulated) receiver, drops every Nth one when
// configured, and schedules the acknowledgement as a timed SegmentAcked
// event one RTT later — the paper's testbed reduced to a deterministic
// model that exercises the same event paths.
type link struct {
	sender *Sender
	n      int
}

// transmit carries one segment.
func (l *link) transmit(seq int64, payload []byte, parity bool) {
	s := l.sender
	s.Stats.Transmitted++
	l.n++
	if s.Cfg.LossEvery > 0 && l.n%s.Cfg.LossEvery == 0 {
		s.Stats.Dropped++
		return
	}
	s.Stats.Delivered++
	if s.onDeliver != nil {
		s.onDeliver(seq, append([]byte(nil), payload...))
	}
	if s.onSegment != nil {
		s.onSegment(seq, append([]byte(nil), payload...), parity)
	}
	s.Sys.RaiseAfter(s.Cfg.RTT, s.Ev.SegmentAcked, event.Int64("seq", seq))
}
