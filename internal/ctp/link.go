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
	buf    []byte // the delivery copy lent to the callbacks
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
	l.deliver(seq, payload, parity)
	s.Sys.RaiseAfter(s.Cfg.RTT, s.Ev.SegmentAcked, event.Int64("seq", seq))
}

// deliver hands each delivery callback its own copy of payload in the
// link's one delivery buffer. The buffer leaves the link while the
// callbacks run, so a callback that sends again copies into a buffer of
// its own; the copy has no spare capacity, so a callback's append
// reallocates instead of writing into the buffer.
func (l *link) deliver(seq int64, payload []byte, parity bool) {
	s := l.sender
	buf, n := l.buf, len(payload)
	l.buf = nil
	if s.onDeliver != nil {
		buf = append(buf[:0], payload...)
		s.onDeliver(seq, buf[:n:n])
	}
	if s.onSegment != nil {
		buf = append(buf[:0], payload...)
		s.onSegment(seq, buf[:n:n], parity)
	}
	l.buf = buf
}
