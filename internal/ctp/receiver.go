package ctp

import (
	"bytes"
	"sort"
)

// inflightSeg is one unacknowledged transmission retained for
// retransmission.
type inflightSeg struct {
	payload []byte
	parity  bool
}

// ReceiverStats counts receiver-side activity.
type ReceiverStats struct {
	// Delivered counts data segments handed to the application in order.
	Delivered int
	// Recovered counts data segments reconstructed from FEC parity
	// before their retransmission arrived.
	Recovered int
	// Duplicates counts segments that arrived after already being
	// delivered or recovered (late retransmissions).
	Duplicates int
	// OutOfOrder counts segments buffered because a predecessor was
	// still missing on arrival.
	OutOfOrder int
	// ParitySeen counts parity segments received.
	ParitySeen int
}

// Receiver reassembles the sender's segment stream: it delivers data
// segments to the application strictly in sequence order, suppresses
// duplicates from retransmission, and — when a parity segment arrives
// with exactly one data segment of its group missing — reconstructs the
// missing segment by XOR (single-loss FEC recovery), often long before
// the sender's retransmission timeout would repair the gap.
//
// Sequence numbers cover data and parity segments alike (the sender
// assigns parity segments their own numbers), so in-order delivery skips
// the positions known to hold parity. FEC recovery is exact when the
// group's data segments share one length (the video player's case);
// with mixed lengths the reconstruction carries the group's maximum
// length, zero-padded, as plain XOR parity cannot encode lengths.
type Receiver struct {
	Stats ReceiverStats

	// OnFrame receives each data segment exactly once, in order.
	OnFrame func(seq int64, payload []byte)

	next      int64            // next sequence number to resolve
	k         int              // sender's FEC interval (0: recovery off)
	segments  map[int64][]byte // undelivered data segments by seq
	parity    map[int64]bool   // positions known to hold parity
	done      map[int64]bool   // delivered or recovered or consumed parity
	group     map[int64][]byte // data segments of the open parity group
	groupBase int64            // first seq after the previous parity
}

// NewReceiver returns an empty receiver for a stream whose sequence
// numbers start at 1 (the sender's first assigned number). fecInterval
// is the sender's parity spacing; zero disables FEC recovery (in-order
// delivery and deduplication still work).
func NewReceiver(fecInterval int) *Receiver { return NewReceiverAt(fecInterval, 1) }

// NewReceiverAt returns a receiver joining the stream at the given
// sequence number (for receivers attached to an already-running sender).
func NewReceiverAt(fecInterval int, next int64) *Receiver {
	return &Receiver{
		next:      next,
		k:         fecInterval,
		segments:  make(map[int64][]byte),
		parity:    make(map[int64]bool),
		done:      make(map[int64]bool),
		group:     make(map[int64][]byte),
		groupBase: next,
	}
}

// Segment accepts one segment from the link (in any order, possibly
// duplicated) and advances in-order delivery as far as possible. The
// payload is borrowed, as the sender's delivery callbacks lend it: a
// data segment the receiver keeps is copied, and parity is read only
// while it is handed in.
func (r *Receiver) Segment(seq int64, payload []byte, parity bool) {
	if r.done[seq] || r.segments[seq] != nil {
		r.Stats.Duplicates++
		return
	}
	if parity {
		r.Stats.ParitySeen++
		r.parity[seq] = true
		r.tryRecover(seq, payload)
		r.drain()
		return
	}
	if seq != r.next {
		r.Stats.OutOfOrder++
	}
	payload = bytes.Clone(payload)
	r.segments[seq] = payload
	if seq >= r.groupBase {
		r.group[seq] = payload
	}
	r.drain()
}

// tryRecover reconstructs a single missing data segment of the parity
// group [groupBase, paritySeq) when every other member is at hand.
// Recovery requires the group span to match the configured FEC interval
// exactly: a lost parity segment merges two groups, and a merged span
// would attribute the wrong members to this parity (retransmission
// repairs those streams instead).
func (r *Receiver) tryRecover(paritySeq int64, par []byte) {
	if r.k <= 0 || paritySeq-r.groupBase != int64(r.k) {
		r.groupBase = paritySeq + 1
		r.group = make(map[int64][]byte)
		return
	}
	missing := int64(-1)
	for s := r.groupBase; s < paritySeq; s++ {
		if r.done[s] || r.segments[s] != nil {
			continue
		}
		if missing >= 0 {
			missing = -2 // more than one: cannot recover
			break
		}
		missing = s
	}
	if missing >= 0 && missing != -2 {
		rec := append([]byte(nil), par...)
		for s := r.groupBase; s < paritySeq; s++ {
			if s == missing {
				continue
			}
			seg := r.group[s]
			if seg == nil {
				seg = r.segments[s]
			}
			for i := 0; i < len(seg) && i < len(rec); i++ {
				rec[i] ^= seg[i]
			}
		}
		r.segments[missing] = rec
		r.Stats.Recovered++
	}
	// The group closes at the parity position regardless of recovery.
	r.groupBase = paritySeq + 1
	r.group = make(map[int64][]byte)
}

// drain delivers consecutively available segments starting at next,
// skipping positions known to hold parity.
func (r *Receiver) drain() {
	for {
		if r.parity[r.next] {
			r.done[r.next] = true
			delete(r.parity, r.next)
			r.next++
			continue
		}
		seg, ok := r.segments[r.next]
		if !ok {
			return
		}
		delete(r.segments, r.next)
		r.done[r.next] = true
		if r.OnFrame != nil {
			r.OnFrame(r.next, seg)
		}
		r.Stats.Delivered++
		r.next++
	}
}

// Next reports the next sequence number the receiver is waiting for.
func (r *Receiver) Next() int64 { return r.next }

// Pending returns the buffered out-of-order sequence numbers, sorted,
// for diagnostics.
func (r *Receiver) Pending() []int64 {
	out := make([]int64, 0, len(r.segments))
	for s := range r.segments {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
