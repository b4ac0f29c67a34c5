package telemetry

import (
	"sync"
	"sync/atomic"
)

// Record is one entry of the observation stream: one observed
// activation, in the one layout the flight recorder and the span
// collector both read. The span fields (Kind, Tier, Flags, Trace, Span,
// Parent) carry the span package's values and are zero outside a
// sampled trace.
type Record struct {
	Seq     uint64 // per-domain stream position, set by Records; Write ignores it
	Event   int32
	Mode    uint8 // event.Mode numeric value (0 sync, 1 async, 2 delayed)
	Kind    uint8 // span.Kind: the scheduling hop that reached the domain
	Tier    uint8 // span.Tier: the execution tier that ran the handlers
	Flags   uint8 // span.Flags
	Outcome uint8 // OutcomeOK or OutcomeFault
	Nested  bool  // dispatched inside another activation (depth > 0)
	Attempt int   // prior retry attempts of the activation (capped at 0xFFFF)
	Trace   uint64
	Span    uint64
	Parent  uint64
	Start   int64 // dispatch entry on the system clock (ns); End for an untimed record
	End     int64 // completion on the system clock (ns)
	Cause   *string
}

// Bits of the packed metadata word beyond the small scalars.
const (
	metaNested = 1 << 61
	metaTraced = 1 << 62 // the slot's trace, span and parent words are this record's
)

// packMeta packs a record's small scalars into one word:
//
//	bits  0..31  event ID
//	bits 32..47  attempt (capped at 0xFFFF)
//	bits 48..51  flags
//	bits 52..55  kind
//	bits 56..57  tier
//	bits 58..59  mode
//	bit  60      outcome
//	bit  61      nested
//	bit  62      traced
func packMeta(r *Record) uint64 {
	m := uint64(uint32(r.Event)) | uint64(min(max(r.Attempt, 0), 0xFFFF))<<32 |
		uint64(r.Flags&0xF)<<48 | uint64(r.Kind&0xF)<<52 |
		uint64(r.Tier&3)<<56 | uint64(r.Mode&3)<<58 | uint64(r.Outcome&1)<<60
	if r.Nested {
		m |= metaNested
	}
	if r.Trace != 0 {
		m |= metaTraced
	}
	return m
}

func unpackMeta(m uint64, r *Record) {
	r.Event = int32(uint32(m))
	r.Attempt = int(m >> 32 & 0xFFFF)
	r.Flags = uint8(m >> 48 & 0xF)
	r.Kind = uint8(m >> 52 & 0xF)
	r.Tier = uint8(m >> 56 & 3)
	r.Mode = uint8(m >> 58 & 3)
	r.Outcome = uint8(m >> 60 & 1)
	r.Nested = m&metaNested != 0
}

// slot is one ring cell. The span words are written only for a traced
// record and the cause only for a faulted one; the meta word says which
// of them belong to the record, so a clean untraced record fills three
// of the seven words.
type slot struct {
	meta   atomic.Uint64 // packMeta
	trace  atomic.Uint64
	span   atomic.Uint64
	parent atomic.Uint64
	start  atomic.Int64
	end    atomic.Int64
	cause  atomic.Pointer[string]
}

// ring is one domain's part of the stream: a bounded single-writer
// multi-reader seqlock ring plus the domain's sampling counter. The
// writer (the domain's dispatch path, serialized by its atomicity lock)
// never blocks and never allocates. seq is the seqlock sequence: the
// writer makes it odd (2i+1) before filling the slot of record i and
// even (2i+2) after, so seq/2 records are complete and a slot is being
// refilled from the moment (seq+1)/2 passes its record. Readers copy
// slots optimistically and discard the copies the writer may have
// overwritten meanwhile.
type ring struct {
	mask     uint64
	seq      atomic.Uint64
	untraced atomic.Uint64 // records written without a trace
	slots    []slot
	tick     uint64 // the one sampling counter; writer-only
}

// Stream is the per-domain observation stream of one runtime: one
// seqlock ring and one sampling counter per domain, plus the event name
// table every view resolves through. The telemetry layer reads its
// top-level records as the flight recorder; the span collector reads
// its traced records as spans.
type Stream struct {
	doms  []*ring
	mu    sync.Mutex               // guards name-table growth
	names atomic.Pointer[[]string] // event ID -> name; copy-on-write
}

// NewStream creates a stream of the given number of domains, each ring
// holding size records (rounded up to a power of two; default 256,
// minimum 16).
func NewStream(domains, size int) *Stream {
	if domains < 1 {
		domains = 1
	}
	if size <= 0 {
		size = 256
	}
	n := 16
	for n < size {
		n <<= 1
	}
	st := &Stream{doms: make([]*ring, domains)}
	for i := range st.doms {
		st.doms[i] = &ring{mask: uint64(n - 1), slots: make([]slot, n)}
	}
	return st
}

// NumDomains reports how many domains the stream covers.
func (st *Stream) NumDomains() int { return len(st.doms) }

// Mix is the sampling hash: a golden-ratio multiply and an xor-shift.
// Hashing a counter before a 1-in-N threshold keeps the draw
// deterministic per run without aliasing: a plain stride would put every
// sample of a strictly periodic a,b,a,b stream on the same event.
func Mix(x uint64) uint64 {
	h := x * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// Limit is the threshold of a 1-in-every draw: a draw h samples when
// h <= Limit(every). A threshold compare costs a predictable branch
// where a modulo draw costs a hardware division.
func Limit(every int) uint64 {
	if every <= 1 {
		return ^uint64(0)
	}
	return ^uint64(0) / uint64(every)
}

// Draw advances domain dom's sampling counter and returns its hash: the
// one draw of one dispatch, compared by each layer against its own
// Limit. It must be called from the domain's serialized dispatch path.
func (st *Stream) Draw(dom int) uint64 {
	r := st.doms[dom]
	r.tick++
	return Mix(r.tick)
}

// Write appends r to domain dom's ring. Single writer per ring; the call
// is allocation-free.
func (st *Stream) Write(dom int, r *Record) {
	rg := st.doms[dom]
	seq := rg.seq.Load() // even: the single writer is not mid-record
	s := &rg.slots[seq/2&rg.mask]
	rg.seq.Store(seq + 1)
	s.meta.Store(packMeta(r))
	if r.Trace != 0 {
		s.trace.Store(r.Trace)
		s.span.Store(r.Span)
		s.parent.Store(r.Parent)
	}
	s.start.Store(r.Start)
	s.end.Store(r.End)
	if r.Outcome == OutcomeFault {
		s.cause.Store(r.Cause)
	}
	rg.seq.Store(seq + 2)
	if r.Trace == 0 {
		rg.untraced.Store(rg.untraced.Load() + 1)
	}
}

// Records appends domain dom's consistent records to out, oldest first,
// keeping those keep accepts. Safe to call concurrently with Write.
func (st *Stream) Records(dom int, keep func(*Record) bool, out []Record) []Record {
	rg := st.doms[dom]
	n := uint64(len(rg.slots))
	head := rg.seq.Load() / 2
	for i := head - min(head, n); i < head; i++ {
		s := &rg.slots[i&rg.mask]
		r := Record{Seq: i, Start: s.start.Load(), End: s.end.Load()}
		meta := s.meta.Load()
		unpackMeta(meta, &r)
		if meta&metaTraced != 0 {
			r.Trace, r.Span, r.Parent = s.trace.Load(), s.span.Load(), s.parent.Load()
		}
		if r.Outcome == OutcomeFault {
			r.Cause = s.cause.Load()
		}
		if (rg.seq.Load()+1)/2 > i+n {
			continue // torn: the writer began refilling the slot during the copy
		}
		if keep(&r) {
			out = append(out, r)
		}
	}
	return out
}

// Traced reports how many records carrying a trace domain dom has
// written (spans, in the span view). Safe to call concurrently with
// Write; a read racing a write may be one record off.
func (st *Stream) Traced(dom int) uint64 {
	rg := st.doms[dom]
	u := rg.untraced.Load() // first: Write completes a record before counting it
	return rg.seq.Load()/2 - u
}

// DefineEvent registers an event's display name.
func (st *Stream) DefineEvent(ev int32, name string) {
	if ev < 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var names []string
	if p := st.names.Load(); p != nil {
		names = *p
	}
	grown := make([]string, max(len(names), int(ev)+1))
	copy(grown, names)
	grown[ev] = name
	st.names.Store(&grown)
}

// EventName resolves a registered event name ("" when unknown).
func (st *Stream) EventName(ev int32) string {
	p := st.names.Load()
	if p == nil || ev < 0 || int(ev) >= len(*p) {
		return ""
	}
	return (*p)[ev]
}
