package span

import (
	"sort"
	"sync"
	"sync/atomic"

	"eventopt/internal/telemetry"
)

// Config tunes the collector. The zero value picks the defaults below.
type Config struct {
	// SampleEvery head-samples roots: roughly one in SampleEvery
	// external raises starts a trace, by a threshold on the stream's
	// per-dispatch draw (hash-spread, not strictly periodic). Default 16;
	// 1 traces every root.
	SampleEvery int
	// RetainEvery hash-samples healthy finished traces for retention,
	// roughly one in RetainEvery. Default 64; 0 disables baseline
	// retention (faulted and slow traces are still kept).
	RetainEvery int
	// MaxRetained caps the retained-trace store; the oldest trace is
	// evicted when full. Default 32.
	MaxRetained int
	// SlowAfter is the minimum number of finished sampled roots before
	// the live p99 threshold starts marking slow traces. Default 128.
	SlowAfter int64
}

// DefaultSampleEvery is the root head-sampling period a zero Config
// selects: roughly one external raise in 16 starts a trace.
const DefaultSampleEvery = 16

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	if c.RetainEvery < 0 {
		c.RetainEvery = 0
	} else if c.RetainEvery == 0 {
		c.RetainEvery = 64
	}
	if c.MaxRetained <= 0 {
		c.MaxRetained = 32
	}
	if c.SlowAfter <= 0 {
		c.SlowAfter = 128
	}
	return c
}

// DisableRetention is a RetainEvery sentinel: negative values switch
// baseline hash-sampled retention off entirely.
const DisableRetention = -1

// domState is the per-domain side of the collector. seq, seen and roots
// are plain words: they are only touched by the owning domain's
// serialized dispatch (under runMu), never concurrently.
type domState struct {
	seq   uint64 // span ID counter
	seen  uint64 // root draws, flushed to rootsSeen every seenFlush
	roots uint64 // finished healthy roots (p99 refresh trigger)
	_     [5]uint64
}

// markSlots bounds the pending-retention mark table. 64 trace IDs is
// comfortably more than MaxRetained's default and keeps the faulted/slow
// mark path a fixed-size scan.
const markSlots = 64

// Stats is a snapshot of the collector's counters.
type Stats struct {
	RootsSeen     int64 `json:"roots_seen"`     // sampling draws at root raises
	RootsSampled  int64 `json:"roots_sampled"`  // draws that started a trace
	Spans         int64 `json:"spans"`          // spans recorded into rings
	Faulted       int64 `json:"faulted"`        // spans carrying FlagFault
	SlowRoots     int64 `json:"slow_roots"`     // roots ≥ live p99 threshold
	Retained      int64 `json:"retained"`       // traces copied to the retained store
	MarkDrops     int64 `json:"mark_drops"`     // retention marks dropped (table full)
	RetainEvicted int64 `json:"retain_evicted"` // retained traces evicted (store full)
}

// Trace is a retained trace: the spans swept out of the rings for one
// trace ID, oldest first, plus why it was kept.
type Trace struct {
	Trace  uint64 `json:"trace"`
	Reason string `json:"reason"` // "fault", "slow" or "sampled"
	Spans  []Span `json:"spans"`
}

// Collector reads the traced records of an observation stream as spans.
// It owns the root-duration histogram that drives slow-trace marking
// and the retained-trace store. All record-path methods are
// allocation-free; sweeping marked traces into the retained store
// happens on the fault path and at export time only.
type Collector struct {
	cfg         Config
	st          *telemetry.Stream
	rootLimit   uint64
	retainLimit uint64

	doms []domState

	// Root durations feeding the live p99 slow threshold, which stays 0
	// until SlowAfter roots have finished, so the record path gates
	// slow-marking on one atomic load.
	rootDur telemetry.Histogram
	slowNs  atomic.Int64

	// Pending retention marks: trace IDs waiting to be swept from the
	// rings. markCount gates the scan so the common no-marks case is a
	// single load.
	marks     [markSlots]atomic.Uint64
	markWhy   [markSlots]atomic.Uint32 // retention reason, retainReason*
	markCount atomic.Int64

	// rootsSeen is flushed from the per-domain seen count in batches of
	// seenFlush, so the unsampled raise path pays no shared atomic; the
	// exported counter may lag the true draw count by up to
	// domains*(seenFlush-1).
	rootsSeen    atomic.Int64
	rootsSampled atomic.Int64
	faulted      atomic.Int64
	slowRoots    atomic.Int64
	retainedN    atomic.Int64
	markDrops    atomic.Int64
	evicted      atomic.Int64

	mu       sync.Mutex
	retained map[uint64]*Trace
	order    []uint64 // retained trace IDs, oldest first
}

const (
	retainSampled uint32 = iota + 1
	retainSlow
	retainFault
)

func retainReason(r uint32) string {
	switch r {
	case retainFault:
		return "fault"
	case retainSlow:
		return "slow"
	default:
		return "sampled"
	}
}

// NewCollector builds a collector that records into st, the runtime's
// observation stream (which the telemetry layer may share). Span names
// resolve through st's table.
func NewCollector(st *telemetry.Stream, cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:       cfg,
		st:        st,
		rootLimit: telemetry.Limit(cfg.SampleEvery),
		doms:      make([]domState, st.NumDomains()),
		retained:  make(map[uint64]*Trace),
	}
	if cfg.RetainEvery > 0 {
		c.retainLimit = telemetry.Limit(cfg.RetainEvery)
	}
	return c
}

// SampleEvery reports the root sampling period.
func (c *Collector) SampleEvery() int { return c.cfg.SampleEvery }

// seenFlush batches the rootsSeen counter: the per-domain count is
// flushed to the shared atomic once per seenFlush draws, keeping the
// common unsampled raise free of shared-cacheline traffic.
const seenFlush = 32

// SampleRoot decides head sampling for an unsampled root raise on dom,
// given the dispatch's one Stream.Draw. Called only under the domain's
// dispatch serialization.
func (c *Collector) SampleRoot(dom int, draw uint64) bool {
	d := &c.doms[dom]
	d.seen++
	if d.seen&(seenFlush-1) == 0 {
		c.rootsSeen.Add(seenFlush)
	}
	if draw > c.rootLimit {
		return false
	}
	c.rootsSampled.Add(1)
	return true
}

// NextID mints a span ID on dom. Called only under the domain's
// dispatch serialization.
func (c *Collector) NextID(dom int) uint64 {
	d := &c.doms[dom]
	d.seq++
	return uint64(dom+1)<<48 | d.seq&(1<<48-1)
}

// Record writes one finished span — a stream record carrying a trace —
// to dom's ring. For roots it also feeds the duration histogram and
// draws the tail-retention decision; for faulted spans it marks (and
// immediately sweeps) the trace. The healthy path performs no
// allocation and takes no locks.
func (c *Collector) Record(dom int, r *telemetry.Record) {
	c.st.Write(dom, r)
	d := &c.doms[dom]
	if Flags(r.Flags)&FlagFault != 0 {
		c.faulted.Add(1)
		if c.mark(r.Trace, retainFault) {
			c.Sweep() // fault path: allocation is acceptable here
		}
		return
	}
	if r.Trace != r.Span {
		return
	}
	// Root finished healthy: feed the duration histogram and decide
	// whether the trace is worth keeping. roots is per-domain and plain
	// (the caller serializes); the cross-domain total is refreshed
	// together with the p99 threshold.
	dur := r.End - r.Start
	d.roots++
	c.rootDur.Record(dur)
	if d.roots&63 == 0 || (d.roots == uint64(c.cfg.SlowAfter) && c.slowNs.Load() == 0) {
		if snap := c.rootDur.Snapshot(); snap.Count >= c.cfg.SlowAfter {
			c.slowNs.Store(snap.Quantile(0.99))
		}
	}
	// The threshold is the p99 bucket's upper bound (at most the largest
	// root seen), so only durations strictly beyond it count as slow.
	if slow := c.slowNs.Load(); slow > 0 && dur > slow {
		c.slowRoots.Add(1)
		c.mark(r.Trace, retainSlow)
		return
	}
	if c.retainLimit != 0 && telemetry.Mix(d.roots*31+r.Trace) <= c.retainLimit {
		c.mark(r.Trace, retainSampled)
	}
}

// SlowThresholdNs reports the live p99 root-duration threshold (0 until
// enough roots have finished).
func (c *Collector) SlowThresholdNs() int64 { return c.slowNs.Load() }

// mark queues trace for retention sweeping. Reports whether the trace
// is newly marked (or upgraded to a stronger reason). Lock-free; drops
// the mark (counted) when the table is full.
func (c *Collector) mark(trace uint64, why uint32) bool {
	if trace == 0 {
		return false
	}
	free := -1
	for i := 0; i < markSlots; i++ {
		got := c.marks[i].Load()
		if got == trace {
			for {
				old := c.markWhy[i].Load()
				if old >= why {
					return false
				}
				if c.markWhy[i].CompareAndSwap(old, why) {
					return true
				}
			}
		}
		if got == 0 && free < 0 {
			free = i
		}
	}
	if free < 0 {
		c.markDrops.Add(1)
		return false
	}
	for i := free; i < markSlots; i++ {
		if c.marks[i].CompareAndSwap(0, trace) {
			c.markWhy[i].Store(why)
			c.markCount.Add(1)
			return true
		}
	}
	c.markDrops.Add(1)
	return false
}

// Sweep copies the spans of every marked trace out of the rings into
// the retained store, merging with spans already retained for the same
// trace. Marks stay in place until their trace is evicted, so spans
// finishing after the sweep (async stragglers) are picked up by the
// next one. Called from the fault path and from exports.
func (c *Collector) Sweep() {
	if c.markCount.Load() == 0 {
		return
	}
	all := c.spans()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < markSlots; i++ {
		trace := c.marks[i].Load()
		if trace == 0 {
			continue
		}
		why := c.markWhy[i].Load()
		tr := c.retained[trace]
		if tr == nil {
			tr = &Trace{Trace: trace, Reason: retainReason(why)}
			c.retained[trace] = tr
			c.order = append(c.order, trace)
			c.retainedN.Add(1)
		} else if why == retainFault && tr.Reason != "fault" {
			tr.Reason = "fault"
		}
		for _, sp := range all {
			if sp.Trace != trace {
				continue
			}
			dup := false
			for _, have := range tr.Spans {
				if have.ID == sp.ID {
					dup = true
					break
				}
			}
			if !dup {
				tr.Spans = append(tr.Spans, sp)
			}
		}
	}
	for len(c.order) > c.cfg.MaxRetained {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.retained, old)
		c.evicted.Add(1)
		for i := 0; i < markSlots; i++ {
			if c.marks[i].Load() == old {
				c.marks[i].Store(0)
				c.markWhy[i].Store(0)
				c.markCount.Add(-1)
			}
		}
	}
}

// spans is the span view of the stream: every domain's traced records,
// named, in ring order per domain.
func (c *Collector) spans() []Span {
	var all []Span
	var recs []telemetry.Record
	traced := func(r *telemetry.Record) bool { return r.Trace != 0 }
	for dom := range c.doms {
		recs = c.st.Records(dom, traced, recs[:0])
		for _, r := range recs {
			all = append(all, Span{
				Trace: r.Trace, ID: r.Span, Parent: r.Parent,
				Event: r.Event, Name: c.st.EventName(r.Event), Domain: dom,
				Kind: Kind(r.Kind), Tier: Tier(r.Tier), Flags: Flags(r.Flags),
				Mode: enumName(modeNames[:], r.Mode, "mode"), Start: r.Start, End: r.End,
			})
		}
	}
	return all
}

// Recent snapshots every domain's spans, merged and sorted by start time.
func (c *Collector) Recent() []Span {
	all := c.spans()
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// Traces sweeps pending marks and returns the retained traces, oldest
// first, spans sorted by start time.
func (c *Collector) Traces() []Trace {
	c.Sweep()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Trace, 0, len(c.order))
	for _, id := range c.order {
		tr := c.retained[id]
		if tr == nil {
			continue
		}
		cp := Trace{Trace: tr.Trace, Reason: tr.Reason, Spans: append([]Span(nil), tr.Spans...)}
		sort.SliceStable(cp.Spans, func(i, j int) bool { return cp.Spans[i].Start < cp.Spans[j].Start })
		out = append(out, cp)
	}
	return out
}

// Stats snapshots the collector counters. RootsSeen is the
// batch-flushed draw counter and may lag the true count by up to
// domains*31.
func (c *Collector) Stats() Stats {
	var spans int64
	for i := range c.doms {
		spans += int64(c.st.Traced(i))
	}
	return Stats{
		RootsSeen:     c.rootsSeen.Load(),
		RootsSampled:  c.rootsSampled.Load(),
		Spans:         spans,
		Faulted:       c.faulted.Load(),
		SlowRoots:     c.slowRoots.Load(),
		Retained:      c.retainedN.Load(),
		MarkDrops:     c.markDrops.Load(),
		RetainEvicted: c.evicted.Load(),
	}
}
