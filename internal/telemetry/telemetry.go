package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Config tunes the telemetry layer. The zero value selects the defaults.
type Config struct {
	// RingSize is the per-domain record capacity of the observation
	// stream the flight recorder and span collector share (see NewStream).
	RingSize int
	// SampleEvery is the sampling period of the continuous event-graph
	// feed: on average one in SampleEvery adjacent event pairs of a
	// domain's stream bumps its edge counter (default 16; 1 records every
	// pair, matching the paper's offline GraphBuilder exactly). The draw
	// is the stream's hashed per-dispatch counter, so it is deterministic
	// per run but does not alias with periodic event streams. Reported edge
	// weights are raw sampled counts; multiply by SampleEvery to estimate
	// true traversal counts.
	SampleEvery int
	// TimeSampleEvery is the sampling period of the timed path: on
	// average one in TimeSampleEvery activations is fully timed — two
	// clock reads, a latency-histogram record and, at top level, a
	// flight-recorder record (default 64; 1 times every activation).
	// Faulted top-level activations are always appended to the flight
	// ring so quarantine and dead-letter dumps capture them, but their
	// Duration is 0 unless the activation was also timed or traced. The
	// timed path, graph feed and span roots share the one draw, so a
	// timed activation is also a graph sample and, at top level, a root.
	// Histogram
	// counts are sampled counts; multiply by TimeSampleEvery to estimate
	// true activation counts (means and quantiles need no scaling).
	TimeSampleEvery int
	// OnDump, when non-nil, observes every automatic flight-recorder
	// dump (quarantine trip, dead-letter). It is called synchronously
	// from the faulting domain; keep it fast.
	OnDump func(*FlightDump)
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 16
	}
	if c.TimeSampleEvery <= 0 {
		c.TimeSampleEvery = 64
	}
	return c
}

// eventHists is the histogram pair of one (event, domain) cell, plus
// the cell's fault counter (every faulted top-level activation counts,
// not just sampled ones).
type eventHists struct {
	lat    Histogram // activation latency (dispatch entry to completion)
	qdel   Histogram // queue delay (enqueue/due time to pop)
	faults atomic.Int64
}

// domainTel is the per-domain half of the telemetry state. The graph
// feed writes prev and hasPrev on every dispatch, under the owning
// domain's atomicity serialization (so without a lock); the padding
// keeps them off other domains' cache lines.
type domainTel struct {
	hists atomic.Pointer[[]*eventHists] // indexed by event ID; copy-on-write growth

	prev    int32
	hasPrev bool
	_       [48]byte
}

// cell returns the (event, domain) cell, or nil for an unknown event or
// an out-of-range domain.
func (t *Telemetry) cell(dom int, ev int32) *eventHists {
	if dom < 0 || dom >= len(t.doms) {
		return nil
	}
	tab := t.doms[dom].hists.Load()
	if tab == nil || ev < 0 || int(ev) >= len(*tab) {
		return nil
	}
	return (*tab)[ev]
}

// Telemetry is the live observability state of one event runtime: one
// domainTel per event domain plus the observation stream (whose
// top-level records are the flight recorder), edge map and last-dump
// slot. All record methods are allocation-free in steady state; growth
// happens in DefineEvent and on first sighting of a new graph edge.
type Telemetry struct {
	cfg  Config
	st   *Stream
	doms []*domainTel

	// Thresholds on the stream's per-dispatch draw (see Limit).
	edgeLimit  uint64
	timedLimit uint64

	mu    sync.Mutex // guards growth: hist tables, edges
	edges atomic.Pointer[map[edgeKey]*edgeCounter]

	lastDump atomic.Pointer[FlightDump]
	dumps    atomic.Int64 // total automatic dumps taken

	optimizer atomic.Pointer[OptimizerSnapshot] // adaptive controller state (optimizer.go)
}

// New creates a telemetry instance that records into st, the runtime's
// observation stream (which the span collector may share). The runtime
// sizes st from cfg.RingSize.
func New(st *Stream, cfg Config) *Telemetry {
	t := &Telemetry{cfg: cfg.withDefaults(), st: st}
	t.edgeLimit = Limit(t.cfg.SampleEvery)
	t.timedLimit = Limit(t.cfg.TimeSampleEvery)
	t.doms = make([]*domainTel, st.NumDomains())
	for i := range t.doms {
		t.doms[i] = &domainTel{}
	}
	empty := make(map[edgeKey]*edgeCounter)
	t.edges.Store(&empty)
	return t
}

// NumDomains reports how many domains the instance covers.
func (t *Telemetry) NumDomains() int { return len(t.doms) }

// SampleEvery reports the graph-feed sampling period in effect.
func (t *Telemetry) SampleEvery() int { return t.cfg.SampleEvery }

// TimeSampleEvery reports the timed-path sampling period in effect.
func (t *Telemetry) TimeSampleEvery() int { return t.cfg.TimeSampleEvery }

// DefineEvent registers an event with its display name and pre-grows
// every domain's histogram table to cover it, so the record paths never
// allocate. The runtime calls it from System.Define.
func (t *Telemetry) DefineEvent(ev int32, name string) {
	if ev < 0 {
		return
	}
	t.st.DefineEvent(ev, name)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.doms {
		var tab []*eventHists
		if p := d.hists.Load(); p != nil {
			tab = *p
		}
		nt := make([]*eventHists, len(tab))
		copy(nt, tab)
		for int(ev) >= len(nt) {
			nt = append(nt, &eventHists{})
		}
		d.hists.Store(&nt)
	}
}

// EventName resolves a registered event name ("" when unknown).
func (t *Telemetry) EventName(ev int32) string { return t.st.EventName(ev) }

// RecordLatency records one activation latency (nanoseconds) of ev on
// domain dom. Unknown events and out-of-range domains are dropped.
func (t *Telemetry) RecordLatency(dom int, ev int32, ns int64) {
	if h := t.cell(dom, ev); h != nil {
		h.lat.Record(ns)
	}
}

// RecordQueueDelay records the time (nanoseconds) an asynchronous or
// timed activation of ev spent between becoming runnable and being
// popped by domain dom's scheduler.
func (t *Telemetry) RecordQueueDelay(dom int, ev int32, ns int64) {
	if h := t.cell(dom, ev); h != nil {
		h.qdel.Record(ns)
	}
}

// RecordFault counts one faulted top-level activation of ev on domain
// dom against its (event, domain) cell.
func (t *Telemetry) RecordFault(dom int, ev int32) {
	if h := t.cell(dom, ev); h != nil {
		h.faults.Add(1)
	}
}

// EventSnapshot is the telemetry of one (event, domain) cell — or, after
// MergeEvents, of one event across all domains (Domain == -1).
type EventSnapshot struct {
	Event      int32        `json:"event"`
	Name       string       `json:"name"`
	Domain     int          `json:"domain"` // -1 when merged across domains
	Latency    HistSnapshot `json:"latency"`
	QueueDelay HistSnapshot `json:"queue_delay"`
	Faults     int64        `json:"faults"`
}

// Events returns a snapshot row for every (event, domain) cell that has
// recorded at least one observation, ordered by (event, domain).
func (t *Telemetry) Events() []EventSnapshot {
	var out []EventSnapshot
	for di, d := range t.doms {
		tab := d.hists.Load()
		if tab == nil {
			continue
		}
		for ev, h := range *tab {
			if h == nil {
				continue
			}
			lat, qd, flt := h.lat.Snapshot(), h.qdel.Snapshot(), h.faults.Load()
			if lat.Count == 0 && qd.Count == 0 && flt == 0 {
				continue
			}
			out = append(out, EventSnapshot{
				Event: int32(ev), Name: t.EventName(int32(ev)), Domain: di,
				Latency: lat, QueueDelay: qd, Faults: flt,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Event != out[j].Event {
			return out[i].Event < out[j].Event
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// MergeEvents folds per-domain rows into one row per event (Domain -1),
// merging the histograms. The input order is irrelevant; the output is
// sorted by event ID.
func MergeEvents(rows []EventSnapshot) []EventSnapshot {
	byEvent := make(map[int32]*EventSnapshot)
	for _, r := range rows {
		m := byEvent[r.Event]
		if m == nil {
			c := r
			c.Domain = -1
			byEvent[r.Event] = &c
			continue
		}
		m.Latency.Merge(r.Latency)
		m.QueueDelay.Merge(r.QueueDelay)
		m.Faults += r.Faults
	}
	out := make([]EventSnapshot, 0, len(byEvent))
	for _, m := range byEvent {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Event < out[j].Event })
	return out
}
