package telemetry

import (
	"sort"
	"sync/atomic"
)

// edgeKey identifies one directed edge of the live event graph.
type edgeKey struct {
	from, to int32
}

// edgeCounter holds the sampled traversal counts of one edge. The map
// holding the counters is copy-on-write: once an edge exists its
// counter pointer never changes, so bumps are plain atomic adds.
type edgeCounter struct {
	weight     atomic.Int64
	syncWeight atomic.Int64
}

// RecordDispatch feeds one event occurrence of domain dom, with the
// dispatch's one Stream.Draw, into the sampled graph feed and reports
// whether the dispatch is timed. Like the offline GraphBuilder, adjacent
// events of one domain form an edge, and sync dispatches also bump its
// sync weight; a pair counts when the draw is under the graph threshold.
// Must be called from the domain's serialized dispatch path.
func (t *Telemetry) RecordDispatch(dom int, ev int32, sync bool, draw uint64) (timed bool) {
	if dom < 0 || dom >= len(t.doms) {
		return false
	}
	d := t.doms[dom]
	prev, had := d.prev, d.hasPrev
	d.prev, d.hasPrev = ev, true
	if had && draw <= t.edgeLimit {
		t.bumpEdge(prev, ev, sync)
	}
	return draw <= t.timedLimit
}

func (t *Telemetry) bumpEdge(from, to int32, sync bool) {
	k := edgeKey{from, to}
	m := t.edges.Load()
	c := (*m)[k]
	if c == nil {
		// New edge: copy-on-write insertion under the growth mutex.
		t.mu.Lock()
		m = t.edges.Load()
		if c = (*m)[k]; c == nil {
			grown := make(map[edgeKey]*edgeCounter, len(*m)+1)
			for ek, ec := range *m {
				grown[ek] = ec
			}
			c = &edgeCounter{}
			grown[k] = c
			t.edges.Store(&grown)
		}
		t.mu.Unlock()
	}
	c.weight.Add(1)
	if sync {
		c.syncWeight.Add(1)
	}
}

// GraphEdge is one edge of the live event graph snapshot. Weights are
// raw sampled counts; multiply by SampleEvery for an estimate of the
// true traversal count.
type GraphEdge struct {
	From       int32  `json:"from"`
	To         int32  `json:"to"`
	FromName   string `json:"from_name"`
	ToName     string `json:"to_name"`
	Weight     int64  `json:"weight"`
	SyncWeight int64  `json:"sync_weight"`
}

// GraphSnapshot is a point-in-time copy of the live event graph.
type GraphSnapshot struct {
	SampleEvery int         `json:"sample_every"`
	Edges       []GraphEdge `json:"edges"`
}

// Graph snapshots the live event graph, edges sorted by weight
// descending (ties by from, then to).
func (t *Telemetry) Graph() GraphSnapshot {
	m := t.edges.Load()
	gs := GraphSnapshot{SampleEvery: t.cfg.SampleEvery}
	gs.Edges = make([]GraphEdge, 0, len(*m))
	for k, c := range *m {
		w := c.weight.Load()
		if w == 0 {
			continue
		}
		gs.Edges = append(gs.Edges, GraphEdge{
			From: k.from, To: k.to,
			FromName: t.EventName(k.from), ToName: t.EventName(k.to),
			Weight: w, SyncWeight: c.syncWeight.Load(),
		})
	}
	sort.Slice(gs.Edges, func(i, j int) bool {
		a, b := gs.Edges[i], gs.Edges[j]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return gs
}

// SanitizeEdge normalizes one sampled graph edge for downstream
// consumers, applying the exact rules the offline profile lifter uses:
// edges with an invalid endpoint or non-positive weight are dropped,
// and the synchronous share is clamped into [0, Weight], so a sampling
// artifact (a torn counter read, a wrapped decrement) can never smuggle
// a negative weight into a plan.
func SanitizeEdge(e GraphEdge) (GraphEdge, bool) {
	if e.From < 0 || e.To < 0 || e.Weight <= 0 {
		return GraphEdge{}, false
	}
	if e.SyncWeight < 0 {
		e.SyncWeight = 0
	}
	if e.SyncWeight > e.Weight {
		e.SyncWeight = e.Weight
	}
	return e, true
}
