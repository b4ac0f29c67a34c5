// Package telemetry is the always-on observability layer of the event
// runtime: the per-domain observation stream (one lock-free record ring
// and one sampling draw per dispatch, shared with the span collector),
// per-event/per-domain latency and queue-delay histograms, the flight
// recorder (the stream's top-level records, dumped automatically on
// quarantine or dead-letter), and a sampled continuous event-graph feed
// that keeps the paper's GraphBuilder structures (internal/profile)
// current at runtime instead of requiring a separate offline trace run.
//
// The package deliberately depends on nothing but the standard library
// and speaks in primitive types (int32 event IDs, uint8 modes): the
// event runtime imports telemetry, and higher layers (internal/profile,
// internal/telemetry/httpdebug, the tools) join the two vocabularies.
//
// Every record path — histogram record, stream write, edge bump —
// is allocation-free in steady state so the runtime's zero-allocation
// dispatch gates hold with telemetry enabled. Growth (new events, new
// edges) happens copy-on-write under a mutex off the hot path.
package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of log₂ buckets of a Histogram. Bucket i
// holds values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i);
// bucket 0 holds zero. 48 buckets cover durations up to ~39 hours in
// nanoseconds, far beyond any plausible activation latency.
const NumBuckets = 48

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketBound returns the exclusive upper bound of bucket i (values in
// bucket i are < BucketBound(i)). The last bucket is unbounded and
// reports its lower bound's double.
func BucketBound(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= 63 {
		return int64(1) << 62
	}
	return int64(1) << uint(i)
}

// Histogram is a fixed log₂-bucket histogram with atomic counters: the
// record path is a bucket index computation plus four uncontended atomic
// adds (bucket, count, sum, and a rarely-taken max CAS), allocation-free
// and safe from any goroutine.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Record adds one observation (negative values clamp to zero).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Snapshot returns a point-in-time copy of the histogram. Counters are
// loaded individually while recording may continue, so a snapshot taken
// mid-flight can be off by in-flight observations; Count is always the
// sum the Buckets held when each was read.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistSnapshot is an immutable copy of a Histogram. Snapshots merge: the
// merge of per-domain snapshots of the same event equals (bucket for
// bucket) the histogram a single shared recorder would have produced,
// which is what makes per-domain recording free of cross-domain
// contention without losing the global view.
type HistSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Max     int64             `json:"max"`
	Buckets [NumBuckets]int64 `json:"buckets"`
}

// Merge accumulates o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the arithmetic mean of the recorded values (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// exclusive upper bound of the bucket in which the cumulative count
// crosses q*Count, clamped to the recorded maximum (a bucket's bound can
// exceed every value that landed in it). The error is bounded by the
// log₂ bucket width (a factor of two), the standard trade of
// fixed-bucket histograms.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	bound := BucketBound(NumBuckets - 1)
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		if cum >= target {
			bound = BucketBound(i)
			break
		}
	}
	if bound > s.Max {
		bound = s.Max // Count > 0 here, so Max is a recorded value (possibly 0)
	}
	return bound
}
