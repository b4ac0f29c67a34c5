package main

import (
	"math"
	"reflect"
	"slices"
	"time"

	"eventopt/internal/event"
)

// epoch anchors nanotime; time.Since reads the monotonic clock.
var epoch = time.Now()

// nanotime is a monotonic timestamp in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// percentile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least a share q of all samples at or below it.
// It returns 0 when there are no samples.
func percentile[T int64 | float64](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	return sorted[min(max(rank, 1), n)-1]
}

// median returns the nearest-rank median of xs without reordering xs.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 0.5)
}

// dist is a latency distribution in microseconds: its median and p99,
// with the number of samples both were taken from.
type dist struct {
	N        int
	P50, P99 float64
}

// distOf summarizes nanosecond samples; it sorts ns in place.
func distOf(ns []int64) dist {
	slices.Sort(ns)
	return dist{
		N:   len(ns),
		P50: float64(percentile(ns, 0.50)) / 1e3,
		P99: float64(percentile(ns, 0.99)) / 1e3,
	}
}

// counterRates is the growth of the runtime's exact counters between two
// snapshots, divided by the ops that ran in between. Fallbacks counts
// both whole-chain and per-segment guard failures; Captured counts the
// async raises a merged chain captured as same-domain continuations or
// cross-domain handoffs, and CaptureHitShare is their share of every
// capture attempt.
type counterRates struct {
	Activations, Generic, Fast, Fallbacks, Handlers, Timed float64
	Marshals, ArgResolves, Indirect, Locks                 float64
	Captured, CaptureHitShare                              float64
}

func rates(a, b event.StatsSnapshot, ops int) counterRates {
	per := func(d int64) float64 { return float64(d) / float64(ops) }
	captured := b.Coalesced - a.Coalesced + b.XDomainHandoffs - a.XDomainHandoffs
	fellBack := b.CoalesceFallbacks - a.CoalesceFallbacks + b.XDomainFallbacks - a.XDomainFallbacks
	r := counterRates{
		Activations: per(b.Raises - a.Raises),
		Generic:     per(b.Generic - a.Generic),
		Fast:        per(b.FastRuns - a.FastRuns),
		Fallbacks:   per(b.Fallbacks - a.Fallbacks + b.SegFallbacks - a.SegFallbacks),
		Handlers:    per(b.HandlersRun - a.HandlersRun),
		Timed:       per(b.TimedRaises - a.TimedRaises),
		Marshals:    per(b.Marshals - a.Marshals),
		ArgResolves: per(b.ArgResolves - a.ArgResolves),
		Indirect:    per(b.Indirect - a.Indirect),
		Locks:       per(b.Locks - a.Locks),
		Captured:    per(captured),
	}
	if captured+fellBack > 0 {
		r.CaptureHitShare = float64(captured) / float64(captured+fellBack)
	}
	return r
}

// faultCount is the number of supervision events between two snapshots:
// dropped activations, deoptimized super-handlers, recovered panics and
// dead letters. Each one counts as a failed op.
func faultCount(a, b event.StatsSnapshot) int {
	return int(b.QueueDrops - a.QueueDrops + b.Deopts - a.Deopts +
		b.PanicsRecovered - a.PanicsRecovered + b.DeadLetters - a.DeadLetters)
}

// addStats returns the counters a + k*b; k = -1 gives the growth from b
// to a.
func addStats(a, b event.StatsSnapshot, k int64) event.StatsSnapshot {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(va.Field(i).Int() + k*vb.Field(i).Int())
	}
	return a
}
