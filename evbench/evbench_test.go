package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"eventopt/internal/event"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	if got := percentile([]float64(nil), 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median = %v, want the lower middle 2", got)
	}
}

func TestDistOfReportsSampleCount(t *testing.T) {
	ns := []int64{5000, 1000, 3000, 2000, 4000}
	d := distOf(ns)
	if d.N != 5 || d.P50 != 3 || d.P99 != 5 {
		t.Errorf("distOf = %+v, want N=5 P50=3us P99=5us", d)
	}
}

func TestTotalsSubtractChildren(t *testing.T) {
	spans := []spanRec{
		{Name: spOp, Start: 0, End: 100, Parent: -1, Root: 0},
		{Name: spRaise, Start: 10, End: 60, Parent: 0, Root: 0},
		{Name: spCipher, Start: 20, End: 30, Parent: 1, Root: 0},
		{Name: spCipher, Start: 25, End: 40, Parent: 1, Root: 0}, // overlaps its sibling
		{Name: spDrain, Start: 50, End: 120, Parent: 0, Root: 0}, // overlaps and outlives the raise
	}
	got := totals(spans)
	// The root is covered over [10,100]; the raise over [20,40].
	if got.Self[spOp] != 10 {
		t.Errorf("root self = %d, want 10", got.Self[spOp])
	}
	if got.Self[spRaise] != 30 {
		t.Errorf("raise self = %d, want 30", got.Self[spRaise])
	}
	if got.Total[spCipher] != 25 || got.Count[spCipher] != 2 {
		t.Errorf("cipher total %d count %d, want 25 and 2", got.Total[spCipher], got.Count[spCipher])
	}
}

func TestTracerNestsAndStopsWhenFull(t *testing.T) {
	tr := newTracer(2)
	if tr.begin(spOp) != -1 {
		t.Fatal("a tracer that is off recorded a span")
	}
	tr.on = true
	root := tr.begin(spOp)
	child := tr.begin(spRaise)
	dropped := tr.begin(spDrain)
	tr.end(dropped)
	tr.end(child)
	tr.end(root)
	if dropped != -1 || tr.dropped != 1 || len(tr.spans) != 2 {
		t.Fatalf("full tracer kept %d spans, dropped %d", len(tr.spans), tr.dropped)
	}
	if c := tr.spans[child]; c.Parent != root || c.Root != root {
		t.Errorf("child parent %d root %d, want %d", c.Parent, c.Root, root)
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
}

func TestRatesPerOp(t *testing.T) {
	a := event.StatsSnapshot{Raises: 10, Generic: 4, Coalesced: 1}
	b := event.StatsSnapshot{
		Raises: 30, Generic: 8, FastRuns: 12, Fallbacks: 2, SegFallbacks: 2,
		Coalesced: 6, XDomainHandoffs: 3, CoalesceFallbacks: 1, XDomainFallbacks: 1,
		QueueDrops: 1, Deopts: 2,
	}
	r := rates(a, b, 4)
	if r.Activations != 5 || r.Generic != 1 || r.Fast != 3 || r.Fallbacks != 1 {
		t.Errorf("rates = %+v", r)
	}
	if r.Captured != 2 || r.CaptureHitShare != 0.8 {
		t.Errorf("captured %v share %v, want 2 and 0.8", r.Captured, r.CaptureHitShare)
	}
	if n := faultCount(a, b); n != 3 {
		t.Errorf("faultCount = %d, want 3", n)
	}
	if s := addStats(a, b, 1); s.Raises != 40 || s.DeadLetters != 0 || s.Coalesced != 7 {
		t.Errorf("addStats(a, b, 1) = %+v", s)
	}
}

// TestCounterGrowthOverBlocks sums the counter growth of two traced blocks
// with untraced work between them, as a traced run does.
func TestCounterGrowthOverBlocks(t *testing.T) {
	snaps := []event.StatsSnapshot{
		{Raises: 10, FastRuns: 1},
		{Raises: 16, FastRuns: 4},  // block 1: 6 raises, 3 fast runs
		{Raises: 50, FastRuns: 9},  // untraced work in between
		{Raises: 54, FastRuns: 10}, // block 2: 4 raises, 1 fast run
	}
	var grown event.StatsSnapshot
	for i := 0; i < len(snaps); i += 2 {
		grown = addStats(grown, addStats(snaps[i+1], snaps[i], -1), 1)
	}
	if grown.Raises != 10 || grown.FastRuns != 4 {
		t.Fatalf("grown = %+v, want 10 raises and 4 fast runs", grown)
	}
	if r := rates(event.StatsSnapshot{}, grown, 5); r.Activations != 2 || r.Fast != 0.8 {
		t.Errorf("per-op rates = %+v, want 2 activations and 0.8 fast runs", r)
	}
}

// TestOutputCheckCatchesOneWrongByte runs a few ops of every workload,
// clean and with one delivered byte flipped, and checks that exactly the
// flipped op fails.
func TestOutputCheckCatchesOneWrongByte(t *testing.T) {
	for _, name := range []string{"video", "seccomm", "pipeline_rpc", "pipeline_burst"} {
		for _, corrupt := range []int{-1, 3} {
			w, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			inst, _, err := w.setup(nil, corrupt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			drive(inst, 10, time.Time{}, nil)
			attempted, failed, err := inst.check()
			inst.close()
			want := 0
			if corrupt >= 0 {
				want = 1
			}
			if err != nil || attempted < 10 || failed != want {
				t.Errorf("%s, corrupt op %d: %d failed of %d attempted (err %v), want %d failed",
					name, corrupt, failed, attempted, err, want)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the command prints
// in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		got, wants []metric
	}{{"end_to_end", endToEndMetrics, spec.EndToEnd}, {"per_layer", perLayerMetrics, spec.PerLayer}} {
		if len(c.got) != len(c.wants) {
			t.Errorf("%s: the command reports %d metrics, BENCHMARK.json declares %d", c.name, len(c.got), len(c.wants))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.wants[i] {
				t.Errorf("%s[%d]: command %+v, BENCHMARK.json %+v", c.name, i, c.got[i], c.wants[i])
			}
		}
	}
}
