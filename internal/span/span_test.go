package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"eventopt/internal/telemetry"
)

// record writes one finished span on domain 0 of c's stream.
func record(c *Collector, trace, id, parent uint64, ev int32, kind Kind, tier Tier, flags Flags, mode uint8, start, end int64) {
	c.Record(0, &telemetry.Record{
		Trace: trace, Span: id, Parent: parent, Event: ev,
		Kind: uint8(kind), Tier: uint8(tier), Flags: uint8(flags), Mode: mode,
		Start: start, End: end,
	})
}

// TestMetaPackRoundTrip: a span's scalars survive the stream record's
// packed metadata word.
func TestMetaPackRoundTrip(t *testing.T) {
	c := NewCollector(telemetry.NewStream(1, 0), Config{RetainEvery: DisableRetention})
	ev, kind, tier, flags := int32(1234567), KindRetry, TierGenerated, FlagFault|FlagDeoptReplay
	record(c, 1, 2, 1, ev, kind, tier, flags, 2, 10, 20)
	got := c.Recent()
	if len(got) != 1 {
		t.Fatalf("recorded 1 span, read %d", len(got))
	}
	if sp := got[0]; sp.Event != ev || sp.Kind != kind || sp.Tier != tier || sp.Flags != flags || sp.Mode != "timed" {
		t.Fatalf("round trip mismatch: got %+v", sp)
	}
}

func TestEnumJSONRoundTrip(t *testing.T) {
	sp := Span{Trace: 7, ID: 7, Event: 3, Kind: KindCoalesced, Tier: TierHIR, Flags: FlagGuardFallback | FlagFault, Mode: "async"}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"coalesced"`, `"hir"`, `"fault,guard-fallback"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("marshaled span missing %s: %s", want, b)
		}
	}
	var back Span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != sp.Kind || back.Tier != sp.Tier || back.Flags != sp.Flags {
		t.Fatalf("unmarshal mismatch: %+v", back)
	}
}

func TestIDsUniqueAcrossDomains(t *testing.T) {
	c := NewCollector(telemetry.NewStream(3, 0), Config{})
	seen := map[uint64]bool{}
	for dom := 0; dom < 3; dom++ {
		for i := 0; i < 100; i++ {
			id := c.NextID(dom)
			if seen[id] {
				t.Fatalf("duplicate ID %x", id)
			}
			seen[id] = true
		}
	}
}

func TestSampleRootPeriod(t *testing.T) {
	c := NewCollector(telemetry.NewStream(1, 0), Config{SampleEvery: 1})
	for i := 0; i < 50; i++ {
		if !c.SampleRoot(0, c.st.Draw(0)) {
			t.Fatal("SampleEvery=1 must sample every root")
		}
	}
	c = NewCollector(telemetry.NewStream(1, 0), Config{SampleEvery: 8})
	hits := 0
	for i := 0; i < 8000; i++ {
		if c.SampleRoot(0, c.st.Draw(0)) {
			hits++
		}
	}
	if hits < 500 || hits > 1500 {
		t.Fatalf("SampleEvery=8 sampled %d of 8000 (want ~1000)", hits)
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	c := NewCollector(telemetry.NewStream(1, 16), Config{SampleEvery: 1, RetainEvery: DisableRetention})
	for i := 0; i < 40; i++ {
		id := c.NextID(0)
		record(c, id, id, 0, int32(i), KindRoot, TierGeneric, 0, 0, int64(i), int64(i)+1)
	}
	got := c.Recent()
	if len(got) != 16 {
		t.Fatalf("ring of 16 returned %d spans", len(got))
	}
	if got[len(got)-1].Event != 39 {
		t.Fatalf("newest span lost: last event %d", got[len(got)-1].Event)
	}
}

func TestFaultedTraceRetainedImmediately(t *testing.T) {
	c := NewCollector(telemetry.NewStream(1, 0), Config{SampleEvery: 1, RetainEvery: DisableRetention})
	root := c.NextID(0)
	record(c, root, root, 0, 1, KindRoot, TierGeneric, 0, 0, 0, 10)
	child := c.NextID(0)
	record(c, root, child, root, 2, KindSync, TierFast, FlagFault, 0, 2, 8)
	traces := c.Traces()
	if len(traces) != 1 || traces[0].Reason != "fault" {
		t.Fatalf("want one faulted trace, got %+v", traces)
	}
	if len(traces[0].Spans) != 2 {
		t.Fatalf("faulted trace should hold both spans, got %d", len(traces[0].Spans))
	}
}

func TestSweepMergesLateSpans(t *testing.T) {
	c := NewCollector(telemetry.NewStream(1, 0), Config{SampleEvery: 1, RetainEvery: DisableRetention})
	root := c.NextID(0)
	record(c, root, root, 0, 1, KindRoot, TierGeneric, FlagFault, 0, 0, 10)
	if got := c.Traces(); len(got) != 1 || len(got[0].Spans) != 1 {
		t.Fatalf("first sweep: %+v", got)
	}
	// A late async span of the same trace lands after the first sweep.
	late := c.NextID(0)
	record(c, root, late, root, 3, KindAsync, TierGeneric, 0, 1, 20, 30)
	got := c.Traces()
	if len(got) != 1 || len(got[0].Spans) != 2 {
		t.Fatalf("late span not merged: %+v", got)
	}
}

func TestRetainedEviction(t *testing.T) {
	c := NewCollector(telemetry.NewStream(1, 0), Config{SampleEvery: 1, RetainEvery: DisableRetention, MaxRetained: 2})
	var roots []uint64
	for i := 0; i < 4; i++ {
		id := c.NextID(0)
		roots = append(roots, id)
		record(c, id, id, 0, int32(i), KindRoot, TierGeneric, FlagFault, 0, int64(i*10), int64(i*10)+5)
	}
	traces := c.Traces()
	if len(traces) != 2 {
		t.Fatalf("MaxRetained=2 kept %d traces", len(traces))
	}
	if traces[0].Trace != roots[2] || traces[1].Trace != roots[3] {
		t.Fatalf("eviction kept wrong traces: %+v (roots %v)", traces, roots)
	}
	if c.Stats().RetainEvicted != 2 {
		t.Fatalf("evicted counter = %d", c.Stats().RetainEvicted)
	}
}

func TestSlowThresholdMarksTail(t *testing.T) {
	c := NewCollector(telemetry.NewStream(1, 0), Config{SampleEvery: 1, RetainEvery: DisableRetention, SlowAfter: 64})
	// 512 fast roots (≤64ns), then slow ones must be marked.
	for i := 0; i < 512; i++ {
		id := c.NextID(0)
		record(c, id, id, 0, 1, KindRoot, TierGeneric, 0, 0, 0, 64)
	}
	if c.SlowThresholdNs() == 0 {
		t.Fatal("slow threshold never computed")
	}
	id := c.NextID(0)
	record(c, id, id, 0, 1, KindRoot, TierGeneric, 0, 0, 0, 1<<20)
	if c.Stats().SlowRoots == 0 {
		t.Fatal("slow root not marked")
	}
	traces := c.Traces()
	found := false
	for _, tr := range traces {
		if tr.Trace == id && tr.Reason == "slow" {
			found = true
		}
	}
	if !found {
		t.Fatalf("slow trace not retained: %+v", traces)
	}
}

func TestWriteChrome(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Event: 5, Name: "frame.render", Domain: 0, Kind: KindRoot, Tier: TierFast, Mode: "sync", Start: 1000, End: 3000},
		{Trace: 1, ID: 2, Parent: 1, Event: 6, Domain: 1, Kind: KindAsync, Tier: TierGeneric, Flags: FlagFault, Mode: "async", Start: 3500, End: 4000},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	evs := doc.TraceEvents
	if len(evs) != 2 || evs[0]["name"] != "frame.render" || evs[1]["tid"] != float64(1) {
		t.Fatalf("unexpected chrome events: %+v", evs)
	}
}
