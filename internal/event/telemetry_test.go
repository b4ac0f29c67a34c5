package event

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eventopt/internal/span"
	"eventopt/internal/telemetry"
)

func TestTelemetryHistogramsAndQueueDelay(t *testing.T) {
	vc := NewVirtualClock()
	s := New(WithClock(vc), WithTelemetry(telemetry.Config{TimeSampleEvery: 1}))
	ev := s.Define("work")
	s.Bind(ev, "h", func(ctx *Ctx) { vc.Advance(3 * time.Millisecond) })

	for i := 0; i < 10; i++ {
		if err := s.Raise(ev); err != nil {
			t.Fatal(err)
		}
	}
	s.RaiseAsync(ev)
	vc.Advance(5 * time.Millisecond) // the activation waits in the queue
	s.Drain()
	s.RaiseAfter(2*time.Millisecond, ev)
	vc.Advance(9 * time.Millisecond) // fires 7ms past its deadline
	s.Drain()

	rows := s.Telemetry().Events()
	if len(rows) != 1 {
		t.Fatalf("Events() rows = %d, want 1: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.Name != "work" || r.Domain != 0 {
		t.Fatalf("unexpected row: %+v", r)
	}
	if r.Latency.Count != 12 {
		t.Fatalf("latency count = %d, want 12", r.Latency.Count)
	}
	// Every activation advanced the virtual clock by 3ms.
	if mean := r.Latency.Mean(); mean < float64(2*time.Millisecond) || mean > float64(4*time.Millisecond) {
		t.Fatalf("latency mean = %v, want ~3ms", time.Duration(mean))
	}
	if r.QueueDelay.Count != 2 {
		t.Fatalf("queue-delay count = %d, want 2 (one async, one timed)", r.QueueDelay.Count)
	}
	if r.QueueDelay.Max < int64(5*time.Millisecond) {
		t.Fatalf("queue-delay max = %v, want >= 5ms", time.Duration(r.QueueDelay.Max))
	}

	// Flight recorder saw every top-level activation, in order, all OK.
	recs := s.Telemetry().FlightRecords(0)
	if len(recs) != 12 {
		t.Fatalf("flight records = %d, want 12", len(recs))
	}
	for _, fr := range recs {
		if fr.Outcome != telemetry.OutcomeOK || fr.Name != "work" {
			t.Fatalf("unexpected flight record: %+v", fr)
		}
	}
	if recs[10].Mode != uint8(Async) || recs[11].Mode != uint8(Delayed) {
		t.Fatalf("flight modes = %d,%d, want async,delayed", recs[10].Mode, recs[11].Mode)
	}
}

func TestTelemetryFlightDumpOnQuarantine(t *testing.T) {
	vc := NewVirtualClock()
	// Default sampling: faulted activations must reach the flight ring
	// even when the timing draw skips them.
	s := New(WithClock(vc),
		WithTelemetry(telemetry.Config{}),
		WithFaultConfig(FaultConfig{Policy: Quarantine, FailureThreshold: 2}))
	ev := s.Define("boom")
	calls := 0
	s.Bind(ev, "bad", func(ctx *Ctx) {
		calls++
		panic("kaput")
	})
	if err := s.Raise(ev); err != nil {
		t.Fatal(err)
	}
	if d := s.Telemetry().LastDump(); d != nil {
		t.Fatalf("dump before the threshold: %+v", d)
	}
	if err := s.Raise(ev); err != nil { // second fault trips the breaker
		t.Fatal(err)
	}
	d := s.Telemetry().LastDump()
	if d == nil {
		t.Fatal("quarantine trip produced no flight dump")
	}
	if !strings.Contains(d.Reason, "quarantine") || !strings.Contains(d.Reason, "boom/bad") {
		t.Fatalf("dump reason = %q", d.Reason)
	}
	// The dump must contain the activation that tripped the breaker, as
	// its newest record, marked faulted with the panic cause.
	if len(d.Records) != 2 {
		t.Fatalf("dump has %d records, want 2", len(d.Records))
	}
	last := d.Records[len(d.Records)-1]
	if last.Outcome != telemetry.OutcomeFault || !strings.Contains(last.Cause, "kaput") {
		t.Fatalf("newest dumped record = %+v, want faulted with cause kaput", last)
	}
}

func TestTelemetryFlightDumpOnDeadLetter(t *testing.T) {
	vc := NewVirtualClock()
	s := New(WithClock(vc),
		WithTelemetry(telemetry.Config{}),
		WithFaultPolicy(Isolate),
		WithRetryConfig(RetryConfig{MaxAttempts: 2, DeadLetter: "dead"}))
	dead := s.Define("dead")
	ev := s.Define("flaky")
	var deadArgs []Arg
	s.Bind(dead, "sink", func(ctx *Ctx) { deadArgs = ctx.Args.Pairs() })
	s.Bind(ev, "bad", func(ctx *Ctx) { panic("always") })
	s.RaiseAsync(ev)
	s.Drain()
	d := s.Telemetry().LastDump()
	if d == nil || !strings.Contains(d.Reason, "dead-letter: flaky") {
		t.Fatalf("dead-letter dump = %+v", d)
	}
	if len(deadArgs) == 0 {
		t.Fatal("dead-letter event never ran")
	}
	// The exhausted attempt is in the dumped ring with its retry count.
	found := false
	for _, r := range d.Records {
		if r.Name == "flaky" && r.Attempt == 1 && r.Outcome == telemetry.OutcomeFault {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump lacks the exhausted retry attempt: %+v", d.Records)
	}
}

// TestTelemetryFlightDumpOrderingQuarantineAndDeadLetter fires both
// automatic dump triggers on the SAME faulted activation: with a
// failure threshold of one the fault trips the breaker, and with an
// attempt budget of one the same fault exhausts the retry policy. The
// quarantine dump must come first (it is taken by the activation's own
// dispatch, right after the faulted record lands in the ring) and the
// dead-letter dump second (the retry decision runs only after the
// atomicity lock is released), with consecutive ordinals, and both must
// contain the triggering activation as their newest record.
func TestTelemetryFlightDumpOrderingQuarantineAndDeadLetter(t *testing.T) {
	vc := NewVirtualClock()
	var dumps []*telemetry.FlightDump
	s := New(WithClock(vc),
		WithTelemetry(telemetry.Config{OnDump: func(d *telemetry.FlightDump) { dumps = append(dumps, d) }}),
		WithFaultConfig(FaultConfig{Policy: Quarantine, FailureThreshold: 1}),
		WithRetryConfig(RetryConfig{MaxAttempts: 1, DeadLetter: "dead"}))
	s.Define("dead")
	ev := s.Define("boom")
	s.Bind(ev, "bad", func(ctx *Ctx) { panic("kaput") })
	s.RaiseAsync(ev)
	s.Drain()

	if len(dumps) != 2 {
		t.Fatalf("dumps = %d, want 2 (quarantine then dead-letter)", len(dumps))
	}
	quar, dl := dumps[0], dumps[1]
	if !strings.Contains(quar.Reason, "quarantine: boom/bad") {
		t.Errorf("first dump reason = %q, want the quarantine trip", quar.Reason)
	}
	if !strings.Contains(dl.Reason, "dead-letter: boom") {
		t.Errorf("second dump reason = %q, want the dead-letter", dl.Reason)
	}
	if quar.Seq+1 != dl.Seq {
		t.Errorf("dump ordinals = %d, %d, want consecutive", quar.Seq, dl.Seq)
	}
	if s.Telemetry().DumpCount() != 2 {
		t.Errorf("DumpCount = %d, want 2", s.Telemetry().DumpCount())
	}
	for i, d := range dumps {
		if vs := d.Validate(); len(vs) != 0 {
			t.Errorf("dump %d invalid: %v", i, vs)
		}
		if len(d.Records) == 0 {
			t.Fatalf("dump %d is empty", i)
		}
		last := d.Records[len(d.Records)-1]
		if last.Name != "boom" || last.Outcome != telemetry.OutcomeFault || !strings.Contains(last.Cause, "kaput") {
			t.Errorf("dump %d newest record = %+v, want the faulted boom activation", i, last)
		}
	}
	// LastDump must agree with the hook's ordering.
	if got := s.Telemetry().LastDump(); got == nil || got.Seq != dl.Seq {
		t.Errorf("LastDump = %+v, want the dead-letter dump", got)
	}
}

func TestPerDomainStats(t *testing.T) {
	s := New(WithDomains(2))
	a := s.Define("a")
	b := s.Define("b")
	if err := s.PinEvent(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PinEvent(b, 1); err != nil {
		t.Fatal(err)
	}
	s.Bind(a, "ha", func(ctx *Ctx) {})
	s.Bind(b, "hb", func(ctx *Ctx) {})
	for i := 0; i < 3; i++ {
		if err := s.Raise(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Raise(b); err != nil {
		t.Fatal(err)
	}

	d0, d1 := s.DomainStats(0), s.DomainStats(1)
	if d0.Raises != 3 || d1.Raises != 1 {
		t.Fatalf("per-domain raises = %d/%d, want 3/1", d0.Raises, d1.Raises)
	}
	agg := s.StatsAggregate()
	if agg.Raises != 4 || agg.HandlersRun != 4 {
		t.Fatalf("aggregate = %+v, want 4 raises, 4 handlers", agg)
	}
	if got := s.Stats().Raises.Load(); got != 4 {
		t.Fatalf("Stats().Raises = %d, want aggregated 4", got)
	}
	sum := s.StatsSummary()
	if !strings.Contains(sum, "domain 0") || !strings.Contains(sum, "domain 1") {
		t.Fatalf("StatsSummary lacks per-domain breakdown:\n%s", sum)
	}
	if !strings.Contains(sum, "raises               4") {
		t.Fatalf("StatsSummary aggregate header wrong:\n%s", sum)
	}

	s.ResetStats()
	if agg := s.StatsAggregate(); agg.Raises != 0 {
		t.Fatalf("ResetStats left %d raises", agg.Raises)
	}

	// Out-of-range domain stats are zero, not a panic.
	if ds := s.DomainStats(99); ds.Raises != 0 {
		t.Fatal("out-of-range DomainStats not zero")
	}
}

func TestStatsSingleDomainBackCompat(t *testing.T) {
	s := New()
	ev := s.Define("e")
	s.Bind(ev, "h", func(ctx *Ctx) {})
	_ = s.Raise(ev)
	c := s.Stats()
	if c.Raises.Load() != 1 {
		t.Fatal("live counter missing the raise")
	}
	c.Reset() // historical idiom: reset through the returned pointer
	_ = s.Raise(ev)
	if got := s.Stats().Raises.Load(); got != 1 {
		t.Fatalf("after Reset + raise, Raises = %d, want 1", got)
	}
	if s.StatsSummary() != s.Stats().Summary() {
		t.Fatal("single-domain StatsSummary must equal the flat Summary")
	}
}

// TestCountersFieldList pins the one field list Counters and
// StatsSnapshot share: every counter has a same-named snapshot field at
// the same position, and Snapshot, add, Reset and the aggregated Stats
// of a sharded system cover every one of them.
func TestCountersFieldList(t *testing.T) {
	ct, st := reflect.TypeOf(Counters{}), reflect.TypeOf(StatsSnapshot{})
	if ct.NumField() != st.NumField() {
		t.Fatalf("Counters has %d fields, StatsSnapshot %d", ct.NumField(), st.NumField())
	}
	for i := 0; i < ct.NumField(); i++ {
		if cn, sn := ct.Field(i).Name, st.Field(i).Name; cn != sn {
			t.Fatalf("field %d: Counters.%s vs StatsSnapshot.%s", i, cn, sn)
		}
		if ct.Field(i).Type != reflect.TypeOf(atomic.Int64{}) || st.Field(i).Type.Kind() != reflect.Int64 {
			t.Fatalf("field %s: types %v/%v", ct.Field(i).Name, ct.Field(i).Type, st.Field(i).Type)
		}
	}
	// A distinct value per field catches a loop that skips or swaps one.
	var c Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	snap := c.Snapshot()
	snap.add(c.Snapshot())
	sv := reflect.ValueOf(snap)
	for i := 0; i < sv.NumField(); i++ {
		if got := sv.Field(i).Int(); got != 2*int64(i+1) {
			t.Errorf("%s: Snapshot+add = %d, want %d", st.Field(i).Name, got, 2*(i+1))
		}
	}
	s := New(WithDomains(2))
	for _, d := range s.domains {
		dv := reflect.ValueOf(&d.stats).Elem()
		for i := 0; i < dv.NumField(); i++ {
			dv.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
		}
	}
	agg := reflect.ValueOf(s.Stats()).Elem()
	for i := 0; i < agg.NumField(); i++ {
		if got := agg.Field(i).Addr().Interface().(*atomic.Int64).Load(); got != 2*int64(i+1) {
			t.Errorf("%s: aggregated Stats = %d, want %d", ct.Field(i).Name, got, 2*(i+1))
		}
	}
	c.Reset()
	if c.Snapshot() != (StatsSnapshot{}) {
		t.Errorf("Reset left %+v", c.Snapshot())
	}
}

// TestObservationStreamOneRecordPerActivation: with telemetry and spans
// both on and every period 1, each top-level activation writes exactly
// one stream record — consecutive stream positions, one per activation
// — and its flight view and root span report the same start and end.
func TestObservationStreamOneRecordPerActivation(t *testing.T) {
	vc := NewVirtualClock()
	s := New(WithClock(vc),
		WithTelemetry(telemetry.Config{SampleEvery: 1, TimeSampleEvery: 1}),
		WithSpanTracing(span.Config{SampleEvery: 1, RetainEvery: span.DisableRetention}))
	ev := s.Define("work")
	s.Bind(ev, "h", func(*Ctx) { vc.Advance(3 * time.Millisecond) })
	for i := 0; i < 5; i++ {
		if err := s.Raise(ev); err != nil {
			t.Fatal(err)
		}
		vc.Advance(time.Millisecond)
	}
	s.RaiseAsync(ev)
	s.Drain()

	recs, roots := s.Telemetry().FlightRecords(0), s.Spans().Recent()
	if len(recs) != 6 || len(roots) != 6 {
		t.Fatalf("flight records = %d, spans = %d, want 6 each", len(recs), len(roots))
	}
	all := s.obs.Records(0, func(*telemetry.Record) bool { return true }, nil)
	if len(all) != 6 || s.Spans().Stats().Spans != 6 {
		t.Fatalf("stream holds %d records (%d spans), want 6", len(all), s.Spans().Stats().Spans)
	}
	for i, fr := range recs {
		sp := roots[i]
		if fr.Seq != uint64(i) || !sp.Root() || sp.Event != fr.Event || sp.Name != "work" {
			t.Fatalf("activation %d: flight %+v, span %+v", i, fr, sp)
		}
		if fr.Duration != int64(3*time.Millisecond) || sp.Start != fr.End-fr.Duration || sp.End != fr.End {
			t.Fatalf("activation %d: flight [%d, %d], span [%d, %d]", i, fr.End-fr.Duration, fr.End, sp.Start, sp.End)
		}
	}
}
