package trace

import (
	"strings"
	"testing"

	"eventopt/internal/event"
)

// liveTrace runs a small two-domain workload under a Recorder and
// returns its entries: nested synchronous raises, asynchronous
// cross-domain handoffs and a timed activation, so every structural
// rule of the checker sees real input.
func liveTrace(t testing.TB) []Entry {
	t.Helper()
	s := event.New(event.WithDomains(2), event.WithClock(event.NewVirtualClock()))
	a := s.Define("A")
	b := s.Define("B")
	c := s.Define("C")
	s.Bind(a, "a1", func(ctx *event.Ctx) { ctx.Raise(b) })
	s.Bind(a, "a2", func(ctx *event.Ctx) { ctx.RaiseAsync(c) })
	s.Bind(b, "b1", func(ctx *event.Ctx) {})
	s.Bind(c, "c1", func(ctx *event.Ctx) {})

	rec := NewRecorder()
	rec.EnableHandlerProfiling()
	s.SetTracer(rec)
	if err := s.Raise(a); err != nil {
		t.Fatal(err)
	}
	s.RaiseAsync(a)
	s.RaiseAfter(5, c)
	s.Drain()
	return rec.Entries()
}

func TestCheckValidTrace(t *testing.T) {
	entries := liveTrace(t)
	if len(entries) == 0 {
		t.Fatal("no entries recorded")
	}
	if vs := Check(entries); len(vs) != 0 {
		t.Fatalf("valid trace flagged: %v", vs)
	}
}

func TestCheckCorruptedTraces(t *testing.T) {
	base := liveTrace(t)
	if vs := Check(base); len(vs) != 0 {
		t.Fatalf("baseline not clean: %v", vs)
	}
	clone := func() []Entry {
		out := make([]Entry, len(base))
		copy(out, base)
		return out
	}
	findKind := func(es []Entry, k Kind) int {
		for i, e := range es {
			if e.Kind == k {
				return i
			}
		}
		t.Fatalf("no entry of kind %v", k)
		return -1
	}

	cases := []struct {
		name    string
		corrupt func([]Entry) []Entry
		rule    string
	}{
		{"drop an exit", func(es []Entry) []Entry {
			i := findKind(es, HandlerExit)
			return append(es[:i:i], es[i+1:]...)
		}, "nest-balance"},
		{"duplicate an exit", func(es []Entry) []Entry {
			i := findKind(es, HandlerExit)
			out := append(es[:i+1:i+1], es[i:]...)
			return out
		}, "nest-balance"},
		{"rename a handler exit", func(es []Entry) []Entry {
			i := findKind(es, HandlerExit)
			es[i].Handler = "someone-else"
			return es
		}, "nest-balance"},
		{"rename an event id", func(es []Entry) []Entry {
			i := findKind(es, EventRaised)
			es[i].EventName = "impostor"
			return es
		}, "id-name"},
		{"async at depth 1", func(es []Entry) []Entry {
			for i, e := range es {
				if e.Kind == EventRaised && e.Depth == 1 {
					es[i].Mode = event.Async
					return es
				}
			}
			t.Fatal("no nested raise in base trace")
			return es
		}, "mode-discipline"},
		{"negative depth", func(es []Entry) []Entry {
			es[0].Depth = -1
			return es
		}, "depth-positive"},
		{"enter under the wrong event", func(es []Entry) []Entry {
			i := findKind(es, HandlerEnter)
			es[i].Event += 100
			return es
		}, "enter-matches-event"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := Check(tc.corrupt(clone()))
			if len(vs) == 0 {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			found := false
			for _, v := range vs {
				if v.Rule == tc.rule {
					found = true
				}
			}
			if !found {
				t.Errorf("want rule %q among violations, got %v", tc.rule, vs)
			}
		})
	}
}

func TestCheckTopLevelOverlapAcrossDomainsAllowed(t *testing.T) {
	// Two domains each mid-activation: per-domain streams are
	// independently consistent even though, globally interleaved, the
	// activations overlap in time.
	entries := []Entry{
		{Kind: EventRaised, Event: 0, EventName: "A", Domain: 0},
		{Kind: HandlerEnter, Event: 0, EventName: "A", Handler: "h0", Domain: 0},
		{Kind: EventRaised, Event: 1, EventName: "B", Domain: 1},
		{Kind: HandlerEnter, Event: 1, EventName: "B", Handler: "h1", Domain: 1},
		{Kind: HandlerExit, Event: 1, EventName: "B", Handler: "h1", Domain: 1},
		{Kind: HandlerExit, Event: 0, EventName: "A", Handler: "h0", Domain: 0},
	}
	if vs := Check(entries); len(vs) != 0 {
		t.Fatalf("cross-domain overlap flagged: %v", vs)
	}
	// The same overlap inside one domain violates serialization.
	for i := range entries {
		entries[i].Domain = 0
	}
	vs := Check(entries)
	if len(vs) == 0 {
		t.Fatal("same-domain overlap not flagged")
	}
	if vs[0].Rule != "serialized-top" {
		t.Errorf("rule = %q, want serialized-top", vs[0].Rule)
	}
}

func TestCheckSchedValidLog(t *testing.T) {
	sr := NewSchedRecorder()
	s := event.New(event.WithDomains(2), event.WithSchedHook(sr))
	a := s.Define("A")
	b := s.Define("B")
	ba := s.Bind(a, "a1", func(ctx *event.Ctx) { ctx.RaiseAsync(b) })
	s.Bind(b, "b1", func(ctx *event.Ctx) {})
	sh := &event.SuperHandler{
		Entry: a,
		Segments: []event.Segment{{
			Event: a, EventName: "A", Version: s.Version(a),
			Steps: []event.Step{{Event: a, EventName: "A", Handler: "a1",
				Fn: func(ctx *event.Ctx) { ctx.RaiseAsync(b) }}},
		}},
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}
	if err := s.Raise(a); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	s.RemoveFastPath(a)
	if err := s.Unbind(ba); err != nil {
		t.Fatal(err)
	}
	log := sr.Events()
	if len(log) == 0 {
		t.Fatal("no sched events recorded")
	}
	if vs := CheckSched(log); len(vs) != 0 {
		t.Fatalf("valid sched log flagged: %v", vs)
	}
	// Sanity: the log saw a publish, an install, a fast entry, an
	// enqueue/pop pair and a removal.
	want := []event.SchedPoint{event.SchedPublish, event.SchedInstall,
		event.SchedFastEntry, event.SchedEnqueue, event.SchedPop, event.SchedRemove}
	for _, p := range want {
		found := false
		for _, e := range log {
			if e.Point == p {
				found = true
			}
		}
		if !found {
			t.Errorf("sched point %v missing from log", p)
		}
	}
}

// TestCheckSchedBatchedCoalescedLog validates a live log that exercises
// the batched-drain and coalescing sched points: a super-handler whose
// interior async raise coalesces, plus a raise burst drained through
// DrainBatched so pops arrive as SchedBatchPop records.
func TestCheckSchedBatchedCoalescedLog(t *testing.T) {
	sr := NewSchedRecorder()
	s := event.New(event.WithSchedHook(sr))
	a := s.Define("A")
	b := s.Define("B")
	aFn := func(ctx *event.Ctx) { ctx.RaiseAsync(b) }
	s.Bind(a, "a1", aFn)
	s.Bind(b, "b1", func(*event.Ctx) {})
	sh := &event.SuperHandler{
		Entry: a,
		Segments: []event.Segment{
			{Event: a, EventName: "A", Version: s.Version(a),
				Steps: []event.Step{{Event: a, EventName: "A", Handler: "a1", Fn: aFn}}},
			{Event: b, EventName: "B", Version: s.Version(b), AsyncEntry: true,
				Steps: []event.Step{{Event: b, EventName: "B", Handler: "b1", Fn: func(*event.Ctx) {}}}},
		},
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}
	// Coalesce: idle queue, sync raise captures a continuation.
	if err := s.Raise(a); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	// Batch: a burst drained in one sweep.
	for i := 0; i < 6; i++ {
		s.RaiseAsync(a)
	}
	s.DrainBatched(4)

	log := sr.Events()
	if vs := CheckSched(log); len(vs) != 0 {
		t.Fatalf("valid batched/coalesced log flagged: %v", vs)
	}
	for _, p := range []event.SchedPoint{event.SchedCoalesce, event.SchedContinue, event.SchedBatchPop} {
		found := false
		for _, e := range log {
			if e.Point == p {
				found = true
			}
		}
		if !found {
			t.Errorf("sched point %v missing from log", p)
		}
	}
}

// TestCheckSchedHandoffLog: a cross-domain pipeline whose interior
// raise is captured into the target domain's continuation FIFO produces
// a log that passes every rule, and the log actually contains the
// handoff/continue pair on the receiving domain.
func TestCheckSchedHandoffLog(t *testing.T) {
	sr := NewSchedRecorder()
	s := event.New(event.WithDomains(2), event.WithSchedHook(sr))
	a := s.Define("A") // domain 0
	b := s.Define("B") // domain 1 (hash affinity alternates IDs)
	aFn := func(ctx *event.Ctx) { ctx.RaiseAsync(b) }
	bFn := func(*event.Ctx) {}
	s.Bind(a, "a1", aFn)
	s.Bind(b, "b1", bFn)
	sh := &event.SuperHandler{
		Entry: a,
		Segments: []event.Segment{
			{Event: a, EventName: "A", Version: s.Version(a),
				Steps: []event.Step{{Event: a, EventName: "A", Handler: "a1", Fn: aFn}}},
			{Event: b, EventName: "B", Version: s.Version(b), AsyncEntry: true,
				Steps: []event.Step{{Event: b, EventName: "B", Handler: "b1", Fn: bFn}}},
		},
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}
	if err := s.Raise(a); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	log := sr.Events()
	if vs := CheckSched(log); len(vs) != 0 {
		t.Fatalf("valid handoff log flagged: %v", vs)
	}
	var handoffs, continues int
	for _, e := range log {
		if e.Point == event.SchedHandoff && e.Dom == 1 {
			handoffs++
		}
		if e.Point == event.SchedContinue && e.Dom == 1 {
			continues++
		}
	}
	if handoffs != 1 || continues != 1 {
		t.Fatalf("handoff/continue pair missing on domain 1: handoffs=%d continues=%d log=%v", handoffs, continues, log)
	}
}

func TestCheckSchedViolations(t *testing.T) {
	cases := []struct {
		name string
		log  []SchedEvent
		rule string
	}{
		{"publish regress", []SchedEvent{
			{Point: event.SchedPublish, Event: 1, Ver: 3},
			{Point: event.SchedPublish, Event: 1, Ver: 2},
		}, "publish-monotonic"},
		{"install from the future", []SchedEvent{
			{Point: event.SchedPublish, Event: 1, Ver: 1},
			{Point: event.SchedInstall, Event: 1, Ver: 2},
		}, "install-version"},
		{"fast entry without install", []SchedEvent{
			{Point: event.SchedFastEntry, Event: 1, Ver: 1},
		}, "fast-entry-guard"},
		{"fast entry after removal", []SchedEvent{
			{Point: event.SchedPublish, Event: 1, Ver: 1},
			{Point: event.SchedInstall, Event: 1, Ver: 1},
			{Point: event.SchedRemove, Event: 1},
			{Point: event.SchedFastEntry, Event: 1, Ver: 1},
		}, "fast-entry-guard"},
		{"stale guard matched", []SchedEvent{
			{Point: event.SchedPublish, Event: 1, Ver: 1},
			{Point: event.SchedInstall, Event: 1, Ver: 1},
			{Point: event.SchedPublish, Event: 1, Ver: 2},
			{Point: event.SchedFastEntry, Event: 1, Ver: 2},
		}, "fast-entry-guard"},
		{"pop before enqueue", []SchedEvent{
			{Point: event.SchedPop, Dom: 1, Event: 4},
		}, "handoff-causality"},
		{"batched pop overdraws", []SchedEvent{
			{Point: event.SchedEnqueue, Dom: 1, Event: 4},
			{Point: event.SchedEnqueue, Dom: 1, Event: 4},
			{Point: event.SchedBatchPop, Dom: 1, Event: 4, Ver: 3},
		}, "handoff-causality"},
		{"empty batch reported", []SchedEvent{
			{Point: event.SchedEnqueue, Dom: 1, Event: 4},
			{Point: event.SchedBatchPop, Dom: 1, Event: 4, Ver: 0},
		}, "batch-count"},
		{"continue before coalesce", []SchedEvent{
			{Point: event.SchedContinue, Dom: 0, Event: 4},
		}, "continue-causality"},
		{"continue overdraws handoffs", []SchedEvent{
			{Point: event.SchedHandoff, Dom: 1, Event: 4, Ver: 1},
			{Point: event.SchedContinue, Dom: 1, Event: 4},
			{Point: event.SchedContinue, Dom: 1, Event: 4},
		}, "continue-causality"},
		{"handoff credits the receiving domain only", []SchedEvent{
			{Point: event.SchedHandoff, Dom: 1, Event: 4, Ver: 1},
			{Point: event.SchedContinue, Dom: 0, Event: 4},
		}, "continue-causality"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := CheckSched(tc.log)
			if len(vs) == 0 {
				t.Fatalf("log %q not flagged", tc.name)
			}
			if vs[0].Rule != tc.rule {
				t.Errorf("rule = %q, want %q (%v)", vs[0].Rule, tc.rule, vs[0])
			}
			if !strings.Contains(vs[0].String(), tc.rule) {
				t.Errorf("String() misses the rule: %q", vs[0].String())
			}
		})
	}
}
