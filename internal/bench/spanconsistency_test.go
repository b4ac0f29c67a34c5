package bench

import (
	"testing"

	"eventopt/internal/event"
	"eventopt/internal/seccomm"
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
	"eventopt/internal/trace"
)

// spanOpts traces every root with a ring big enough that no parent span
// of the golden workloads is overwritten before the final snapshot. The
// ring is the observation stream's, sized through the telemetry config.
var spanOpts = []event.Option{
	event.WithSpanTracing(span.Config{SampleEvery: 1}),
	event.WithTelemetry(telemetry.Config{RingSize: 1 << 14}),
}

// checkSpanTree asserts the structural invariants every exported span
// set must satisfy at quiescence: non-root spans point at a recorded
// parent in the same trace, children start no earlier than their
// parent, and queue-crossing hops (async, coalesced, timer, retry,
// dead-letter) start only after the raising activation finished — the
// span-tree mirror of the scheduler's handoff-causality rule.
func checkSpanTree(t *testing.T, spans []span.Span) {
	t.Helper()
	byID := make(map[uint64]span.Span, len(spans))
	for _, sp := range spans {
		if _, dup := byID[sp.ID]; dup {
			t.Errorf("duplicate span ID %x", sp.ID)
		}
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		if sp.Root() {
			if sp.Parent != 0 || sp.Kind != span.KindRoot {
				t.Errorf("malformed root span: %+v", sp)
			}
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("span %x (%s %v) orphaned: parent %x not recorded", sp.ID, sp.Name, sp.Kind, sp.Parent)
			continue
		}
		if sp.Trace != p.Trace {
			t.Errorf("span %x crossed traces: %x vs parent's %x", sp.ID, sp.Trace, p.Trace)
		}
		if sp.Start < p.Start {
			t.Errorf("span %x (%v) started before its parent: %d < %d", sp.ID, sp.Kind, sp.Start, p.Start)
		}
		switch sp.Kind {
		case span.KindAsync, span.KindCoalesced, span.KindTimer, span.KindRetry, span.KindDeadLetter:
			if sp.Start < p.End {
				t.Errorf("queued span %x (%v) ran before its parent finished: start %d < parent end %d",
					sp.ID, sp.Kind, sp.Start, p.End)
			}
		}
	}
}

// kindSet reports which hop kinds appear in a span set.
func kindSet(spans []span.Span) map[span.Kind]int {
	m := make(map[span.Kind]int)
	for _, sp := range spans {
		m[sp.Kind]++
	}
	return m
}

// TestSpanTreeConsistentWithSchedSecComm runs the SecComm golden
// workload with span tracing and the scheduling recorder on the same
// system: the scheduling log must pass CheckSched, and the span trees
// must satisfy the matching structural invariants.
func TestSpanTreeConsistentWithSchedSecComm(t *testing.T) {
	rec := trace.NewSchedRecorder()
	e, err := seccomm.New(seccomm.Config{
		DESKey: []byte("8bytekey"),
		XORKey: []byte{0x5A, 0xA5, 0x3C},
		IV:     []byte("initvect"),
	}, append(spanOpts, event.WithSchedHook(rec))...)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 256)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	var pkt []byte
	e.OnSend(func(p []byte) { pkt = append([]byte(nil), p...) })
	e.Push(msg)
	if pkt == nil {
		t.Fatal("push produced no packet")
	}
	for i := 0; i < 50; i++ {
		e.Push(msg)
		e.HandlePacket(pkt)
	}
	e.Sys.Drain()
	if e.Errors != 0 {
		t.Fatalf("pop errors: %d", e.Errors)
	}

	if vs := trace.CheckSched(rec.Events()); len(vs) != 0 {
		t.Fatalf("scheduling log inconsistent: %v", vs)
	}
	spans := e.Sys.Spans().Recent()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	checkSpanTree(t, spans)
	kinds := kindSet(spans)
	if kinds[span.KindRoot] == 0 || kinds[span.KindSync] == 0 {
		t.Fatalf("seccomm span kinds = %v, want roots and sync children", kinds)
	}
}

// TestSpanTreeConsistentWithSchedBatchPipe does the same over the
// batched-drain pipeline workload, which exercises coalesced
// continuations and async fallbacks through DrainBatched.
func TestSpanTreeConsistentWithSchedBatchPipe(t *testing.T) {
	rec := trace.NewSchedRecorder()
	_, s, err := BatchPipeWorkload(4, append(spanOpts, event.WithSchedHook(rec))...)
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if vs := trace.CheckSched(rec.Events()); len(vs) != 0 {
		t.Fatalf("scheduling log inconsistent: %v", vs)
	}
	spans := s.Spans().Recent()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	checkSpanTree(t, spans)
	kinds := kindSet(spans)
	if kinds[span.KindRoot] == 0 || kinds[span.KindCoalesced] == 0 || kinds[span.KindAsync] == 0 {
		t.Fatalf("batchpipe span kinds = %v, want roots, coalesced and async hops", kinds)
	}
}
