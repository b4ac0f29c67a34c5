package telemetry

import "testing"

func TestEventsAndMerge(t *testing.T) {
	tel := New(NewStream(2, 0), Config{})
	tel.DefineEvent(0, "a")
	tel.DefineEvent(1, "b")
	tel.RecordLatency(0, 0, 100)
	tel.RecordLatency(0, 0, 200)
	tel.RecordLatency(1, 0, 300)
	tel.RecordQueueDelay(1, 1, 50)
	// Out-of-range records must be dropped, not panic.
	tel.RecordLatency(5, 0, 1)
	tel.RecordLatency(0, 99, 1)

	rows := tel.Events()
	if len(rows) != 3 {
		t.Fatalf("Events() returned %d rows, want 3: %+v", len(rows), rows)
	}
	if rows[0].Event != 0 || rows[0].Domain != 0 || rows[0].Latency.Count != 2 {
		t.Fatalf("unexpected first row: %+v", rows[0])
	}
	if rows[0].Name != "a" {
		t.Fatalf("row name = %q, want a", rows[0].Name)
	}

	merged := MergeEvents(rows)
	if len(merged) != 2 {
		t.Fatalf("MergeEvents returned %d rows, want 2", len(merged))
	}
	if merged[0].Event != 0 || merged[0].Domain != -1 || merged[0].Latency.Count != 3 {
		t.Fatalf("unexpected merged row: %+v", merged[0])
	}
	if merged[0].Latency.Sum != 600 {
		t.Fatalf("merged latency sum = %d, want 600", merged[0].Latency.Sum)
	}
}

func TestFlightRingWrapAndSnapshot(t *testing.T) {
	tel := New(NewStream(1, 16), Config{})
	tel.DefineEvent(3, "msg")
	for i := 0; i < 40; i++ {
		outcome := OutcomeOK
		if i%7 == 0 {
			outcome = OutcomeFault
		}
		tel.st.Write(0, &Record{Event: 3, Mode: 1, Outcome: outcome, Start: 990, End: int64(1000 + i)})
	}
	recs := tel.FlightRecords(0)
	if len(recs) != 16 {
		t.Fatalf("snapshot has %d records, want 16 (ring capacity)", len(recs))
	}
	for i, r := range recs {
		wantSeq := uint64(24 + i)
		if r.Seq != wantSeq {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, wantSeq)
		}
		if r.Event != 3 || r.Name != "msg" || r.Domain != 0 {
			t.Fatalf("record %d mislabeled: %+v", i, r)
		}
		if r.Duration != int64(10+r.Seq) {
			t.Fatalf("record %d duration %d, want %d", i, r.Duration, 10+r.Seq)
		}
	}
}

func TestFlightDump(t *testing.T) {
	var seen *FlightDump
	tel := New(NewStream(2, 0), Config{OnDump: func(d *FlightDump) { seen = d }})
	tel.DefineEvent(0, "boom")
	cause := "kaput"
	tel.st.Write(1, &Record{Outcome: OutcomeFault, Attempt: 2, Start: 8500, End: 9000, Cause: &cause})
	d := tel.DumpFlight(1, "quarantine: boom/h")
	if seen != d {
		t.Fatal("OnDump hook did not observe the dump")
	}
	if tel.LastDump() != d || tel.DumpCount() != 1 {
		t.Fatal("LastDump/DumpCount disagree with the dump just taken")
	}
	if d.Domain != 1 || len(d.Records) != 1 {
		t.Fatalf("unexpected dump: %+v", d)
	}
	r := d.Records[0]
	if r.Outcome != OutcomeFault || r.Cause != "kaput" || r.Attempt != 2 {
		t.Fatalf("unexpected dump record: %+v", r)
	}
}

func TestGraphFeedSampling(t *testing.T) {
	tel := New(NewStream(1, 0), Config{SampleEvery: 1})
	tel.DefineEvent(0, "a")
	tel.DefineEvent(1, "b")
	for i := 0; i < 10; i++ {
		tel.RecordDispatch(0, 0, true, tel.st.Draw(0))
		tel.RecordDispatch(0, 1, false, tel.st.Draw(0))
	}
	g := tel.Graph()
	if len(g.Edges) != 2 {
		t.Fatalf("graph has %d edges, want 2: %+v", len(g.Edges), g.Edges)
	}
	// a->b happens 10 times, b->a 9 (no wraparound before the first a).
	if g.Edges[0].FromName != "a" || g.Edges[0].ToName != "b" || g.Edges[0].Weight != 10 {
		t.Fatalf("unexpected top edge: %+v", g.Edges[0])
	}
	if g.Edges[1].Weight != 9 {
		t.Fatalf("unexpected second edge: %+v", g.Edges[1])
	}
	// The sync flag follows the destination event's dispatch mode: b was
	// always raised async (a->b sync weight 0), a always sync.
	if g.Edges[0].SyncWeight != 0 || g.Edges[1].SyncWeight != 9 {
		t.Fatalf("sync weights = %d/%d, want 0/9", g.Edges[0].SyncWeight, g.Edges[1].SyncWeight)
	}

	// The 1-in-N draw is hashed, not strided: over a strictly periodic
	// a,b,a,b stream both edges must still be sampled, at roughly 1/N.
	sampled := New(NewStream(1, 0), Config{SampleEvery: 4})
	for i := 0; i < 401; i++ {
		sampled.RecordDispatch(0, int32(i%2), true, sampled.st.Draw(0))
	}
	edges := sampled.Graph().Edges
	if len(edges) != 2 {
		t.Fatalf("sampled feed saw %d edges, want 2 (stride aliasing?): %+v", len(edges), edges)
	}
	total := edges[0].Weight + edges[1].Weight
	if total < 60 || total > 140 {
		t.Fatalf("sampled feed recorded %d of 400 pairs, want ~100", total)
	}
}

func TestSampleTimed(t *testing.T) {
	// TimeSampleEvery 1 (and out-of-range domains) are the edge cases;
	// the default draw must land near 1-in-N without striding.
	every := New(NewStream(1, 0), Config{TimeSampleEvery: 1})
	for i := 0; i < 100; i++ {
		if !every.RecordDispatch(0, 0, true, every.st.Draw(0)) {
			t.Fatal("TimeSampleEvery 1 must sample every activation")
		}
	}
	if every.RecordDispatch(9, 0, true, 0) {
		t.Fatal("out-of-range domain sampled")
	}

	tel := New(NewStream(1, 0), Config{TimeSampleEvery: 8})
	hits := 0
	for i := 0; i < 8000; i++ {
		if tel.RecordDispatch(0, int32(i%2), true, tel.st.Draw(0)) {
			hits++
		}
	}
	if hits < 600 || hits > 1400 {
		t.Fatalf("1-in-8 draw sampled %d of 8000, want ~1000", hits)
	}
}
