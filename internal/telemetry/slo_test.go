package telemetry

import "testing"

// sloTel builds a telemetry instance with one defined event and returns
// it; latencies are injected directly so the watchdog math is tested in
// isolation from the event runtime.
func sloTel() *Telemetry {
	tel := New(NewStream(1, 0), Config{})
	tel.DefineEvent(0, "req")
	return tel
}

func record(tel *Telemetry, ns int64, n int) {
	for i := 0; i < n; i++ {
		tel.RecordLatency(0, 0, ns)
	}
}

func TestWatchdogBreachAtBurnThreshold(t *testing.T) {
	tel := sloTel()
	// 99% under 1ms: the error budget is 1%. 20 slow out of 100 burns at
	// 20x — far over any threshold.
	w := NewWatchdog(tel, SLOConfig{
		Objectives: []SLOObjective{{Name: "req-p99", Event: 0, LatencyNs: 1e6, Target: 0.99}},
	}, nil)
	record(tel, 1000, 80)
	record(tel, 4e6, 20)
	fired := w.Tick()
	if len(fired) != 1 {
		t.Fatalf("breaches = %d, want 1", len(fired))
	}
	b := fired[0]
	if b.Objective != "req-p99" || b.Event != 0 {
		t.Errorf("breach identity = %+v", b)
	}
	if b.Window != 100 || b.Errors != 20 {
		t.Errorf("window/errors = %d/%d, want 100/20", b.Window, b.Errors)
	}
	if b.ErrorRate != 0.2 {
		t.Errorf("error rate = %v, want 0.2", b.ErrorRate)
	}
	if b.Burn < 19.9 || b.Burn > 20.1 {
		t.Errorf("burn = %v, want ~20 (0.2 rate / 0.01 budget)", b.Burn)
	}
	st := w.Status()
	if len(st) != 1 || !st[0].Breached || st[0].Burn != b.Burn {
		t.Errorf("status = %+v, want breached at the fired burn", st)
	}
	if w.TotalBreaches() != 1 || len(w.Breaches()) != 1 {
		t.Errorf("history: total=%d retained=%d, want 1/1", w.TotalBreaches(), len(w.Breaches()))
	}
}

func TestWatchdogUnderThresholdDoesNotFire(t *testing.T) {
	tel := sloTel()
	// 90% under 1ms: the budget is 10%. 5 slow out of 100 burns at 0.5 —
	// under the default threshold of 1.0.
	w := NewWatchdog(tel, SLOConfig{
		Objectives: []SLOObjective{{Name: "req-p90", Event: 0, LatencyNs: 1e6, Target: 0.9}},
	}, nil)
	record(tel, 1000, 95)
	record(tel, 4e6, 5)
	if fired := w.Tick(); len(fired) != 0 {
		t.Fatalf("burn 0.5 fired a breach: %+v", fired)
	}
	st := w.Status()[0]
	if st.Breached || st.Burn < 0.49 || st.Burn > 0.51 || st.Window != 100 || st.Errors != 5 {
		t.Errorf("status = %+v, want unbreached burn ~0.5 over 100/5", st)
	}
}

func TestWatchdogMinSamplesGate(t *testing.T) {
	tel := sloTel()
	w := NewWatchdog(tel, SLOConfig{
		Objectives: []SLOObjective{{Name: "req", Event: 0, LatencyNs: 1e6, Target: 0.99}},
		MinSamples: 50,
	}, nil)
	// 10 activations, all slow: a 100% error rate, but the window is too
	// small to alert on.
	record(tel, 4e6, 10)
	if fired := w.Tick(); len(fired) != 0 {
		t.Fatalf("under-sampled window fired: %+v", fired)
	}
	st := w.Status()[0]
	if st.Breached || st.Burn != 0 || st.Window != 10 {
		t.Errorf("gated status = %+v, want burn 0 over window 10", st)
	}
	// The next window includes enough samples; the slow ones from the
	// gated window must not be double-counted.
	record(tel, 4e6, 50)
	fired := w.Tick()
	if len(fired) != 1 {
		t.Fatalf("grown window did not fire: %+v", fired)
	}
	if b := fired[0]; b.Window != 50 || b.Errors != 50 {
		t.Errorf("window/errors = %d/%d, want 50/50 (delta since last tick only)", b.Window, b.Errors)
	}
}

func TestWatchdogWindowsAreDeltas(t *testing.T) {
	tel := sloTel()
	w := NewWatchdog(tel, SLOConfig{
		Objectives: []SLOObjective{{Name: "req", Event: 0, LatencyNs: 1e6, Target: 0.99}},
		MinSamples: 1,
	}, nil)
	record(tel, 4e6, 20)
	if fired := w.Tick(); len(fired) != 1 {
		t.Fatalf("first window did not fire: %+v", fired)
	}
	// No new activations: the window is empty, so no breach — the slow
	// tail from the first window must not re-fire forever.
	if fired := w.Tick(); len(fired) != 0 {
		t.Fatalf("empty window re-fired the old tail: %+v", fired)
	}
	// A healthy second window clears the status.
	record(tel, 1000, 20)
	if fired := w.Tick(); len(fired) != 0 {
		t.Fatalf("healthy window fired: %+v", fired)
	}
	st := w.Status()[0]
	if st.Breached || st.Errors != 0 || st.Window != 20 {
		t.Errorf("healthy status = %+v, want 0 errors over 20", st)
	}
	if w.TotalBreaches() != 1 {
		t.Errorf("total breaches = %d, want 1", w.TotalBreaches())
	}
}

func TestWatchdogWildcardAndCallback(t *testing.T) {
	tel := New(NewStream(1, 0), Config{})
	tel.DefineEvent(0, "a")
	tel.DefineEvent(1, "b")
	var got []SLOBreach
	w := NewWatchdog(tel, SLOConfig{
		Objectives: []SLOObjective{{Name: "all", Event: -1, LatencyNs: 1e6, Target: 0.5}},
		MinSamples: 1,
	}, func(b SLOBreach) { got = append(got, b) })
	// Event -1 merges every event: 16 slow b's out of 24 total is a 2/3
	// error rate against a 50% budget — burn 4/3.
	for i := 0; i < 8; i++ {
		tel.RecordLatency(0, 0, 1000)
	}
	for i := 0; i < 16; i++ {
		tel.RecordLatency(0, 1, 4e6)
	}
	fired := w.Tick()
	if len(fired) != 1 || len(got) != 1 {
		t.Fatalf("fired=%d callback=%d, want 1/1", len(fired), len(got))
	}
	if got[0].Window != 24 || got[0].Errors != 16 {
		t.Errorf("merged window = %+v, want 24/16 across both events", got[0])
	}
}

func TestWatchdogBreachHistoryBound(t *testing.T) {
	tel := sloTel()
	w := NewWatchdog(tel, SLOConfig{
		Objectives:  []SLOObjective{{Name: "req", Event: 0, LatencyNs: 1e6, Target: 0.99}},
		MinSamples:  1,
		MaxBreaches: 3,
	}, nil)
	for i := 0; i < 5; i++ {
		record(tel, 4e6, 4)
		if fired := w.Tick(); len(fired) != 1 {
			t.Fatalf("tick %d fired %d breaches", i, len(fired))
		}
	}
	if got := len(w.Breaches()); got != 3 {
		t.Errorf("retained breaches = %d, want 3 (MaxBreaches)", got)
	}
	if w.TotalBreaches() != 5 {
		t.Errorf("total = %d, want 5 (evictions keep counting)", w.TotalBreaches())
	}
}

func TestErrorsOverConservative(t *testing.T) {
	var h Histogram
	h.Record(100)  // bucket [64,128) — straddles no bound of interest
	h.Record(2000) // bucket [1024,2048)
	h.Record(5000) // bucket [4096,8192)
	s := h.Snapshot()
	// Bound 1024: buckets with lower bound >= 1024 hold 2000 and 5000.
	if got := errorsOver(s, 1024); got != 2 {
		t.Errorf("errorsOver(1024) = %d, want 2", got)
	}
	// Bound 1500 straddles the [1024,2048) bucket: its values may fall on
	// either side, so only the 5000 observation is guaranteed over.
	if got := errorsOver(s, 1500); got != 1 {
		t.Errorf("errorsOver(1500) = %d, want 1 (straddling bucket excluded)", got)
	}
	// A non-positive bound counts everything.
	if got := errorsOver(s, 0); got != s.Count {
		t.Errorf("errorsOver(0) = %d, want %d", got, s.Count)
	}
}
