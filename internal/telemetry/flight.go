package telemetry

import "fmt"

// Activation outcomes recorded in the flight recorder.
const (
	OutcomeOK    uint8 = 0 // every handler of the activation completed
	OutcomeFault uint8 = 1 // at least one handler panic was recovered
)

// FlightRecord is one completed top-level activation as seen by the
// flight recorder: what ran, where, how it ended and how long it took.
type FlightRecord struct {
	Seq      uint64 `json:"seq"` // global per-domain sequence number (monotonic)
	Event    int32  `json:"event"`
	Name     string `json:"name"`
	Mode     uint8  `json:"mode"` // event.Mode numeric value (0 sync, 1 async, 2 delayed)
	Domain   int    `json:"domain"`
	Outcome  uint8  `json:"outcome"`
	Attempt  int    `json:"attempt"`         // prior retry attempts of the activation
	Duration int64  `json:"dur_ns"`          // activation latency in nanoseconds
	End      int64  `json:"end_ns"`          // completion time on the system clock (ns)
	Cause    string `json:"cause,omitempty"` // first recovered panic, "" when OutcomeOK
}

// FlightRecords returns domain dom's flight view, oldest record first:
// the stream's top-level records, i.e. every timed or faulted top-level
// activation and, when span tracing shares the stream, every traced one.
// Safe to call concurrently with recording.
func (t *Telemetry) FlightRecords(dom int) []FlightRecord {
	if dom < 0 || dom >= len(t.doms) {
		return nil
	}
	recs := t.st.Records(dom, func(r *Record) bool { return !r.Nested }, nil)
	out := make([]FlightRecord, len(recs))
	for i, r := range recs {
		out[i] = FlightRecord{
			Seq: r.Seq, Event: r.Event, Name: t.st.EventName(r.Event), Mode: r.Mode,
			Domain: dom, Outcome: r.Outcome, Attempt: r.Attempt,
			Duration: r.End - r.Start, End: r.End,
		}
		if r.Cause != nil {
			out[i].Cause = *r.Cause
		}
	}
	return out
}

// FlightDump is one automatic post-mortem capture: the flight ring of
// the domain on which a quarantine trip or dead-letter occurred, taken
// at the moment of the trigger.
type FlightDump struct {
	Reason  string         `json:"reason"` // e.g. "quarantine: MsgFromUser/push-chaos"
	Domain  int            `json:"domain"`
	Seq     int64          `json:"seq"` // dump ordinal (1-based)
	Records []FlightRecord `json:"records"`
}

// DumpFlight captures domain dom's ring under the given reason, stores
// it as the last dump and invokes the OnDump hook. The runtime calls it
// on quarantine trips and dead-letters; applications may also call it
// directly (e.g. from a watchdog).
func (t *Telemetry) DumpFlight(dom int, reason string) *FlightDump {
	d := &FlightDump{
		Reason:  reason,
		Domain:  dom,
		Seq:     t.dumps.Add(1),
		Records: t.FlightRecords(dom),
	}
	t.lastDump.Store(d)
	if t.cfg.OnDump != nil {
		t.cfg.OnDump(d)
	}
	return d
}

// LastDump returns the most recent automatic dump (nil if none yet).
func (t *Telemetry) LastDump() *FlightDump { return t.lastDump.Load() }

// Validate checks a flight dump's internal consistency and returns one
// message per violated invariant (nil when the dump is coherent). The
// invariants mirror what the single-writer ring guarantees: sequence
// numbers strictly increase, every record belongs to the dump's domain,
// outcomes are one of the defined codes, a fault outcome carries its
// cause (and a clean one doesn't), and durations are non-negative with
// non-decreasing completion times. evprof -check applies it to saved
// post-mortem dumps.
func (d *FlightDump) Validate() []string {
	var out []string
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if d == nil {
		return []string{"nil dump"}
	}
	if d.Reason == "" {
		bad("dump has no reason")
	}
	if d.Seq < 1 {
		bad("dump ordinal %d, want >= 1", d.Seq)
	}
	var lastSeq uint64
	var lastEnd int64
	for i, r := range d.Records {
		if i > 0 && r.Seq <= lastSeq {
			bad("record %d: seq %d not greater than previous %d", i, r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		if r.Domain != d.Domain {
			bad("record %d: domain %d, dump is of domain %d", i, r.Domain, d.Domain)
		}
		if r.Outcome != OutcomeOK && r.Outcome != OutcomeFault {
			bad("record %d: unknown outcome %d", i, r.Outcome)
		}
		if r.Outcome == OutcomeFault && r.Cause == "" {
			bad("record %d: fault outcome with no cause", i)
		}
		if r.Outcome == OutcomeOK && r.Cause != "" {
			bad("record %d: clean outcome with cause %q", i, r.Cause)
		}
		if r.Duration < 0 {
			bad("record %d: negative duration %d", i, r.Duration)
		}
		if i > 0 && r.End < lastEnd {
			bad("record %d: completion time %d before previous %d", i, r.End, lastEnd)
		}
		lastEnd = r.End
	}
	return out
}

// DumpCount reports how many dumps have been taken.
func (t *Telemetry) DumpCount() int64 { return t.dumps.Load() }
