package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestFlightDumpValidate(t *testing.T) {
	good := func() *FlightDump {
		return &FlightDump{
			Reason: "dead-letter: E",
			Domain: 0,
			Seq:    2,
			Records: []FlightRecord{
				{Seq: 1, Outcome: OutcomeOK, Duration: 3, End: 10},
				{Seq: 2, Outcome: OutcomeFault, Cause: "panic: x", Duration: 4, End: 12},
				{Seq: 5, Outcome: OutcomeOK, Duration: 1, End: 12}, // seq gaps (lapped ring) are fine
			},
		}
	}
	if got := good().Validate(); got != nil {
		t.Fatalf("coherent dump flagged: %v", got)
	}

	cases := []struct {
		name    string
		mutate  func(*FlightDump)
		wantSub string
	}{
		{"no-reason", func(d *FlightDump) { d.Reason = "" }, "no reason"},
		{"bad-ordinal", func(d *FlightDump) { d.Seq = 0 }, "ordinal"},
		{"seq-regress", func(d *FlightDump) { d.Records[1].Seq = 1 }, "not greater"},
		{"wrong-domain", func(d *FlightDump) { d.Records[0].Domain = 3 }, "domain"},
		{"bad-outcome", func(d *FlightDump) { d.Records[0].Outcome = 9 }, "unknown outcome"},
		{"fault-no-cause", func(d *FlightDump) { d.Records[1].Cause = "" }, "no cause"},
		{"ok-with-cause", func(d *FlightDump) { d.Records[0].Cause = "x" }, "clean outcome"},
		{"negative-dur", func(d *FlightDump) { d.Records[0].Duration = -1 }, "negative duration"},
		{"time-regress", func(d *FlightDump) { d.Records[2].End = 5 }, "before previous"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := good()
			tc.mutate(d)
			got := d.Validate()
			if len(got) == 0 {
				t.Fatal("corruption not flagged")
			}
			ok := false
			for _, msg := range got {
				if strings.Contains(msg, tc.wantSub) {
					ok = true
				}
			}
			if !ok {
				t.Errorf("violations %v lack %q", got, tc.wantSub)
			}
		})
	}

	var nilDump *FlightDump
	if got := nilDump.Validate(); len(got) != 1 {
		t.Errorf("nil dump: %v", got)
	}
}

// FuzzFlightDump feeds arbitrary bytes through the decode-and-validate
// path evprof -check applies to saved flight dumps. Decoding and
// validation must never panic, and a dump Validate accepts must survive
// a JSON re-encode unchanged and still validate clean. The seed
// testdata/faultinject_dump.json is the quarantine dump of a seccomm
// run with injected push-chaos faults (internal/faultinject) on the
// real clock.
func FuzzFlightDump(f *testing.F) {
	seed, err := os.ReadFile("testdata/faultinject_dump.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"reason":"x","seq":1,"records":null}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, in []byte) {
		var d FlightDump
		if json.NewDecoder(bytes.NewReader(in)).Decode(&d) != nil || d.Validate() != nil {
			return
		}
		out, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var again FlightDump
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("re-encoded dump rejected: %v", err)
		}
		if vs := again.Validate(); vs != nil {
			t.Fatalf("re-encoded dump invalid: %v", vs)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("round trip changed the dump:\n in=%+v\nout=%+v", d, again)
		}
	})
}
