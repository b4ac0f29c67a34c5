package span

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestEnumJSONLegacyIntegers: a legacy integer decodes only when the
// value it yields re-encodes to a name that decodes back to it; an
// out-of-range kind or tier and a flag word with unnamed bits are
// rejected instead of turning into "kind(200)" or silently losing bits.
func TestEnumJSONLegacyIntegers(t *testing.T) {
	for _, tc := range []struct {
		name string
		into func() any
		in   string
		ok   bool
	}{
		{"kind last", func() any { return new(Kind) }, "7", true},
		{"kind past table", func() any { return new(Kind) }, "8", false},
		{"kind 200", func() any { return new(Kind) }, "200", false},
		{"tier last", func() any { return new(Tier) }, "3", true},
		{"tier past table", func() any { return new(Tier) }, "4", false},
		{"tier 200", func() any { return new(Tier) }, "200", false},
		{"flags all named", func() any { return new(Flags) }, "15", true},
		{"flags next bit", func() any { return new(Flags) }, "16", false},
		{"flags 240", func() any { return new(Flags) }, "240", false},
		{"flags zero", func() any { return new(Flags) }, "0", true},
	} {
		v := tc.into()
		err := json.Unmarshal([]byte(tc.in), v)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Unmarshal(%s) err = %v, want ok = %v", tc.name, tc.in, err, tc.ok)
			continue
		}
		if err == nil {
			checkReencode(t, tc.name, v)
		}
	}
}

// checkReencode asserts that a decoded value encodes and decodes back to
// an equal value.
func checkReencode(t *testing.T, what string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: accepted %#v does not encode: %v", what, v, err)
	}
	back := reflect.New(reflect.TypeOf(v).Elem())
	if err := json.Unmarshal(b, back.Interface()); err != nil {
		t.Fatalf("%s: re-encoding %s of an accepted value does not decode: %v", what, b, err)
	}
	if !reflect.DeepEqual(back.Interface(), v) {
		t.Fatalf("%s: round trip changed the value: %#v -> %s -> %#v", what, v, b, back.Interface())
	}
}

// spansDoc is the span-bearing part of the debug server's /spans
// document.
type spansDoc struct {
	Traces []Trace `json:"traces"`
	Recent []Span  `json:"recent"`
}

// FuzzSpanJSON: decoding a span, a trace or a /spans document never
// panics, and whatever decodes re-encodes and re-decodes to an equal
// value. The corpus is seeded with a /spans document served by a
// two-domain pipeline run (async hops, sync nests, timers, faults).
func FuzzSpanJSON(f *testing.F) {
	doc, err := os.ReadFile("testdata/spans.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	var parsed spansDoc
	if err := json.Unmarshal(doc, &parsed); err != nil || len(parsed.Traces) == 0 {
		f.Fatalf("seed document has no traces (err %v)", err)
	}
	for _, tr := range parsed.Traces {
		b, _ := json.Marshal(tr)
		f.Add(b)
		for _, sp := range tr.Spans {
			b, _ := json.Marshal(sp)
			f.Add(b)
		}
	}
	f.Add([]byte(`{"kind":200,"tier":4,"flags":240}`))
	f.Add([]byte(`{"kind":"handoff","tier":"hir","flags":"fault,deopt-replay"}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, v := range []any{new(Span), new(Trace), new(spansDoc)} {
			if json.Unmarshal(in, v) == nil {
				checkReencode(t, reflect.TypeOf(v).Elem().Name(), v)
			}
		}
	})
}
