package telemetry

import "testing"

// TestSanitizeEdge pins the sanitization rules profile.FromTelemetry
// relies on: a sampling artifact must never surface as a negative or
// inflated weight.
func TestSanitizeEdge(t *testing.T) {
	cases := []struct {
		name string
		in   GraphEdge
		ok   bool
		want GraphEdge
	}{
		{"valid", GraphEdge{From: 1, To: 2, Weight: 5, SyncWeight: 3}, true, GraphEdge{From: 1, To: 2, Weight: 5, SyncWeight: 3}},
		{"negative from", GraphEdge{From: -1, To: 2, Weight: 5}, false, GraphEdge{}},
		{"negative to", GraphEdge{From: 1, To: -2, Weight: 5}, false, GraphEdge{}},
		{"zero weight", GraphEdge{From: 1, To: 2, Weight: 0}, false, GraphEdge{}},
		{"negative weight", GraphEdge{From: 1, To: 2, Weight: -7}, false, GraphEdge{}},
		{"negative sync clamped up", GraphEdge{From: 1, To: 2, Weight: 5, SyncWeight: -2}, true, GraphEdge{From: 1, To: 2, Weight: 5, SyncWeight: 0}},
		{"excess sync clamped down", GraphEdge{From: 1, To: 2, Weight: 5, SyncWeight: 50}, true, GraphEdge{From: 1, To: 2, Weight: 5, SyncWeight: 5}},
	}
	for _, c := range cases {
		got, ok := SanitizeEdge(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("%s: SanitizeEdge(%+v) = (%+v, %v), want (%+v, %v)",
				c.name, c.in, got, ok, c.want, c.ok)
		}
	}
}
