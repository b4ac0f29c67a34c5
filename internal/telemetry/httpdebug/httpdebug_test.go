package httpdebug

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"eventopt/internal/event"
	"eventopt/internal/telemetry"
	"eventopt/internal/trace"
)

func newServer(t *testing.T) (*Server, *event.System) {
	t.Helper()
	s := event.New(event.WithTelemetry(telemetry.Config{SampleEvery: 1, TimeSampleEvery: 1}))
	rec := trace.NewRecorder()
	s.SetTracer(rec)
	a := s.Define("req")
	b := s.Define("resp")
	s.Bind(a, "ha", func(ctx *event.Ctx) { ctx.Raise(b) })
	s.Bind(b, "hb", func(ctx *event.Ctx) {})
	for i := 0; i < 20; i++ {
		if err := s.Raise(a); err != nil {
			t.Fatal(err)
		}
	}
	return New(s, rec), s
}

func get(t *testing.T, srv *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	w := get(t, srv, "/metrics")
	if w.Code != 200 {
		t.Fatalf("/metrics -> %d: %s", w.Code, w.Body)
	}
	var m Metrics
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("invalid /metrics JSON: %v", err)
	}
	if !m.Telemetry || m.Domains != 1 {
		t.Fatalf("unexpected metrics header: %+v", m)
	}
	// 20 top-level raises plus 20 nested req->resp raises.
	if m.Stats.Raises != 40 || m.Stats.HandlersRun != 40 {
		t.Fatalf("stats = %+v, want 40 raises / 40 handlers", m.Stats)
	}
	if len(m.Events) == 0 || m.Events[0].Latency.Count == 0 {
		t.Fatalf("metrics carry no event telemetry: %+v", m.Events)
	}
}

func TestEventsEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	var doc EventsDoc
	w := get(t, srv, "/events")
	if w.Code != 200 {
		t.Fatalf("/events -> %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TimeSampleEvery != 1 || len(doc.Events) != 2 || len(doc.Merged) != 2 {
		t.Fatalf("unexpected /events doc: every=%d events=%d merged=%d",
			doc.TimeSampleEvery, len(doc.Events), len(doc.Merged))
	}
	if doc.Merged[0].Domain != -1 {
		t.Fatalf("merged rows must have domain -1: %+v", doc.Merged[0])
	}
}

func TestGraphEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	w := get(t, srv, "/graph")
	if w.Code != 200 {
		t.Fatalf("/graph -> %d: %s", w.Code, w.Body)
	}
	dot := w.Body.String()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "req") || !strings.Contains(dot, "resp") {
		t.Fatalf("DOT output missing graph structure:\n%s", dot)
	}
	// A threshold above every weight prunes all edges but stays valid DOT.
	w = get(t, srv, "/graph?threshold=10000")
	if w.Code != 200 || !strings.Contains(w.Body.String(), "digraph") {
		t.Fatalf("/graph?threshold -> %d:\n%s", w.Code, w.Body)
	}
	if w := get(t, srv, "/graph?threshold=bogus"); w.Code != 400 {
		t.Fatalf("bogus threshold -> %d, want 400", w.Code)
	}
}

func TestFlightAndTraceEndpoints(t *testing.T) {
	srv, _ := newServer(t)
	w := get(t, srv, "/flightrecorder")
	if w.Code != 200 {
		t.Fatalf("/flightrecorder -> %d", w.Code)
	}
	var doc FlightDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Domains) != 1 || len(doc.Domains[0]) != 20 {
		t.Fatalf("flight doc has %d domains / %d records, want 1/20",
			len(doc.Domains), len(doc.Domains[0]))
	}

	w = get(t, srv, "/trace")
	if w.Code != 200 {
		t.Fatalf("/trace -> %d", w.Code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("/trace is not valid trace-event JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("/trace exported no events")
	}
}

func TestPprofIndex(t *testing.T) {
	srv, _ := newServer(t)
	if w := get(t, srv, "/debug/pprof/"); w.Code != 200 {
		t.Fatalf("/debug/pprof/ -> %d", w.Code)
	}
}

func TestDisabledTelemetry(t *testing.T) {
	s := event.New() // no telemetry, no recorder
	srv := New(s, nil)
	if w := get(t, srv, "/metrics"); w.Code != 200 {
		t.Fatalf("/metrics without telemetry -> %d, want 200 (counters still served)", w.Code)
	}
	for _, path := range []string{"/events", "/graph", "/flightrecorder", "/optimizer", "/trace"} {
		if w := get(t, srv, path); w.Code != 404 {
			t.Fatalf("%s without telemetry -> %d, want 404", path, w.Code)
		}
	}
}

// TestOptimizerFastPathsAndPGO covers the provenance surface: an
// installed fast path appears in /optimizer's fast_paths with the tier
// that produced it.
func TestOptimizerFastPathsAndPGO(t *testing.T) {
	srv, s := newServer(t)
	a := s.Lookup("req")
	var steps []event.Step
	for _, h := range s.Handlers(a) {
		steps = append(steps, event.Step{Event: a, EventName: "req", Handler: h.Name, Fn: h.Fn})
	}
	sh := &event.SuperHandler{
		Entry:      a,
		Provenance: "generated",
		Segments: []event.Segment{
			{Event: a, EventName: "req", Version: s.Version(a), Steps: steps},
		},
	}
	if err := s.InstallFastPath(sh); err != nil {
		t.Fatal(err)
	}

	w := get(t, srv, "/optimizer")
	if w.Code != 200 {
		t.Fatalf("/optimizer -> %d: %s", w.Code, w.Body)
	}
	var doc OptimizerDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid /optimizer JSON: %v", err)
	}
	if len(doc.FastPaths) != 1 {
		t.Fatalf("fast_paths = %+v, want 1 entry", doc.FastPaths)
	}
	fp := doc.FastPaths[0]
	if fp.EntryName != "req" || fp.Provenance != "generated" {
		t.Fatalf("fast path = %+v, want req/generated", fp)
	}

}

func TestOptimizerEndpoint(t *testing.T) {
	srv, s := newServer(t)

	// Telemetry on but no controller attached: pollable, disabled.
	w := get(t, srv, "/optimizer")
	if w.Code != 200 {
		t.Fatalf("/optimizer -> %d: %s", w.Code, w.Body)
	}
	var snap telemetry.OptimizerSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("invalid /optimizer JSON: %v", err)
	}
	if snap.Enabled {
		t.Fatalf("no controller attached but enabled: %+v", snap)
	}

	// A published snapshot (what the adaptive controller emits per tick)
	// is served verbatim.
	s.Telemetry().PublishOptimizer(&telemetry.OptimizerSnapshot{
		Enabled: true, Running: true, Tick: 7, Promotions: 2,
		Installed: []telemetry.OptimizerPlan{{
			Entry: 0, EntryName: "req", Chain: []string{"req", "resp"},
			Handlers: 2, Score: 64, GainNs: 1500,
		}},
	})
	w = get(t, srv, "/optimizer")
	if w.Code != 200 {
		t.Fatalf("/optimizer -> %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Enabled || snap.Tick != 7 || snap.Promotions != 2 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if len(snap.Installed) != 1 || snap.Installed[0].EntryName != "req" ||
		len(snap.Installed[0].Chain) != 2 {
		t.Fatalf("installed plans = %+v", snap.Installed)
	}
}
