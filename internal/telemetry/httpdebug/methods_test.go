package httpdebug

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"eventopt/internal/event"
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
	"eventopt/internal/trace"
)

// newFullServer builds a server with every optional layer enabled so
// all endpoints serve real documents.
func newFullServer(t *testing.T) (*Server, *event.System) {
	t.Helper()
	s := event.New(
		event.WithTelemetry(telemetry.Config{SampleEvery: 1, TimeSampleEvery: 1}),
		event.WithSpanTracing(span.Config{SampleEvery: 1}),
		event.WithSLOWatchdog(telemetry.SLOConfig{
			Objectives: []telemetry.SLOObjective{
				{Name: "req-fast", Event: -1, LatencyNs: 1_000_000_000, Target: 0.99},
			},
		}),
	)
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

// TestEndpointMethodAndContentType is the regression net over the whole
// debug surface: every endpoint must reject mutating methods with 405
// (plus an Allow header) and serve GET with its declared Content-Type.
// The historical behavior answered 200 to any method, which masked
// misconfigured scrapers.
func TestEndpointMethodAndContentType(t *testing.T) {
	srv, _ := newFullServer(t)
	endpoints := []struct {
		path string
		ct   string // Content-Type prefix expected on GET
	}{
		{"/metrics", "application/json"},
		{"/metrics.prom", "text/plain; version=0.0.4"},
		{"/events", "application/json"},
		{"/graph", "text/vnd.graphviz"},
		{"/flightrecorder", "application/json"},
		{"/optimizer", "application/json"},
		{"/spans", "application/json"},
		{"/trace", "application/json"},
	}
	for _, ep := range endpoints {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", ep.path, nil))
		if w.Code != 200 {
			t.Errorf("GET %s -> %d: %s", ep.path, w.Code, w.Body)
			continue
		}
		if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, ep.ct) {
			t.Errorf("GET %s Content-Type = %q, want prefix %q", ep.path, ct, ep.ct)
		}
		for _, method := range []string{"POST", "PUT", "DELETE", "PATCH"} {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(method, ep.path, nil))
			if w.Code != 405 {
				t.Errorf("%s %s -> %d, want 405", method, ep.path, w.Code)
			}
			if allow := w.Header().Get("Allow"); !strings.Contains(allow, "GET") {
				t.Errorf("%s %s Allow = %q, want GET listed", method, ep.path, allow)
			}
		}
		// HEAD is a read and must pass the guard.
		w = httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("HEAD", ep.path, nil))
		if w.Code != 200 {
			t.Errorf("HEAD %s -> %d, want 200", ep.path, w.Code)
		}
	}
}

func TestSpansEndpoint(t *testing.T) {
	srv, _ := newFullServer(t)
	w := get(t, srv, "/spans")
	if w.Code != 200 {
		t.Fatalf("/spans -> %d: %s", w.Code, w.Body)
	}
	var doc SpansDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid /spans JSON: %v", err)
	}
	if !doc.Enabled || doc.SampleEvery != 1 {
		t.Fatalf("spans doc header = %+v", doc)
	}
	if doc.Stats.RootsSampled == 0 || len(doc.Recent) == 0 {
		t.Fatalf("spans doc carries no spans: stats=%+v recent=%d", doc.Stats, len(doc.Recent))
	}
	// Every root raise produced a root span and a nested sync child.
	var roots, syncs int
	for _, sp := range doc.Recent {
		switch sp.Kind {
		case span.KindRoot:
			roots++
		case span.KindSync:
			syncs++
		}
	}
	if roots == 0 || syncs == 0 {
		t.Fatalf("span kinds missing: %d roots, %d syncs", roots, syncs)
	}

	w = get(t, srv, "/spans?format=chrome")
	if w.Code != 200 {
		t.Fatalf("/spans?format=chrome -> %d", w.Code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
}

func TestSpansEndpointDisabled(t *testing.T) {
	srv := New(event.New(), nil)
	if w := get(t, srv, "/spans"); w.Code != 404 {
		t.Fatalf("/spans without span tracing -> %d, want 404", w.Code)
	}
}

func TestPromEndpoint(t *testing.T) {
	srv, s := newFullServer(t)
	s.SLO().Tick() // publish a burn-rate evaluation
	w := get(t, srv, "/metrics.prom")
	if w.Code != 200 {
		t.Fatalf("/metrics.prom -> %d: %s", w.Code, w.Body)
	}
	body := w.Body.String()
	for _, want := range []string{
		`eventopt_raises_total{mode="sync"} 40`, // 20 top-level + 20 nested
		"# TYPE eventopt_event_latency_seconds histogram",
		`eventopt_event_latency_seconds_bucket{event="req",le="+Inf"}`,
		`eventopt_event_latency_seconds_count{event="req"}`,
		"# TYPE eventopt_spans_recorded_total counter",
		`eventopt_slo_burn_rate{objective="req-fast"}`,
		"eventopt_slo_breaches_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	// Histogram bucket series must be cumulative and end at _count.
	if strings.Contains(body, "NaN") || strings.Contains(body, "-1") {
		t.Errorf("exposition contains invalid values:\n%s", body)
	}
}
