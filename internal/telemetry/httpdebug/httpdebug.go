// Package httpdebug serves the live telemetry of an event system over
// HTTP for interactive inspection (evtop, curl) and trace capture:
//
//	/metrics         expvar-style JSON: counters, per-domain breakdown, event histograms
//	/metrics.prom    Prometheus/OpenMetrics text exposition of the same data
//	/events          per-event telemetry rows (latency + queue-delay histograms)
//	/graph           the live event graph as Graphviz DOT (?threshold=N prunes edges)
//	/flightrecorder  per-domain flight-recorder contents and the last automatic dump
//	/optimizer       adaptive-optimizer state: installed plans (with provenance), fast paths
//	/spans           causal span traces (?format=chrome for a Chrome trace export)
//	/trace           Chrome trace-event JSON of the attached trace recorder
//	/debug/pprof/    the standard Go profiling endpoints
//
// The handler only reads lock-free snapshots, so it is safe to serve
// from a production system while events are dispatching. All debug
// endpoints are read-only and accept GET/HEAD only (405 otherwise).
package httpdebug

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"eventopt/internal/event"
	"eventopt/internal/profile"
	"eventopt/internal/span"
	"eventopt/internal/telemetry"
	"eventopt/internal/trace"
)

// Server exposes one event system (and optionally one trace recorder)
// over HTTP. Zero value is not usable; construct with New.
type Server struct {
	sys *event.System
	rec *trace.Recorder
	mux *http.ServeMux
}

// New builds the debug handler for sys. rec may be nil; then /trace
// reports 404. The telemetry endpoints degrade gracefully when sys was
// built without WithTelemetry (empty rows, 404 for the flight recorder).
func New(sys *event.System, rec *trace.Recorder) *Server {
	s := &Server{sys: sys, rec: rec, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", readOnly(s.metrics))
	s.mux.HandleFunc("/metrics.prom", readOnly(s.promMetrics))
	s.mux.HandleFunc("/events", readOnly(s.events))
	s.mux.HandleFunc("/graph", readOnly(s.graph))
	s.mux.HandleFunc("/flightrecorder", readOnly(s.flight))
	s.mux.HandleFunc("/optimizer", readOnly(s.optimizer))
	s.mux.HandleFunc("/spans", readOnly(s.spans))
	s.mux.HandleFunc("/trace", readOnly(s.trace))
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// readOnly guards a debug endpoint: every route here is a snapshot
// read, so anything but GET/HEAD is a client error. The 405 carries the
// required Allow header; the historical behavior (200 for any method)
// masked broken scrape configs that POSTed to /metrics.
func readOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed (read-only debug endpoint)", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Metrics is the /metrics document: aggregate counters, the per-domain
// counter breakdown and the per-event telemetry rows.
type Metrics struct {
	Domains     int                       `json:"domains"`
	Stats       event.StatsSnapshot       `json:"stats"`
	DomainStats []event.StatsSnapshot     `json:"domain_stats,omitempty"`
	Telemetry   bool                      `json:"telemetry_enabled"`
	SampleEvery int                       `json:"sample_every,omitempty"`
	TimedEvery  int                       `json:"time_sample_every,omitempty"`
	Events      []telemetry.EventSnapshot `json:"events,omitempty"`
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	m := Metrics{
		Domains: s.sys.NumDomains(),
		Stats:   s.sys.StatsAggregate(),
	}
	if m.Domains > 1 {
		for d := 0; d < m.Domains; d++ {
			m.DomainStats = append(m.DomainStats, s.sys.DomainStats(d))
		}
	}
	if tel := s.sys.Telemetry(); tel != nil {
		m.Telemetry = true
		m.SampleEvery = tel.SampleEvery()
		m.TimedEvery = tel.TimeSampleEvery()
		m.Events = tel.Events()
	}
	writeJSON(w, m)
}

// EventsDoc is the /events document.
type EventsDoc struct {
	TimeSampleEvery int                       `json:"time_sample_every"`
	Events          []telemetry.EventSnapshot `json:"events"`
	Merged          []telemetry.EventSnapshot `json:"merged"`
}

func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	tel := s.sys.Telemetry()
	if tel == nil {
		http.Error(w, "telemetry disabled (system built without WithTelemetry)", http.StatusNotFound)
		return
	}
	rows := tel.Events()
	writeJSON(w, EventsDoc{
		TimeSampleEvery: tel.TimeSampleEvery(),
		Events:          rows,
		Merged:          telemetry.MergeEvents(rows),
	})
}

func (s *Server) graph(w http.ResponseWriter, r *http.Request) {
	tel := s.sys.Telemetry()
	if tel == nil {
		http.Error(w, "telemetry disabled (system built without WithTelemetry)", http.StatusNotFound)
		return
	}
	threshold := 0
	if v := r.URL.Query().Get("threshold"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "threshold must be a non-negative integer", http.StatusBadRequest)
			return
		}
		threshold = n
	}
	g := profile.FromTelemetry(tel.Graph())
	if threshold > 0 {
		g = g.Reduce(threshold)
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	if err := g.WriteDOT(w, "live event graph"); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// FlightDoc is the /flightrecorder document.
type FlightDoc struct {
	Dumps    int64                      `json:"dumps"`
	LastDump *telemetry.FlightDump      `json:"last_dump,omitempty"`
	Domains  [][]telemetry.FlightRecord `json:"domains"`
}

func (s *Server) flight(w http.ResponseWriter, r *http.Request) {
	tel := s.sys.Telemetry()
	if tel == nil {
		http.Error(w, "telemetry disabled (system built without WithTelemetry)", http.StatusNotFound)
		return
	}
	doc := FlightDoc{Dumps: tel.DumpCount(), LastDump: tel.LastDump()}
	for d := 0; d < tel.NumDomains(); d++ {
		recs := tel.FlightRecords(d)
		if recs == nil {
			recs = []telemetry.FlightRecord{}
		}
		doc.Domains = append(doc.Domains, recs)
	}
	writeJSON(w, doc)
}

// OptimizerDoc is the /optimizer document: the adaptive controller's
// published snapshot (flattened, so pre-provenance clients decoding into
// OptimizerSnapshot keep working) plus every installed fast path with
// the tier that produced it.
type OptimizerDoc struct {
	telemetry.OptimizerSnapshot
	FastPaths []event.FastPathInfo `json:"fast_paths,omitempty"`
}

// optimizer serves the adaptive controller's published state. Without
// telemetry it is 404 like the other telemetry endpoints; with telemetry
// but no controller it serves {"enabled": false} so dashboards can poll
// it unconditionally. The fast_paths list covers every installed
// super-handler — offline, adaptive, generated or manual — not only the
// adaptive controller's.
func (s *Server) optimizer(w http.ResponseWriter, r *http.Request) {
	tel := s.sys.Telemetry()
	if tel == nil {
		http.Error(w, "telemetry disabled (system built without WithTelemetry)", http.StatusNotFound)
		return
	}
	doc := OptimizerDoc{FastPaths: s.sys.FastPaths()}
	if snap := tel.Optimizer(); snap != nil {
		doc.OptimizerSnapshot = *snap
	}
	writeJSON(w, doc)
}

// SpansDoc is the /spans document: collector statistics, the retained
// traces (faulted / tail-slow / hash-drawn) and the most recent spans
// still in the per-domain rings.
type SpansDoc struct {
	Enabled         bool         `json:"enabled"`
	SampleEvery     int          `json:"sample_every,omitempty"`
	SlowThresholdNs int64        `json:"slow_threshold_ns,omitempty"`
	Stats           span.Stats   `json:"stats,omitempty"`
	Traces          []span.Trace `json:"traces,omitempty"`
	Recent          []span.Span  `json:"recent,omitempty"`
}

// spans serves the causal span traces. ?format=chrome exports every
// available span (retained traces + ring remainder) as Chrome
// trace-event JSON for chrome://tracing / Perfetto.
func (s *Server) spans(w http.ResponseWriter, r *http.Request) {
	col := s.sys.Spans()
	if col == nil {
		http.Error(w, "span tracing disabled (system built without WithSpanTracing)", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		all := col.Recent()
		for _, t := range col.Traces() {
			all = append(all, t.Spans...)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="eventopt-spans.json"`)
		if err := span.WriteChrome(w, all); err != nil {
			fmt.Fprintf(w, "\n/* export error: %v */", err)
		}
		return
	}
	// Traces() sweeps pending retention marks, so take it before the
	// stats snapshot — the retained count then reflects this response.
	traces := col.Traces()
	writeJSON(w, SpansDoc{
		Enabled:         true,
		SampleEvery:     col.SampleEvery(),
		SlowThresholdNs: col.SlowThresholdNs(),
		Stats:           col.Stats(),
		Traces:          traces,
		Recent:          col.Recent(),
	})
}

// PromContentType is the Content-Type of the /metrics.prom exposition.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promMetrics serves the runtime counters, per-event latency/queue
// histograms, span-collector statistics and SLO burn rates in the
// Prometheus text exposition format, so a stock Prometheus scrape
// config can ingest the same data /metrics serves as JSON.
func (s *Server) promMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	st := s.sys.StatsAggregate()

	telemetry.WritePromHeader(w, "eventopt_raises_total", "counter", "Event activations by mode.")
	telemetry.WritePromSample(w, "eventopt_raises_total", telemetry.PromLabels("mode", "sync"), float64(st.SyncRaises))
	telemetry.WritePromSample(w, "eventopt_raises_total", telemetry.PromLabels("mode", "async"), float64(st.AsyncRaises))
	telemetry.WritePromSample(w, "eventopt_raises_total", telemetry.PromLabels("mode", "timed"), float64(st.TimedRaises))

	telemetry.WritePromHeader(w, "eventopt_dispatch_total", "counter", "Dispatches by path.")
	telemetry.WritePromSample(w, "eventopt_dispatch_total", telemetry.PromLabels("path", "generic"), float64(st.Generic))
	telemetry.WritePromSample(w, "eventopt_dispatch_total", telemetry.PromLabels("path", "fast"), float64(st.FastRuns))

	telemetry.WritePromHeader(w, "eventopt_fallbacks_total", "counter", "Fast-path fallbacks by kind.")
	telemetry.WritePromSample(w, "eventopt_fallbacks_total", telemetry.PromLabels("kind", "guard"), float64(st.Fallbacks))
	telemetry.WritePromSample(w, "eventopt_fallbacks_total", telemetry.PromLabels("kind", "segment"), float64(st.SegFallbacks))

	telemetry.WritePromHeader(w, "eventopt_handlers_run_total", "counter", "Handler bodies executed.")
	telemetry.WritePromSample(w, "eventopt_handlers_run_total", "", float64(st.HandlersRun))

	telemetry.WritePromHeader(w, "eventopt_faults_recovered_total", "counter", "Handler panics recovered under supervision.")
	telemetry.WritePromSample(w, "eventopt_faults_recovered_total", "", float64(st.PanicsRecovered))

	telemetry.WritePromHeader(w, "eventopt_degradation_total", "counter", "Degradation actions by kind.")
	telemetry.WritePromSample(w, "eventopt_degradation_total", telemetry.PromLabels("kind", "retry"), float64(st.Retries))
	telemetry.WritePromSample(w, "eventopt_degradation_total", telemetry.PromLabels("kind", "quarantine"), float64(st.Quarantines))
	telemetry.WritePromSample(w, "eventopt_degradation_total", telemetry.PromLabels("kind", "deopt"), float64(st.Deopts))
	telemetry.WritePromSample(w, "eventopt_degradation_total", telemetry.PromLabels("kind", "dead_letter"), float64(st.DeadLetters))
	telemetry.WritePromSample(w, "eventopt_degradation_total", telemetry.PromLabels("kind", "queue_drop"), float64(st.QueueDrops))

	if tel := s.sys.Telemetry(); tel != nil {
		merged := telemetry.MergeEvents(tel.Events())
		telemetry.WritePromHeader(w, "eventopt_event_latency_seconds", "histogram", "Sampled activation latency per event.")
		for _, row := range merged {
			if row.Latency.Count == 0 {
				continue
			}
			telemetry.WritePromHistogram(w, "eventopt_event_latency_seconds",
				telemetry.PromLabels("event", promEventName(row)), row.Latency)
		}
		telemetry.WritePromHeader(w, "eventopt_event_queue_delay_seconds", "histogram", "Sampled queue delay per event.")
		for _, row := range merged {
			if row.QueueDelay.Count == 0 {
				continue
			}
			telemetry.WritePromHistogram(w, "eventopt_event_queue_delay_seconds",
				telemetry.PromLabels("event", promEventName(row)), row.QueueDelay)
		}
		telemetry.WritePromHeader(w, "eventopt_event_faults_total", "counter", "Faulted activations per event.")
		for _, row := range merged {
			if row.Faults == 0 {
				continue
			}
			telemetry.WritePromSample(w, "eventopt_event_faults_total",
				telemetry.PromLabels("event", promEventName(row)), float64(row.Faults))
		}
	}

	if col := s.sys.Spans(); col != nil {
		ss := col.Stats()
		telemetry.WritePromHeader(w, "eventopt_span_roots_total", "counter", "Top-level raises seen by the span sampler.")
		telemetry.WritePromSample(w, "eventopt_span_roots_total", telemetry.PromLabels("sampled", "true"), float64(ss.RootsSampled))
		telemetry.WritePromSample(w, "eventopt_span_roots_total", telemetry.PromLabels("sampled", "false"), float64(ss.RootsSeen-ss.RootsSampled))
		telemetry.WritePromHeader(w, "eventopt_spans_recorded_total", "counter", "Spans recorded into the per-domain rings.")
		telemetry.WritePromSample(w, "eventopt_spans_recorded_total", "", float64(ss.Spans))
		telemetry.WritePromHeader(w, "eventopt_span_traces_total", "counter", "Traces marked for retention, by reason.")
		telemetry.WritePromSample(w, "eventopt_span_traces_total", telemetry.PromLabels("reason", "fault"), float64(ss.Faulted))
		telemetry.WritePromSample(w, "eventopt_span_traces_total", telemetry.PromLabels("reason", "slow"), float64(ss.SlowRoots))
		telemetry.WritePromHeader(w, "eventopt_span_retained", "gauge", "Traces currently retained.")
		telemetry.WritePromSample(w, "eventopt_span_retained", "", float64(ss.Retained))
		telemetry.WritePromHeader(w, "eventopt_span_slow_threshold_seconds", "gauge", "Current tail-slow root threshold.")
		telemetry.WritePromSample(w, "eventopt_span_slow_threshold_seconds", "", float64(col.SlowThresholdNs())/1e9)
	}

	if wd := s.sys.SLO(); wd != nil {
		telemetry.WritePromHeader(w, "eventopt_slo_burn_rate", "gauge", "Error-budget burn rate per objective (last tick).")
		for _, stt := range wd.Status() {
			telemetry.WritePromSample(w, "eventopt_slo_burn_rate",
				telemetry.PromLabels("objective", stt.Objective.Name), stt.Burn)
		}
		telemetry.WritePromHeader(w, "eventopt_slo_breaches_total", "counter", "SLO breaches fired since start.")
		telemetry.WritePromSample(w, "eventopt_slo_breaches_total", "", float64(wd.TotalBreaches()))
	}
}

// promEventName labels a merged event row: its registered name, or a
// synthesized ev<id> for events defined before telemetry learned the
// name.
func promEventName(row telemetry.EventSnapshot) string {
	if row.Name != "" {
		return row.Name
	}
	return fmt.Sprintf("ev%d", row.Event)
}

func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		http.Error(w, "no trace recorder attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="eventopt-trace.json"`)
	if err := trace.WriteChrome(w, s.rec.Entries()); err != nil {
		// Headers are gone; the client sees a truncated body. Log-equivalent:
		fmt.Fprintf(w, "\n/* export error: %v */", err)
	}
}
