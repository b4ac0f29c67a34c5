package event

import (
	"fmt"

	"eventopt/internal/telemetry"
)

// WithTelemetry enables the live observability layer at construction:
// per-event/per-domain latency and queue-delay histograms, a per-domain
// flight recorder dumped automatically on quarantine trips and
// dead-letters, and the sampled continuous event-graph feed. The zero
// Config selects the defaults. Telemetry must be chosen at construction
// so every domain's state exists before the first raise; the record
// paths are allocation-free, so the zero-allocation dispatch gates hold
// with telemetry enabled.
func WithTelemetry(cfg telemetry.Config) Option {
	return func(s *System) { s.wantTel, s.wantTelCfg = true, cfg }
}

// Telemetry returns the live telemetry instance (nil unless the system
// was built with WithTelemetry).
func (s *System) Telemetry() *telemetry.Telemetry { return s.tel }

// TelemetryEnabled reports whether the telemetry layer is active.
func (s *System) TelemetryEnabled() bool { return s.tel != nil }

// noteFaultCause retains the first recovered panic of the current
// top-level activation for the flight recorder. Fault path only; the
// formatting allocation is acceptable there. Caller holds runMu.
func (d *Domain) noteFaultCause(pv any) {
	if d.sys.tel == nil || d.fault.lastCause != nil {
		return
	}
	c := fmt.Sprint(pv)
	d.fault.lastCause = &c
}

// requestFlightDump asks the current top-level activation to dump this
// domain's flight ring once its own record has been appended (so the
// dump contains the activation that triggered it). Caller holds runMu.
func (d *Domain) requestFlightDump(reason string) {
	if d.sys.tel == nil || d.telDumpReason != "" {
		return
	}
	d.telDumpReason = reason
}
