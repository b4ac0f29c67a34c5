package telemetry

// OptimizerPlan describes one super-handler the adaptive optimizer
// currently has installed. Like the rest of the package it speaks in
// primitive types (int32 event IDs, names as strings) so the telemetry
// layer stays below the event runtime and the optimizer packages.
type OptimizerPlan struct {
	Entry         int32    `json:"entry"`
	EntryName     string   `json:"entry_name"`
	Chain         []string `json:"chain"`    // covered event names, entry first
	Handlers      int      `json:"handlers"` // handler bodies merged across the chain
	Score         float64  `json:"score"`    // smoothed estimated traversals per tick
	GainNs        float64  `json:"gain_ns"`  // estimated saved ns per tick at install time
	InstalledTick uint64   `json:"installed_tick"`
	Replans       int64    `json:"replans"` // times this entry was rebuilt in place
	// Source names the tier that produced the plan: "offline",
	// "adaptive" or "generated". Empty in snapshots published before
	// provenance tracking existed.
	Source string `json:"source,omitempty"`
}

// OptimizerSnapshot is the adaptive controller's published state: its
// decision counters and the plans currently installed. The controller
// republishes it every tick; readers (the /optimizer endpoint, evtop's
// optimizer pane) take the pointer with a single atomic load.
type OptimizerSnapshot struct {
	Enabled bool   `json:"enabled"`
	Running bool   `json:"running"` // background loop active (false: manual ticks only)
	Tick    uint64 `json:"tick"`

	// Tunables in effect, for display.
	IntervalMs       float64 `json:"interval_ms"`
	PromoteThreshold float64 `json:"promote_threshold"`
	DemoteThreshold  float64 `json:"demote_threshold"`

	// Decision counters, cumulative since the controller started.
	Promotions    int64 `json:"promotions"`
	Demotions     int64 `json:"demotions"`
	Replans       int64 `json:"replans"`
	Deopts        int64 `json:"deopts"` // installs evicted by the fault supervisor
	PhaseShifts   int64 `json:"phase_shifts"`
	CooldownSkips int64 `json:"cooldown_skips"`
	GainSkips     int64 `json:"gain_skips"`  // promotions rejected by the min-gain gate
	LimitSkips    int64 `json:"limit_skips"` // promotions rejected by the plan cap
	EmptyTicks    int64 `json:"empty_ticks"` // ticks with no sampled graph activity

	// BatchRaises and BatchShrinks are always 0: the drain batch size is
	// no longer tuned (each Run-loop pop sizes its batch from the
	// backlog). They remain while a benchmark metric still reads them.
	BatchRaises  int64 `json:"batch_raises"`
	BatchShrinks int64 `json:"batch_shrinks"`

	// HotEvents names the entry events of the current tick's plan (the
	// live hot set), hottest first.
	HotEvents []string `json:"hot_events,omitempty"`

	Installed []OptimizerPlan `json:"installed"`
}

// PublishOptimizer installs the adaptive optimizer's current snapshot.
// Passing nil clears it (controller shut down).
func (t *Telemetry) PublishOptimizer(s *OptimizerSnapshot) {
	t.optimizer.Store(s)
}

// Optimizer returns the last published adaptive-optimizer snapshot, or
// nil when no controller has attached to this system.
func (t *Telemetry) Optimizer() *OptimizerSnapshot {
	return t.optimizer.Load()
}
