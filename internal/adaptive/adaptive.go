// Package adaptive closes the paper's profile→plan→install loop online.
// The paper's workflow is strictly offline: profile a representative
// run, plan handler merges and event-chain subsumption, rebuild. Its
// premise — hot event paths dominate dispatch cost — applies equally to
// workloads whose hot paths shift at runtime, so this package adds a
// per-System background controller that periodically lifts the live
// telemetry graph feed into the same Graph → Reduce → Paths machinery
// (profile.LiveProfile, core.BuildPlan with GraphChains), and installs,
// replaces or evicts super-handlers through the runtime's atomic
// fast-path publication — no stop-the-world, no behavior change on cold
// paths, and the offline workflow remains untouched as the
// paper-faithful path.
//
// The controller is deliberately churn-resistant:
//
//   - edge activity is EWMA-smoothed per tick, so one bursty interval
//     neither promotes nor demotes anything by itself;
//   - promotion and demotion use separate thresholds (hysteresis): an
//     entry promotes at PromoteThreshold and demotes only when its
//     activity falls below PromoteThreshold×DemoteFraction;
//   - every install/evict/replace starts a per-entry cooldown during
//     which the controller leaves the entry alone;
//   - a min-expected-gain gate, computed from the live latency
//     histograms (estimated activation rate × estimated per-activation
//     saving), rejects promotions that cannot pay for their build;
//   - a rotation of the hot set (Jaccard overlap between the planned
//     and installed entry sets below PhaseShiftOverlap) is a phase
//     shift: stale installs are demoted immediately and the new hot set
//     is planned without waiting out cooldowns;
//   - a super-handler evicted by the fault supervisor (auto-deopt after
//     a panic in optimized code) is recognized exactly like a manual
//     eviction, counted, and barred from re-promotion for the longer
//     DeoptCooldownTicks.
package adaptive

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/hirrt"
	"eventopt/internal/profile"
	"eventopt/internal/telemetry"
)

// Policy tunes the adaptive controller. The zero value selects the
// defaults noted per field.
type Policy struct {
	// Interval is the background tick period (default 200ms). Manual
	// Tick calls ignore it.
	Interval time.Duration
	// Alpha is the EWMA weight of the newest tick's observed edge
	// activity, in (0,1] (default 0.4). Smaller is smoother.
	Alpha float64
	// PromoteThreshold is the smoothed, sampling-scaled edge traversal
	// rate per tick above which an event qualifies as hot (default 64).
	PromoteThreshold float64
	// DemoteFraction sets the demotion threshold relative to
	// PromoteThreshold (default 0.25). The band between the two is the
	// hysteresis region where installed entries are left alone.
	DemoteFraction float64
	// CooldownTicks is how many ticks an entry is frozen after any
	// install, replace or evict decision (default 3).
	CooldownTicks int
	// DeoptCooldownTicks is the longer freeze after the fault supervisor
	// evicted an entry's super-handler (default 20): code that just
	// faulted should not race right back in.
	DeoptCooldownTicks int
	// MinGainNs is the minimum estimated saving, in nanoseconds per
	// tick, a promotion must clear (default 1000). The estimate is
	// activation rate × per-activation gain, where the per-activation
	// gain is GainFraction of the event's mean live latency, floored at
	// StepFloorNs per merged dispatch step when no latency has been
	// sampled yet. Set negative to disable the gate.
	MinGainNs float64
	// GainFraction is the share of an activation's mean latency assumed
	// recoverable by merging (default 0.15, the neighborhood of the
	// paper's dispatch-overhead share for multi-handler events).
	GainFraction float64
	// StepFloorNs is the assumed saving per eliminated dispatch step
	// (indirect call + marshal + state-lock round trip) when histograms
	// are still empty (default 25ns).
	StepFloorNs float64
	// MaxPlans caps concurrently installed adaptive super-handlers
	// (default 8).
	MaxPlans int
	// PhaseShiftOverlap is the Jaccard overlap between the planned and
	// installed hot sets below which the controller declares a phase
	// shift (default 0.5).
	PhaseShiftOverlap float64

	// Opts configures planning and super-handler construction. The zero
	// value selects the adaptive defaults: subsumption with graph-chain
	// evidence, HIR fusion, partitioned (per-event) guards, chains capped
	// at 8. FullFusion stays off by design: statically splicing nested
	// raises removes them from the telemetry graph feed, and the
	// controller would demote its own install for lack of observed edges.
	Opts core.Options
}

func (p Policy) withDefaults() Policy {
	if p.Interval <= 0 {
		p.Interval = 200 * time.Millisecond
	}
	if p.Alpha <= 0 || p.Alpha > 1 {
		p.Alpha = 0.4
	}
	if p.PromoteThreshold <= 0 {
		p.PromoteThreshold = 64
	}
	if p.DemoteFraction <= 0 || p.DemoteFraction >= 1 {
		p.DemoteFraction = 0.25
	}
	if p.CooldownTicks <= 0 {
		p.CooldownTicks = 3
	}
	if p.DeoptCooldownTicks <= 0 {
		p.DeoptCooldownTicks = 20
	}
	if p.MinGainNs == 0 {
		p.MinGainNs = 1000
	}
	if p.GainFraction <= 0 {
		p.GainFraction = 0.15
	}
	if p.StepFloorNs <= 0 {
		p.StepFloorNs = 25
	}
	if p.MaxPlans <= 0 {
		p.MaxPlans = 8
	}
	if p.PhaseShiftOverlap <= 0 {
		p.PhaseShiftOverlap = 0.5
	}
	if p.Opts == (core.Options{}) {
		p.Opts = core.Options{
			Subsume:     true,
			GraphChains: true,
			AsyncChains: true,
			FuseHIR:     true,
			Partitioned: true,
			MaxChainLen: 8,
		}
	}
	return p
}

// edgeKey identifies one directed edge of the live graph.
type edgeKey struct{ from, to int32 }

// edgeState is the controller's smoothed view of one edge.
type edgeState struct {
	lastW, lastSW int64   // cumulative raw sampled counts at last tick
	rate          float64 // EWMA of scaled traversals per tick
	syncRate      float64 // EWMA of the synchronous subset
	fullSync      bool    // cumulative counts have never diverged
	seen          bool    // scratch: present in the current snapshot
}

// plant is one adaptive install.
type plant struct {
	sh       *event.SuperHandler
	entry    core.PlanEntry
	versions []uint64 // binding versions of the chain at build time
	score    float64
	gainNs   float64
	tick     uint64 // tick at which this build was installed
	replans  int64
}

// counters are the controller's decision counters (guarded by mu).
type counters struct {
	promotions, demotions, replans, deopts int64
	phaseShifts, cooldownSkips, gainSkips  int64
	limitSkips, emptyTicks                 int64
}

// Controller is the background adaptive optimizer of one System. Create
// it with New (manual ticks) or Start (background loop). All methods are
// safe for concurrent use.
type Controller struct {
	sys *event.System
	mod *hirrt.Module
	pol Policy
	tel *telemetry.Telemetry

	mu        sync.Mutex
	edges     map[edgeKey]*edgeState
	installed map[event.ID]*plant
	cooldown  map[event.ID]uint64 // event is frozen until this tick
	tick      uint64
	ctr       counters
	running   bool

	deoptMu sync.Mutex
	deopted []*event.SuperHandler

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New creates a controller without starting its background loop; drive
// it with Tick (benchmarks and tests do this for determinism). The
// system must have been built with telemetry (WithTelemetry or
// WithAdaptiveOptimizer).
func New(sys *event.System, mod *hirrt.Module, pol Policy) (*Controller, error) {
	tel := sys.Telemetry()
	if tel == nil {
		return nil, fmt.Errorf("adaptive: system has no telemetry (build it with WithTelemetry or WithAdaptiveOptimizer)")
	}
	c := &Controller{
		sys:       sys,
		mod:       mod,
		pol:       pol.withDefaults(),
		tel:       tel,
		edges:     make(map[edgeKey]*edgeState),
		installed: make(map[event.ID]*plant),
		cooldown:  make(map[event.ID]uint64),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	c.mu.Lock()
	c.publishLocked(nil)
	c.mu.Unlock()
	return c, nil
}

// Start creates a controller and launches its background loop.
func Start(sys *event.System, mod *hirrt.Module, pol Policy) (*Controller, error) {
	c, err := New(sys, mod, pol)
	if err != nil {
		return nil, err
	}
	c.StartBackground()
	return c, nil
}

// StartBackground launches the periodic tick loop (idempotent).
func (c *Controller) StartBackground() {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		return
	}
	c.running = true
	c.mu.Unlock()
	go c.loop()
}

func (c *Controller) loop() {
	t := time.NewTicker(c.pol.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			close(c.done)
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Stop halts the background loop (if any), leaving current installs in
// place; they stay valid (guards keep them safe) until Uninstall.
func (c *Controller) Stop() {
	c.mu.Lock()
	wasRunning := c.running
	c.running = false
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	if wasRunning {
		<-c.done
	}
	c.mu.Lock()
	c.publishLocked(nil)
	c.mu.Unlock()
}

// Uninstall evicts every adaptive install, returning the system to the
// dispatch it would have without the controller. Identity-aware removal
// (RemoveFastPathIf) cannot clobber a super-handler installed by anyone
// else in the meantime.
func (c *Controller) Uninstall() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ev, pl := range c.installed {
		c.sys.RemoveFastPathIf(pl.sh)
		delete(c.installed, ev)
	}
	c.publishLocked(nil)
}

// Close stops the loop and uninstalls everything.
func (c *Controller) Close() {
	c.Stop()
	c.Uninstall()
}

// noteDeopt is the OnDeopt hook installed on every adaptive
// super-handler: the runtime invokes it from the faulting domain after
// auto-uninstalling the super-handler. It must stay cheap and must not
// take c.mu (the dispatch path is live); the next tick reaps the list.
func (c *Controller) noteDeopt(sh *event.SuperHandler) {
	c.deoptMu.Lock()
	c.deopted = append(c.deopted, sh)
	c.deoptMu.Unlock()
}

// InstalledEntries reports the entry events currently installed by the
// controller, ascending.
func (c *Controller) InstalledEntries() []event.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]event.ID, 0, len(c.installed))
	for ev := range c.installed {
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot returns the controller's last published state (also available
// through Telemetry().Optimizer() and the /optimizer endpoint).
func (c *Controller) Snapshot() *telemetry.OptimizerSnapshot {
	return c.tel.Optimizer()
}

// Tick runs one full control-loop iteration: reap fault evictions,
// refresh the smoothed graph from the telemetry feed, plan against the
// current hot set, and apply the promote/demote/replace decisions.
func (c *Controller) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	c.reapLocked()

	active := c.refreshEdgesLocked()
	if !active && len(c.installed) == 0 {
		c.ctr.emptyTicks++
		c.publishLocked(nil)
		return
	}

	g := c.smoothedGraphLocked()
	prof := profile.GraphProfile(g)
	opts := c.pol.Opts
	opts.Threshold = int(c.pol.PromoteThreshold + 0.5)
	if opts.Threshold < 1 {
		opts.Threshold = 1
	}
	plan, err := core.BuildPlan(c.sys, prof, opts)
	if err != nil { // nil profile is the only cause; defensive
		c.publishLocked(nil)
		return
	}

	// Phase-shift detection: has the hot set rotated away from what is
	// installed?
	hot := make(map[event.ID]bool, len(plan.Entries))
	for _, e := range plan.Entries {
		hot[e.Event] = true
	}
	phaseShift := false
	if len(c.installed) > 0 && len(hot) > 0 {
		inter, union := 0, len(hot)
		for ev := range c.installed {
			if hot[ev] {
				inter++
			} else {
				union++
			}
		}
		if float64(inter)/float64(union) < c.pol.PhaseShiftOverlap {
			phaseShift = true
			c.ctr.phaseShifts++
		}
	}

	installs, replans, evicts := plan.Diff(c.installedChainsLocked())
	score := c.scoresFor(g)
	demoteThr := c.pol.PromoteThreshold * c.pol.DemoteFraction

	// Demotions: an installed entry the plan no longer wants goes only
	// when its smoothed activity fell below the demotion threshold
	// (hysteresis) and its cooldown expired — unless the hot set rotated,
	// in which case stale installs leave immediately.
	for _, ev := range evicts {
		pl := c.installed[ev]
		if pl == nil {
			continue
		}
		pl.score = score[ev]
		if !phaseShift {
			if score[ev] >= demoteThr {
				continue // hysteresis band: leave it installed
			}
			if c.tick < c.cooldown[ev] {
				c.ctr.cooldownSkips++
				continue
			}
		}
		c.sys.RemoveFastPathIf(pl.sh)
		delete(c.installed, ev)
		c.cooldown[ev] = c.tick + uint64(c.pol.CooldownTicks)
		c.ctr.demotions++
	}

	// Replacements: the planned chain for an installed entry changed, or
	// its binding-version guards went stale (every raise is falling back
	// to generic dispatch); rebuild against current bindings and swap.
	for _, e := range replans {
		c.replaceLocked(e, score[e.Event], phaseShift)
	}
	for ev, pl := range c.installed {
		pl.score = score[ev]
		if c.staleLocked(pl) {
			c.replaceLocked(pl.entry, score[ev], phaseShift)
		}
	}

	// Promotions, gated by cooldown, plan cap and expected gain.
	var means map[int32]float64
	for _, e := range installs {
		if c.sys.FastPath(e.Event) != nil {
			continue // a manual install owns this event; never fight it
		}
		if !phaseShift && c.tick < c.cooldown[e.Event] {
			c.ctr.cooldownSkips++
			continue
		}
		if len(c.installed) >= c.pol.MaxPlans {
			c.ctr.limitSkips++
			continue
		}
		if means == nil {
			means = c.latencyMeans()
		}
		gain := c.expectedGainNs(e, score[e.Event], means)
		if c.pol.MinGainNs >= 0 && gain < c.pol.MinGainNs {
			c.ctr.gainSkips++
			continue
		}
		sh, versions, err := c.buildLocked(e)
		if err != nil {
			continue // bindings shifted under us; next tick replans
		}
		ok, err := c.sys.ReplaceFastPath(nil, sh)
		if err != nil || !ok {
			continue // event deleted, or an install raced ours
		}
		c.installed[e.Event] = &plant{
			sh: sh, entry: e, versions: versions,
			score: score[e.Event], gainNs: gain, tick: c.tick,
		}
		c.cooldown[e.Event] = c.tick + uint64(c.pol.CooldownTicks)
		c.ctr.promotions++
	}

	c.publishLocked(plan)
}

// reapLocked folds in evictions that happened outside the tick: fault
// auto-deopts (reported through the OnDeopt hook) and manual removals.
func (c *Controller) reapLocked() {
	c.deoptMu.Lock()
	deopted := c.deopted
	c.deopted = nil
	c.deoptMu.Unlock()
	for _, sh := range deopted {
		pl := c.installed[sh.Entry]
		if pl == nil || pl.sh != sh {
			continue // already replaced; the eviction hit a stale build
		}
		delete(c.installed, sh.Entry)
		c.cooldown[sh.Entry] = c.tick + uint64(c.pol.DeoptCooldownTicks)
		c.ctr.deopts++
	}
	for ev, pl := range c.installed {
		if c.sys.FastPath(ev) != pl.sh {
			// Removed or replaced by someone else (manual Uninstall, a
			// Delete of the event): forget it without penalty.
			delete(c.installed, ev)
		}
	}
}

// refreshEdgesLocked updates the EWMA edge rates from the cumulative
// sampled counts of the telemetry graph feed. It reports whether any
// edge is currently active.
func (c *Controller) refreshEdgesLocked() bool {
	gs := c.tel.Graph()
	scale := float64(gs.SampleEvery)
	if scale < 1 {
		scale = 1
	}
	alpha := c.pol.Alpha
	for _, e := range gs.Edges {
		k := edgeKey{e.From, e.To}
		st := c.edges[k]
		if st == nil {
			st = &edgeState{fullSync: true}
			c.edges[k] = st
		}
		dw := float64(e.Weight-st.lastW) * scale
		dsw := float64(e.SyncWeight-st.lastSW) * scale
		if dw < 0 { // counter reset (snapshot from a fresh telemetry instance)
			dw, dsw = 0, 0
		}
		st.lastW, st.lastSW = e.Weight, e.SyncWeight
		st.rate = alpha*dw + (1-alpha)*st.rate
		st.syncRate = alpha*dsw + (1-alpha)*st.syncRate
		st.fullSync = e.SyncWeight == e.Weight
		st.seen = true
	}
	active := false
	for _, st := range c.edges {
		if !st.seen { // edge absent from the snapshot: decay toward zero
			st.rate *= 1 - alpha
			st.syncRate *= 1 - alpha
		}
		st.seen = false
		if st.rate < 0.5 {
			// Fully decayed: clamp to zero but KEEP the state — it holds
			// the cumulative-counter baseline. Dropping it would make the
			// next snapshot re-ingest the edge's entire history as fresh
			// traffic and spuriously re-promote a cold path. The map is
			// bounded by the telemetry layer's own edge map.
			st.rate, st.syncRate = 0, 0
			continue
		}
		active = true
	}
	return active
}

// smoothedGraphLocked materializes the EWMA rates as an event graph the
// offline machinery consumes. Weights are rounded rates; an edge whose
// cumulative counts were always synchronous keeps SyncWeight == Weight
// exactly, preserving the Sync() property graph chains depend on.
func (c *Controller) smoothedGraphLocked() *profile.EventGraph {
	g := profile.NewEventGraph()
	for k, st := range c.edges {
		w := int(st.rate + 0.5)
		if w < 1 {
			continue
		}
		sw := int(st.syncRate + 0.5)
		if st.fullSync || sw > w {
			sw = w
		}
		g.AddEdge(event.ID(k.from), event.ID(k.to), w, sw)
		if n := c.tel.EventName(k.from); n != "" {
			g.SetName(event.ID(k.from), n)
		}
		if n := c.tel.EventName(k.to); n != "" {
			g.SetName(event.ID(k.to), n)
		}
	}
	return g
}

// scoresFor computes each event's activity score on the smoothed graph:
// the heavier of its summed in- and out-rates.
func (c *Controller) scoresFor(g *profile.EventGraph) map[event.ID]float64 {
	in := make(map[event.ID]float64)
	out := make(map[event.ID]float64)
	for _, e := range g.Edges() {
		in[e.To] += float64(e.Weight)
		out[e.From] += float64(e.Weight)
	}
	score := make(map[event.ID]float64, len(in)+len(out))
	for ev, w := range in {
		score[ev] = w
	}
	for ev, w := range out {
		if w > score[ev] {
			score[ev] = w
		}
	}
	return score
}

// latencyMeans builds the per-event mean live latency (ns) across
// domains from the telemetry histograms.
func (c *Controller) latencyMeans() map[int32]float64 {
	rows := telemetry.MergeEvents(c.tel.Events())
	m := make(map[int32]float64, len(rows))
	for _, r := range rows {
		if r.Latency.Count > 0 {
			m[r.Event] = r.Latency.Mean()
		}
	}
	return m
}

// expectedGainNs estimates the saving of installing entry, in ns per
// tick: activation rate × per-activation gain. The per-activation gain
// is GainFraction of the event's mean latency from the live histograms,
// floored at StepFloorNs per eliminated dispatch step so promotion can
// proceed before the first latency sample lands.
func (c *Controller) expectedGainNs(entry core.PlanEntry, score float64, means map[int32]float64) float64 {
	steps := len(entry.Chain) - 1
	for _, ev := range entry.Chain {
		steps += c.sys.HandlerCount(ev)
	}
	if steps < 1 {
		steps = 1
	}
	perAct := means[int32(entry.Event)] * c.pol.GainFraction
	if floor := c.pol.StepFloorNs * float64(steps-1); perAct < floor {
		perAct = floor
	}
	return score * perAct
}

// buildLocked constructs the super-handler for one plan entry and
// records the binding versions its guards were built against.
func (c *Controller) buildLocked(e core.PlanEntry) (*event.SuperHandler, []uint64, error) {
	sh, err := core.BuildSuper(c.sys, c.mod, e, c.pol.Opts)
	if err != nil {
		return nil, nil, err
	}
	sh.OnDeopt = c.noteDeopt
	sh.Provenance = "adaptive"
	versions := make([]uint64, len(sh.Segments))
	for i := range sh.Segments {
		versions[i] = sh.Segments[i].Version
	}
	return sh, versions, nil
}

// staleLocked reports whether an install's guards can no longer match:
// some covered event was rebound since the build, so every raise is
// paying the guard-failure fallback.
func (c *Controller) staleLocked(pl *plant) bool {
	for i, ev := range pl.entry.Chain {
		if i < len(pl.versions) && c.sys.Version(ev) != pl.versions[i] {
			return true
		}
	}
	return false
}

// replaceLocked rebuilds an installed entry against current bindings and
// swaps it in atomically (raises see old or new, never a generic gap).
func (c *Controller) replaceLocked(e core.PlanEntry, score float64, phaseShift bool) {
	pl := c.installed[e.Event]
	if pl == nil {
		return
	}
	if !phaseShift && c.tick < c.cooldown[e.Event] {
		c.ctr.cooldownSkips++
		return
	}
	sh, versions, err := c.buildLocked(e)
	if err != nil {
		// Can no longer build (handlers unbound): evict instead.
		c.sys.RemoveFastPathIf(pl.sh)
		delete(c.installed, e.Event)
		c.cooldown[e.Event] = c.tick + uint64(c.pol.CooldownTicks)
		c.ctr.demotions++
		return
	}
	ok, err := c.sys.ReplaceFastPath(pl.sh, sh)
	if err != nil || !ok {
		// Our build was evicted concurrently (deopt); reap next tick.
		return
	}
	replans := pl.replans + 1
	c.installed[e.Event] = &plant{
		sh: sh, entry: e, versions: versions,
		score: score, gainNs: pl.gainNs, tick: c.tick, replans: replans,
	}
	c.cooldown[e.Event] = c.tick + uint64(c.pol.CooldownTicks)
	c.ctr.replans++
}

// installedChainsLocked snapshots the installed entry→chain map for
// Plan.Diff.
func (c *Controller) installedChainsLocked() map[event.ID][]event.ID {
	m := make(map[event.ID][]event.ID, len(c.installed))
	for ev, pl := range c.installed {
		m[ev] = pl.entry.Chain
	}
	return m
}

// publishLocked republishes the optimizer snapshot to the telemetry
// layer. plan may be nil (no planning happened this tick).
func (c *Controller) publishLocked(plan *core.Plan) {
	s := &telemetry.OptimizerSnapshot{
		Enabled:          true,
		Running:          c.running,
		Tick:             c.tick,
		IntervalMs:       float64(c.pol.Interval) / float64(time.Millisecond),
		PromoteThreshold: c.pol.PromoteThreshold,
		DemoteThreshold:  c.pol.PromoteThreshold * c.pol.DemoteFraction,
		Promotions:       c.ctr.promotions,
		Demotions:        c.ctr.demotions,
		Replans:          c.ctr.replans,
		Deopts:           c.ctr.deopts,
		PhaseShifts:      c.ctr.phaseShifts,
		CooldownSkips:    c.ctr.cooldownSkips,
		GainSkips:        c.ctr.gainSkips,
		LimitSkips:       c.ctr.limitSkips,
		EmptyTicks:       c.ctr.emptyTicks,
	}
	if plan != nil {
		for _, e := range plan.Entries {
			s.HotEvents = append(s.HotEvents, e.EventName)
		}
	}
	ids := make([]event.ID, 0, len(c.installed))
	for ev := range c.installed {
		ids = append(ids, ev)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, ev := range ids {
		pl := c.installed[ev]
		op := telemetry.OptimizerPlan{
			Entry:         int32(ev),
			EntryName:     pl.entry.EventName,
			Score:         pl.score,
			GainNs:        pl.gainNs,
			InstalledTick: pl.tick,
			Replans:       pl.replans,
			Source:        "adaptive",
		}
		for _, ce := range pl.entry.Chain {
			op.Chain = append(op.Chain, c.sys.EventName(ce))
			op.Handlers += c.sys.HandlerCount(ce)
		}
		s.Installed = append(s.Installed, op)
	}
	c.tel.PublishOptimizer(s)
}
