// Package core implements the paper's primary contribution: the
// profile-directed optimizer for event-based programs (sections 3.2-3.3).
// From an event/handler profile it plans which events to optimize, builds
// super-handlers (handler merging, Fig. 7), extends them across event
// chains with subsumption of nested synchronous raises (Figs. 8-9), fuses
// and compiler-optimizes HIR handler bodies (section 3.2.2), and installs
// the result behind binding-version guards with whole-chain or
// partitioned fallback (section 3.3, Fig. 14).
package core

import (
	"fmt"
	"sort"
	"strings"

	"eventopt/internal/event"
	"eventopt/internal/hir/opt"
	"eventopt/internal/profile"
)

// Options configures plan construction and installation.
type Options struct {
	// Threshold is the event-graph edge weight below which edges are
	// discarded before path extraction (paper Fig. 6 used 300). Zero
	// selects AutoThreshold.
	Threshold int
	// MergeAll applies handler merging to every event with more than one
	// handler, not only those on hot paths (the section 5 extension).
	MergeAll bool
	// Subsume extends super-handlers across nested synchronous raises
	// observed stably in the profile (Figs. 8-9).
	Subsume bool
	// GraphChains extends chains from the event graph alone when the
	// profile carries no handler-level evidence for an event: a candidate
	// is extended along the reduced graph's event chains (section 3.2.1 —
	// maximal paths whose every traversal was synchronous and whose
	// interior vertices have a single successor). Live profiles lifted
	// from the telemetry graph feed have exactly this shape: edge weights
	// but no per-handler raise records; GraphChains is what lets the
	// adaptive optimizer subsume chains online.
	GraphChains bool
	// AsyncChains extends chains across *asynchronous* edges when the
	// successor overwhelmingly follows the producer (at least AsyncShare
	// of its incoming weight): the paper's §5 future work. The resulting
	// segments are marked async-entry, and the runtime speculatively
	// coalesces their raise into an inline continuation when the target
	// domain's queue permits, falling back to a real enqueue otherwise
	// (event/coalesce.go). Requires Subsume.
	AsyncChains bool
	// AsyncShare is the dominance threshold for async links (0 selects 0.9).
	AsyncShare float64
	// Speculative additionally extends chains along *dominant* raise
	// patterns — "A is followed by B 90% of the time" (section 5) —
	// with SpeculativeShare as the minimum observed share. Minority
	// executions stay correct: a covered event's segment is entered only
	// when its raise actually happens, and its guard still applies.
	Speculative bool
	// SpeculativeShare is the dominance threshold (0 selects 0.5).
	SpeculativeShare float64
	// FuseHIR merges the HIR bodies of each covered event's handlers into
	// one function per segment and runs the compiler passes over it.
	FuseHIR bool
	// FullFusion drops the per-event guards of static subsumption. With
	// FuseHIR, covered synchronous raises are always spliced into the
	// entry segment's fused body, each behind a guard on the raised
	// event's segment (guarded subsumption; the original raise runs when
	// the guard fails). With FullFusion and Partitioned false, and every
	// handler of every covered event carrying an HIR body, the raises are
	// instead spliced without guards before the whole chain is optimized
	// as one function: the whole-chain guard at entry covers every event,
	// and HIR has no bind operation, so the chain cannot rebind itself
	// mid-execution. Caveat: an application intrinsic that mutates
	// bindings would break that assumption — keep bind/unbind out of
	// intrinsics used by fused handlers, or keep the guards. With
	// Partitioned true the entry checks only its own guard, so FullFusion
	// keeps the guarded form there.
	FullFusion bool
	// CompileClosures executes fused bodies through the HIR closure
	// compiler instead of the interpreter: intrinsic references resolve
	// at optimization time and instructions dispatch as direct calls.
	CompileClosures bool
	// Partitioned selects the extended super-handler organization of
	// Fig. 14: per-event guards with per-event fallback.
	Partitioned bool
	// MaxChainLen caps the number of events covered by one super-handler.
	MaxChainLen int
	// HIR configures the compiler passes used on fused bodies.
	HIR opt.Options
}

// DefaultOptions enables the full optimization stack with partitioned
// guards and automatic thresholding.
func DefaultOptions() Options {
	return Options{
		Subsume:     true,
		FuseHIR:     true,
		Partitioned: true,
		MaxChainLen: 16,
		HIR:         opt.Default(),
	}
}

// AutoThreshold picks an edge threshold for a graph: a tenth of the
// heaviest edge, but at least 2 (so one-shot startup sequences never
// qualify as hot).
func AutoThreshold(g *profile.EventGraph) int {
	max := 0
	for _, e := range g.Edges() {
		if e.Weight > max {
			max = e.Weight
		}
	}
	t := max / 10
	if t < 2 {
		t = 2
	}
	return t
}

// PlanEntry describes one super-handler to build: the entry event and the
// ordered set of events it covers (entry first, then subsumed events in
// discovery order).
type PlanEntry struct {
	Event     event.ID
	EventName string
	Chain     []event.ID
	// Async marks, per chain position, whether the link *into* that event
	// is asynchronous in the profile (Async[0] is always false). Async
	// positions become async-entry segments. len(Async) == len(Chain);
	// a nil Async means an all-synchronous chain.
	Async  []bool
	Reason string
}

// asyncAt reports whether the link into chain position i is async.
func (e *PlanEntry) asyncAt(i int) bool {
	return i < len(e.Async) && e.Async[i]
}

// hasAsync reports whether any chain link is asynchronous.
func (e *PlanEntry) hasAsync() bool {
	for _, a := range e.Async {
		if a {
			return true
		}
	}
	return false
}

// Plan is the set of super-handlers the optimizer intends to install.
type Plan struct {
	Entries []PlanEntry
	opts    Options
}

// Options returns the options the plan was built with.
func (p *Plan) Options() Options { return p.opts }

// Describe renders the plan for diagnostics.
func (p *Plan) Describe(sys *event.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d super-handlers\n", len(p.Entries))
	for _, e := range p.Entries {
		names := make([]string, len(e.Chain))
		for i, ev := range e.Chain {
			names[i] = sys.EventName(ev)
			if e.asyncAt(i) {
				names[i] = "~" + names[i] // async link into this event
			}
		}
		fmt.Fprintf(&b, "  %-20s chain=[%s] (%s)\n", e.EventName, strings.Join(names, " "), e.Reason)
	}
	return b.String()
}

// BuildPlan selects the events to optimize from a profile. Candidates are
// the events on hot paths of the reduced event graph (plus, with
// MergeAll, every multi-handler event); each candidate is extended into a
// chain by following handler raises that the profile shows to be stable
// and synchronous.
func BuildPlan(sys *event.System, prof *profile.Profile, opts Options) (*Plan, error) {
	if prof == nil {
		return nil, fmt.Errorf("core: BuildPlan: nil profile")
	}
	if opts.MaxChainLen <= 0 {
		opts.MaxChainLen = 16
	}
	t := opts.Threshold
	if t <= 0 {
		t = AutoThreshold(prof.Graph)
	}
	reduced := prof.Graph.Reduce(t)

	// Candidate entries: hot events first (by activation count), then
	// multi-handler events under MergeAll.
	seen := make(map[event.ID]bool)
	reasons := make(map[event.ID]string)
	var candidates []event.ID
	add := func(ev event.ID, why string) {
		if seen[ev] || sys.HandlerCount(ev) == 0 {
			return
		}
		seen[ev] = true
		candidates = append(candidates, ev)
		reasons[ev] = why
	}
	hot := reduced.Nodes()
	sort.Slice(hot, func(i, j int) bool {
		ci, cj := prof.Count(hot[i]), prof.Count(hot[j])
		if ci != cj {
			return ci > cj
		}
		return hot[i] < hot[j]
	})
	for _, ev := range hot {
		add(ev, fmt.Sprintf("hot event (weight>=%d)", t))
	}
	if opts.MergeAll {
		for _, ev := range sys.EventIDs() {
			if sys.HandlerCount(ev) > 1 {
				add(ev, "merge-all extension")
			}
		}
	}

	// Graph-only chain evidence for GraphChains: event chains of the
	// reduced graph, keyed by head (computed once, used as fallback for
	// candidates without handler-level raise records). With AsyncChains
	// the chains may cross async-dominant edges, carrying a per-link mode
	// mask.
	var graphChain map[event.ID]profile.Chain
	if opts.GraphChains && opts.Subsume {
		graphChain = make(map[event.ID]profile.Chain)
		if opts.AsyncChains {
			for _, c := range reduced.ChainsAsync(opts.AsyncShare) {
				graphChain[c.Events[0]] = c
			}
		} else {
			for _, c := range reduced.Chains() {
				graphChain[c[0]] = profile.Chain{Events: c, Async: make([]bool, len(c))}
			}
		}
	}

	// Async-dominant single-successor links of the reduced graph, used to
	// extend handler-evidence chains (which only see synchronous raises)
	// across an asynchronous tail.
	var asyncNext map[event.ID]event.ID
	if opts.AsyncChains && opts.Subsume {
		asyncNext = asyncDominantNext(reduced, opts.AsyncShare)
	}

	plan := &Plan{opts: opts}
	for _, ev := range candidates {
		entry := PlanEntry{Event: ev, EventName: sys.EventName(ev), Reason: reasons[ev]}
		entry.Chain = chainFor(sys, prof, ev, opts)
		entry.Async = make([]bool, len(entry.Chain))
		if len(entry.Chain) == 1 && graphChain != nil {
			if c, ok := graphChain[ev]; ok {
				entry.Chain, entry.Async = capGraphChain(sys, c, opts.MaxChainLen)
				if len(entry.Chain) > 1 {
					entry.Reason += " + graph chain"
				}
			}
		}
		if asyncNext != nil {
			visited := make(map[event.ID]bool, len(entry.Chain))
			for _, x := range entry.Chain {
				visited[x] = true
			}
			extended := false
			for len(entry.Chain) < opts.MaxChainLen {
				w, ok := asyncNext[entry.Chain[len(entry.Chain)-1]]
				if !ok || visited[w] || sys.HandlerCount(w) == 0 {
					break
				}
				entry.Chain = append(entry.Chain, w)
				entry.Async = append(entry.Async, true)
				visited[w] = true
				extended = true
			}
			if extended {
				entry.Reason += " + async tail"
			}
		}
		// A super-handler pays for itself only when it merges something:
		// several handlers on the entry event, or a chain to subsume. A
		// single-handler, chain-less event keeps generic dispatch (the
		// paper likewise merges only multi-handler events and chains).
		if len(entry.Chain) == 1 && sys.HandlerCount(ev) < 2 {
			continue
		}
		plan.Entries = append(plan.Entries, entry)
	}
	return plan, nil
}

// asyncDominantNext computes the async-dominant single-successor links
// of a (reduced) graph: v -> w where w is v's only successor, the edge
// has asynchronous traversals, and it carries at least share of w's
// total incoming weight — the same dominance rule ChainsAsync applies.
func asyncDominantNext(g *profile.EventGraph, share float64) map[event.ID]event.ID {
	if share <= 0 {
		share = 0.9
	}
	out := make(map[event.ID][]*profile.Edge)
	in := make(map[event.ID]int)
	for _, e := range g.Edges() {
		out[e.From] = append(out[e.From], e)
		in[e.To] += e.Weight
	}
	next := make(map[event.ID]event.ID)
	for v, es := range out {
		if len(es) != 1 || es[0].Sync() {
			continue
		}
		e := es[0]
		if float64(e.Weight) >= share*float64(in[e.To]) {
			next[v] = e.To
		}
	}
	return next
}

// capGraphChain trims a graph-derived chain to the covered prefix the
// installer can build: events must still exist with at least one handler
// bound, and the chain is capped at maxLen. The chain breaks at the
// first uncoverable event — subsumption must not skip over an event
// whose activation sits between the others in program order. The async
// link mask is trimmed in lockstep.
func capGraphChain(sys *event.System, c profile.Chain, maxLen int) ([]event.ID, []bool) {
	out := make([]event.ID, 0, len(c.Events))
	mask := make([]bool, 0, len(c.Events))
	for i, ev := range c.Events {
		if len(out) >= maxLen {
			break
		}
		if len(out) > 0 && sys.HandlerCount(ev) == 0 {
			break
		}
		out = append(out, ev)
		if i < len(c.Async) {
			mask = append(mask, c.Async[i])
		} else {
			mask = append(mask, false)
		}
	}
	return out, mask
}

// Diff compares the plan against the currently-installed super-handlers
// (entry event -> covered chain) and splits it into the incremental
// actions an online optimizer applies: entries to install fresh, entries
// whose installed chain no longer matches the plan (replace in place),
// and installed entries the plan no longer wants (evict). Order is
// deterministic: install/replan follow plan order, evictions ascend by
// event ID. Hysteresis, cooldowns and gain gating are the caller's
// policy — Diff is the pure set comparison.
func (p *Plan) Diff(installed map[event.ID][]event.ID) (install, replan []PlanEntry, evict []event.ID) {
	planned := make(map[event.ID]bool, len(p.Entries))
	for _, e := range p.Entries {
		planned[e.Event] = true
		cur, ok := installed[e.Event]
		if !ok {
			install = append(install, e)
			continue
		}
		if !sameChain(cur, e.Chain) {
			replan = append(replan, e)
		}
	}
	for ev := range installed {
		if !planned[ev] {
			evict = append(evict, ev)
		}
	}
	sort.Slice(evict, func(i, j int) bool { return evict[i] < evict[j] })
	return install, replan, evict
}

func sameChain(a, b []event.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chainFor computes the events covered by the super-handler rooted at ev:
// ev itself plus the transitive closure of events its handlers raise
// synchronously with a stable pattern.
func chainFor(sys *event.System, prof *profile.Profile, ev event.ID, opts Options) []event.ID {
	chain := []event.ID{ev}
	if !opts.Subsume {
		return chain
	}
	minShare := opts.SpeculativeShare
	if minShare <= 0 {
		minShare = 0.5
	}
	visited := map[event.ID]bool{ev: true}
	for i := 0; i < len(chain) && len(chain) < opts.MaxChainLen; i++ {
		cur := chain[i]
		handlers, ok := prof.StableHandlers(cur)
		if !ok {
			// Fall back to the currently bound handler names; raises are
			// still required to be stable (or dominant) below.
			for _, h := range sys.Handlers(cur) {
				handlers = append(handlers, h.Name)
			}
		}
		for _, h := range handlers {
			raises, stable := prof.StableSyncRaises(cur, h)
			if !stable && opts.Speculative {
				// Section 5 speculation: cover every event this handler
				// raises often enough, even though not always.
				shares := prof.SyncRaiseShares(cur, h)
				var spec []event.ID
				for x, share := range shares {
					if share >= minShare {
						spec = append(spec, x)
					}
				}
				sort.Slice(spec, func(i, j int) bool { return spec[i] < spec[j] })
				if len(spec) > 0 {
					raises, stable = spec, true
				}
			}
			if !stable {
				continue
			}
			for _, x := range raises {
				if visited[x] || sys.HandlerCount(x) == 0 {
					continue
				}
				if len(chain) >= opts.MaxChainLen {
					break
				}
				visited[x] = true
				chain = append(chain, x)
			}
		}
	}
	return chain
}
