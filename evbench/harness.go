package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"eventopt/internal/event"
)

const (
	// setups is how many times a run builds its system, half of them
	// before the ops and half after: setup_s is the median build time, so
	// a burst of machine load during one half barely moves it. The last
	// build before the ops serves them.
	setups = 40
	// warmup runs ops untimed before the timed phase, so caches fill and
	// lazy set-up finishes first.
	warmup = 500 * time.Millisecond
	// window is the length of one window of the timed phase. The ops rate
	// and the latency percentiles are medians over the windows, so a burst
	// of machine load moves one window, not the result.
	window = time.Second
	// maxSamples caps the output digests one run keeps, and the latency
	// samples of one window.
	maxSamples = 3 << 20
	// spansPerOp sizes the traced run's span buffer.
	spansPerOp = 10
	// sweepRounds is the number of interleaved rounds of a twin sweep.
	sweepRounds = 30
	// traceRounds is the number of untraced/traced block pairs of a traced
	// run; alternating them exposes both to the same drift in machine load.
	traceRounds = 10
)

// instance is one workload system, set up and ready to serve.
type instance interface {
	// batch is the number of ops one call of run performs.
	batch() int
	// run performs the next batch of ops and stores each op's latency,
	// in ns, into lat (len batch()).
	run(lat []int64)
	// stats reads the runtime's exact counters.
	stats() event.StatsSnapshot
	// check verifies the outputs of every op run since setup, outside
	// the timed region, and reports how many ops ran and how many failed.
	check() (attempted, failed int, err error)
	close()
}

// layerReporter is an instance that measures per-layer values of its own
// during the traced run's blocks, which took elapsed.
type layerReporter interface {
	layers(m map[string]float64, elapsed time.Duration)
}

// spanSwitch is an instance that wraps more of its calls in spans while a
// traced block runs, and unwraps them for the untraced ones.
type spanSwitch interface {
	traceSpans(on bool)
}

// workload builds instances of one seeded workload.
type workload interface {
	// setup builds an instance ready to serve. tr, when non-nil, records
	// spans while tr.on; corrupt, when >= 0, flips one output byte of
	// that op so the output check can be checked.
	setup(tr *tracer, corrupt int) (instance, setupInfo, error)
	// traceOps is the op count of each fixed-size phase of a traced run.
	traceOps() int
	// sweep drives twin systems with one op stream, interleaved, and
	// returns their per-layer metrics, the ops it ran and the ops whose
	// outputs disagreed between twins.
	sweep() (m map[string]float64, attempted, failed int, err error)
}

// setupInfo times the stages of one setup.
type setupInfo struct {
	Total, ProfileRun, Analyze, Plan, Install time.Duration
	Entries, Supers, FusedInstrs              int
}

// setUp builds the workload's system n times and returns the last build
// with the set-up info of every build.
func setUp(w workload, tr *tracer, corrupt, n int) (instance, []setupInfo, error) {
	var inst instance
	var infos []setupInfo
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // start every build from the same heap state
		var info setupInfo
		var err error
		if inst, info, err = w.setup(tr, corrupt); err != nil {
			return nil, nil, err
		}
		infos = append(infos, info)
	}
	return inst, infos, nil
}

// setUpAgain builds the workload's system n more times, after the ops,
// and returns infos with the set-up info of these builds added.
func setUpAgain(w workload, n int, infos []setupInfo) ([]setupInfo, error) {
	inst, more, err := setUp(w, nil, -1, n)
	if err != nil {
		return nil, err
	}
	inst.close()
	return append(infos, more...), nil
}

// medianSetup is the last build's sizes with each stage timing's median
// over all builds.
func medianSetup(infos []setupInfo) setupInfo {
	med := func(f func(setupInfo) time.Duration) time.Duration {
		xs := make([]float64, len(infos))
		for i, in := range infos {
			xs[i] = float64(f(in))
		}
		return time.Duration(median(xs))
	}
	info := infos[len(infos)-1]
	info.Total = med(func(s setupInfo) time.Duration { return s.Total })
	info.ProfileRun = med(func(s setupInfo) time.Duration { return s.ProfileRun })
	info.Analyze = med(func(s setupInfo) time.Duration { return s.Analyze })
	info.Plan = med(func(s setupInfo) time.Duration { return s.Plan })
	info.Install = med(func(s setupInfo) time.Duration { return s.Install })
	return info
}

// drive runs batches until n ops have run (n > 0) or the deadline passes
// (a non-zero deadline), appending latencies to lat while it has room.
// It returns the ops run, the time they took and lat.
func drive(inst instance, n int, deadline time.Time, lat []int64) (int, time.Duration, []int64) {
	buf := make([]int64, inst.batch())
	ops := 0
	start := time.Now()
	for n <= 0 || ops < n {
		inst.run(buf)
		ops += len(buf)
		if len(lat)+len(buf) <= cap(lat) {
			lat = append(lat, buf...)
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
	}
	return ops, time.Since(start), lat
}

// result is what one run prints.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

// endToEnd is the untraced run: set up, warm up, then time ops for the
// given duration in windows, and set up again.
func endToEnd(w workload, d time.Duration, corrupt int) (*result, error) {
	inst, infos, err := setUp(w, nil, corrupt, setups/2)
	if err != nil {
		return nil, err
	}
	drive(inst, 0, time.Now().Add(warmup), nil)
	lat := make([]int64, 0, maxSamples)
	var (
		ops, samples   int
		elapsed        time.Duration
		rate, p50, p99 []float64
		m0, m1         runtime.MemStats
	)
	// Latency percentiles are taken per window, or per wave when the
	// generator raises its ops in waves: a wave's p99 is then about the
	// time the generator waited for it, and one stalled wave does not set
	// the percentile of a whole window.
	group := inst.batch()
	if group == 1 {
		group = maxSamples
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < max(int(d/window), 1); i++ {
		var n int
		var el time.Duration
		n, el, lat = drive(inst, 0, time.Now().Add(window), lat[:0])
		ops, elapsed, samples = ops+n, elapsed+el, samples+len(lat)
		rate = append(rate, float64(n)/el.Seconds())
		for g := 0; g < len(lat); g += group {
			dl := distOf(lat[g:min(g+group, len(lat))])
			p50, p99 = append(p50, dl.P50), append(p99, dl.P99)
		}
	}
	runtime.ReadMemStats(&m1)
	attempted, failed, err := inst.check()
	inst.close()
	if err != nil {
		return nil, err
	}
	if infos, err = setUpAgain(w, setups-setups/2, infos); err != nil {
		return nil, err
	}
	return &result{
		attempted: attempted,
		failed:    failed,
		metrics: map[string]float64{
			"ops_per_s":          median(rate),
			"latency_p50_us":     median(p50),
			"latency_p99_us":     median(p99),
			"setup_s":            medianSetup(infos).Total.Seconds(),
			"allocs_per_op":      float64(m1.Mallocs-m0.Mallocs) / float64(ops),
			"alloc_bytes_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		},
		notes: []string{
			fmt.Sprintf("timed: %d ops in %.3f s, in %d windows; ops_per_s is the median over the windows, latency p50 and p99 the medians over %d groups of %d latency samples in all",
				ops, elapsed.Seconds(), len(rate), len(p99), samples),
			fmt.Sprintf("setup: median of %d builds, %d before the ops and %d after", len(infos), setups/2, setups-setups/2),
		},
	}, nil
}

// gcCPU reads the runtime's cumulative GC CPU seconds, total CPU seconds
// and completed GC cycles.
func gcCPU() (gc, total float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// traced is the per-layer run. After setup it runs traceRounds pairs of
// blocks of traceOps/traceRounds ops, one untraced and one traced, the
// pair's order alternating so that both see the same drift in machine
// load; the ops are the same on every run of a seed. Untraced blocks give
// allocations, GC load and the untraced rate; traced blocks record spans
// and give self times and the runtime counters. Then a pass of traceOps
// ops records the CPU profile. Last it checks outputs, runs the twin
// sweep, and writes spans and profiles to dir.
func traced(w workload, dir string, corrupt int) (*result, error) {
	n := w.traceOps()
	tr := newTracer(n * spansPerOp)
	inst, infos, err := setUp(w, tr, corrupt, setups/2)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	m := make(map[string]float64, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.Name] = 0
	}

	var (
		opsA, opsB    int
		elapsed       time.Duration
		mallocs       uint64
		gcCycles      uint64
		gcSec, cpuSec float64
		grown         event.StatsSnapshot // counter growth over the traced blocks
		overhead      []float64
	)
	block := max(n/traceRounds, 1)
	untraced := func() (int, time.Duration) {
		var m0, m1 runtime.MemStats
		gc0, cpu0, cyc0 := gcCPU()
		runtime.ReadMemStats(&m0)
		a, el, _ := drive(inst, block, time.Time{}, nil)
		runtime.ReadMemStats(&m1)
		gc1, cpu1, cyc1 := gcCPU()
		mallocs += m1.Mallocs - m0.Mallocs
		gcSec, cpuSec, gcCycles = gcSec+gc1-gc0, cpuSec+cpu1-cpu0, gcCycles+cyc1-cyc0
		opsA += a
		return a, el
	}
	spans := func(on bool) {
		tr.on = on
		if s, ok := inst.(spanSwitch); ok {
			s.traceSpans(on)
		}
	}
	withSpans := func() (int, time.Duration) {
		s0 := inst.stats()
		spans(true)
		b, el, _ := drive(inst, block, time.Time{}, nil)
		spans(false)
		grown = addStats(grown, addStats(inst.stats(), s0, -1), 1)
		opsB += b
		return b, el
	}
	runtime.GC()
	for r := 0; r < traceRounds; r++ {
		var a, b int
		var elA, elB time.Duration
		if r%2 == 0 {
			a, elA = untraced()
			b, elB = withSpans()
		} else {
			b, elB = withSpans()
			a, elA = untraced()
		}
		elapsed += elA + elB
		overhead = append(overhead, (elB.Seconds()/float64(b))/(elA.Seconds()/float64(a))-1)
	}
	if lr, ok := inst.(layerReporter); ok {
		lr.layers(m, elapsed)
	}
	if err := cpuProfile(filepath.Join(dir, "cpu.pprof"), func() { drive(inst, n, time.Time{}, nil) }); err != nil {
		return nil, err
	}

	attempted, failed, err := inst.check()
	if err != nil {
		return nil, err
	}
	sw, swAttempted, swFailed, err := w.sweep()
	if err != nil {
		return nil, err
	}
	for k, v := range sw {
		m[k] = v
	}
	if infos, err = setUpAgain(w, setups-setups/2, infos); err != nil {
		return nil, err
	}
	info := medianSetup(infos)

	r := rates(event.StatsSnapshot{}, grown, opsB)
	m["event.activations_per_op"] = r.Activations
	m["event.generic_per_op"] = r.Generic
	m["event.fast_per_op"] = r.Fast
	m["event.fallbacks_per_op"] = r.Fallbacks
	m["event.handlers_per_op"] = r.Handlers
	m["event.timed_per_op"] = r.Timed
	m["event.marshals_per_op"] = r.Marshals
	m["event.arg_resolves_per_op"] = r.ArgResolves
	m["event.indirect_per_op"] = r.Indirect
	m["event.locks_per_op"] = r.Locks
	m["event.captured_per_op"] = r.Captured
	m["event.capture_hit_share"] = r.CaptureHitShare

	t := totals(tr.spans)
	perOpUs := func(ns int64) float64 { return float64(ns) / float64(opsB) / 1e3 }
	mean := func(name int) float64 {
		if t.Count[name] == 0 {
			return 0
		}
		return float64(t.Total[name]) / float64(t.Count[name])
	}
	m["event.raise_self_us"] = perOpUs(t.Self[spRaise])
	m["event.drain_self_us"] = perOpUs(t.Self[spDrain])
	m["event.raise_async_ns"] = mean(spRaiseAsync)
	m["adaptive.tick_us"] = mean(spTick) / 1e3
	m["ciphers.self_us_per_op"] = perOpUs(t.Total[spCipher])
	if t.Total[spOp] > 0 {
		m["ciphers.share"] = float64(t.Total[spCipher]) / float64(t.Total[spOp])
	}

	m["trace.profile_run_ms"] = ms(info.ProfileRun)
	m["trace.entries"] = float64(info.Entries)
	m["profile.analyze_ms"] = ms(info.Analyze)
	m["core.plan_ms"] = ms(info.Plan)
	m["core.install_ms"] = ms(info.Install)
	m["core.super_handlers"] = float64(info.Supers)
	m["hir.fused_instrs"] = float64(info.FusedInstrs)

	m["go.allocs_per_op"] = float64(mallocs) / float64(opsA)
	if cpuSec > 0 {
		m["go.gc_cpu_fraction"] = gcSec / cpuSec
	}
	m["go.gc_per_kop"] = float64(gcCycles) / float64(opsA) * 1e3
	m["bench.trace_overhead_pct"] = median(overhead) * 100

	if err := tr.writeCSV(filepath.Join(dir, "spans.csv")); err != nil {
		return nil, err
	}
	if err := writeProfile(filepath.Join(dir, "allocs.pprof"), "allocs"); err != nil {
		return nil, err
	}
	return &result{
		attempted: attempted + swAttempted,
		failed:    failed + swFailed,
		metrics:   m,
		notes: []string{
			fmt.Sprintf("traced: %d pairs of %d-op blocks, untraced and traced, in %.3f s", traceRounds, block, elapsed.Seconds()),
			fmt.Sprintf("spans: %d kept, %d dropped, written with cpu.pprof and allocs.pprof to %s", len(tr.spans), tr.dropped, dir),
		},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuProfile writes a CPU profile of fn to path.
func cpuProfile(path string, fn func()) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// writeProfile writes the named runtime profile to path.
func writeProfile(path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes the notes and one line per metric, then, as the last line,
// the JSON result: correctness, op counts and each of defs with its unit.
// The ungated metrics get a line but stay out of the JSON.
func (r *result) print(w io.Writer, defs, ungated []metric) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]valueUnit, len(defs))}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = valueUnit{v, d.Unit}
		fmt.Fprintf(w, "%-28s %16.6f %s\n", d.Name, v, d.Unit)
	}
	for _, d := range ungated {
		fmt.Fprintf(w, "%-28s %16.6f %s (not in BENCHMARK.json)\n", d.Name, r.metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "%-28s %16.6f ratio (%d failed of %d attempted)\n", "error_rate",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
