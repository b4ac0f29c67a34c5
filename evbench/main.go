// Command evbench is the repository benchmark. It runs one seeded
// workload against the event runtime, checks every output against a
// generic-dispatch reference, and prints one line per metric and, as the
// last line of standard output, a JSON result: the end-to-end metrics of
// an untraced run, or with --trace 1 the per-layer metrics of a traced
// run. Build and run it from the repository root with
//
//	bash evbench/run.sh --workload video --seed 1 --seconds 10 --trace 0
//
// METRICS.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	name := flag.String("workload", "", "video, seccomm, pipeline_rpc or pipeline_burst")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase of an untraced run")
	traceRun := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	out := flag.String("out", ".bench_build/evbench-runs", "directory for the spans and profiles of traced runs")
	corrupt := flag.Int("corrupt-op", -1, "flip one output byte of this op, counted from the end of setup, to test the output check")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *traceRun, *out, *corrupt); err != nil {
		fmt.Fprintln(os.Stderr, "evbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "video":
		return newVideo(seed), nil
	case "seccomm":
		return newSeccomm(seed), nil
	case "pipeline_rpc":
		return newPipeline(seed, 1), nil
	case "pipeline_burst":
		return newPipeline(seed, pipeBurstWave), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stamp identifies a run: what ran, with which inputs, where and on which
// code.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Start      string `json:"start"`
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func run(w io.Writer, name string, seed uint64, seconds, traceRun int, out string, corrupt int) error {
	wl, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if seconds < 1 || (traceRun != 0 && traceRun != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	st := stamp{name, seed, traceRun, seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), commit(), time.Now().UTC().Format(time.RFC3339)}
	meta, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "evbench %s\n", meta)
	if traceRun == 0 {
		r, err := endToEnd(wl, time.Duration(seconds)*time.Second, corrupt)
		if err != nil {
			return err
		}
		return r.print(w, endToEndMetrics, ungatedMetrics)
	}
	dir := filepath.Join(out, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r, err := traced(wl, dir, corrupt)
	if err != nil {
		return err
	}
	report, err := json.MarshalIndent(struct {
		stamp
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]float64 `json:"metrics"`
	}{st, r.attempted, r.failed, r.metrics}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), append(report, '\n'), 0o644); err != nil {
		return err
	}
	return r.print(w, perLayerMetrics, nil)
}
