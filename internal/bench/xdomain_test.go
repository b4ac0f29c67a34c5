package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunXDomainReportShape(t *testing.T) {
	var out bytes.Buffer
	rep, err := RunXDomain(&out, 20000)
	if rep == nil {
		t.Fatalf("RunXDomain returned no report (err %v)", err)
	}
	if err != nil {
		// The speedup gates are calibrated for the CI runner; on an
		// arbitrary loaded machine only the report shape is asserted.
		t.Logf("gate (tolerated in unit test): %v", err)
	}
	if rep.UnmergedNs <= 0 || rep.MergedNs <= 0 || rep.PipelineX <= 0 {
		t.Errorf("pipeline comparison not measured: %+v", rep)
	}
	if len(rep.StaticRows) != 4 {
		t.Fatalf("static sweep rows = %d, want 4", len(rep.StaticRows))
	}
	for _, r := range rep.StaticRows {
		if r.EPS <= 0 {
			t.Errorf("static K=%d throughput not positive: %+v", r.K, r)
		}
	}
	if rep.DefaultEPS <= 0 || rep.BestStaticEPS <= 0 {
		t.Errorf("default-vs-static sweep not measured: %+v", rep)
	}
	// The allocation gate holds on any machine: it measures the runtime,
	// not the scheduler's luck. (Not under -race, whose shadow
	// allocations inflate the count.)
	if !raceEnabled && rep.RaiseAllocs != 0 {
		t.Errorf("sync raise with coalescing allocates: %.2f allocs/op", rep.RaiseAllocs)
	}
	if !strings.Contains(out.String(), "Cross-domain continuation handoff") ||
		!strings.Contains(out.String(), "Default drain vs static batch K") {
		t.Error("table headers missing from output")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back XDomainReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.StaticRows) != len(rep.StaticRows) || back.Hops != rep.Hops {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, rep)
	}
}

func TestXDomainPipelineHandsOff(t *testing.T) {
	op, s := xdomainPipelineOp(true)
	for i := 0; i < 10; i++ {
		op()
	}
	st := s.StatsAggregate()
	if want := int64(10 * xdomainHops); st.XDomainHandoffs != want {
		t.Fatalf("XDomainHandoffs = %d, want %d (every link, every op)", st.XDomainHandoffs, want)
	}
	if st.XDomainFallbacks != 0 {
		t.Fatalf("XDomainFallbacks = %d on an idle pipeline", st.XDomainFallbacks)
	}
	if st.Generic != 0 {
		t.Fatalf("merged pipeline took %d generic dispatches", st.Generic)
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	oldRep := &XDomainReport{PipelineX: 1.20, DefaultEPS: 1000, Pass: true,
		StaticRows: []KRow{{K: 16, EPS: 900}}}
	newRep := &XDomainReport{PipelineX: 1.50, DefaultEPS: 1000, Pass: false,
		StaticRows: []KRow{{K: 16, EPS: 990}}}
	for path, rep := range map[string]*XDomainReport{oldPath: oldRep, newPath: newRep} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	var out bytes.Buffer
	if err := CompareReports(&out, oldPath, newPath); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"pipeline_speedup", "+25.0%", // 1.20 -> 1.50
		"static_rows.0.events_per_sec", "+10.0%", // 900 -> 990
		"default_eps", "~", // unchanged
		"pass", // boolean transition 1 -> 0
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output missing %q:\n%s", want, got)
		}
	}
	if err := CompareReports(&out, filepath.Join(dir, "missing.json"), newPath); err == nil {
		t.Error("missing file did not error")
	}
}
