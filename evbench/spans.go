package main

import (
	"bufio"
	"fmt"
	"os"
)

// Span names: one per layer boundary the benchmark wraps. The spans are
// recorded from the benchmark's own code around its calls into a layer;
// the runtime itself carries no extra instrumentation.
const (
	spOp         = iota // one op of the workload: the root of its spans
	spRaise             // System.Raise, through SendFrame, Push or HandlePacket
	spDrain             // System.DrainFor or System.Drain after the raise
	spRaiseAsync        // the generator's System.RaiseAsync
	spTick              // adaptive Controller.Tick
	spCipher            // a cipher intrinsic: DES CBC or XOR
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.op", "event.raise", "event.drain", "event.raise_async", "adaptive.tick", "ciphers.call",
}

// spanRec is one recorded span. Parent is -1 for a root; Root is the
// index of the root span, shared by every span of one op.
type spanRec struct {
	Start, End   int64
	Parent, Root int32
	Name         uint8
}

// tracer records spans in memory from one goroutine. A span begun while
// another is open becomes its child. The buffer is allocated up front so
// tracing allocates nothing per op; once it is full further spans are
// counted as dropped instead of kept.
type tracer struct {
	on      bool
	spans   []spanRec
	stack   []int32
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]spanRec, 0, capacity), stack: make([]int32, 0, 8)}
}

// begin opens a span and returns its index, or -1 when the tracer is nil,
// off or full.
func (t *tracer) begin(name uint8) int32 {
	if t == nil || !t.on {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	i := int32(len(t.spans))
	rec := spanRec{Name: name, Parent: -1, Root: i}
	if n := len(t.stack); n > 0 {
		p := t.stack[n-1]
		rec.Parent, rec.Root = p, t.spans[p].Root
	}
	t.spans = append(t.spans, rec)
	t.stack = append(t.stack, i)
	t.spans[i].Start = nanotime()
	return i
}

// end closes span i, the innermost open one; -1 is ignored.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].End = nanotime()
	t.stack = t.stack[:len(t.stack)-1]
}

// spanTotals sums, per span name, the count, the total duration and the
// self time of the spans: a span's self time is its duration minus the
// part of it its children cover. Children are recorded in start order,
// so a running watermark per parent counts overlapping children once.
type spanTotals struct {
	Count, Total, Self [numSpanNames]int64
}

func totals(spans []spanRec) spanTotals {
	covered := make([]int64, len(spans))
	mark := make([]int64, len(spans))
	for i, sp := range spans {
		mark[i] = sp.Start
		if sp.Parent < 0 {
			continue
		}
		p := spans[sp.Parent]
		from, to := max(sp.Start, mark[sp.Parent]), min(sp.End, p.End)
		if to > from {
			covered[sp.Parent] += to - from
		}
		mark[sp.Parent] = max(mark[sp.Parent], to)
	}
	var t spanTotals
	for i, sp := range spans {
		d := sp.End - sp.Start
		t.Count[sp.Name]++
		t.Total[sp.Name] += d
		t.Self[sp.Name] += d - covered[i]
	}
	return t
}

// writeCSV writes the spans, one per line, to path.
func (t *tracer) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,root,name,start_ns,end_ns")
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, sp.Parent, sp.Root, spanNames[sp.Name], sp.Start, sp.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
