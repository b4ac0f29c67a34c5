package telemetry_test

import (
	"sync"
	"testing"

	"eventopt/internal/span"
	"eventopt/internal/telemetry"
)

// TestFlightRingConcurrentReaders hammers one writer against readers of
// both views of the shared stream — flight snapshots and span snapshots
// — while the writer laps the ring many times; under -race this
// verifies the all-atomic slot protocol. Every field of record i is
// derived from i, so a torn read shows as an inconsistent record.
func TestFlightRingConcurrentReaders(t *testing.T) {
	st := telemetry.NewStream(1, 32)
	tel := telemetry.New(st, telemetry.Config{})
	col := span.NewCollector(st, span.Config{})
	tel.DefineEvent(0, "e")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(spans bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if spans {
					for _, sp := range col.Recent() {
						if sp.ID != uint64(sp.Start)+1 || sp.Parent != sp.ID || sp.End != 2*sp.Start || sp.Start%2 != 0 {
							t.Errorf("torn span: %+v", sp)
							return
						}
					}
					continue
				}
				for _, r := range tel.FlightRecords(0) {
					if r.Duration != int64(r.Seq) || r.End != 2*int64(r.Seq) || r.Seq%3 == 1 {
						t.Errorf("torn flight record: %+v", r)
						return
					}
				}
			}
		}(i%2 == 1)
	}
	for i := 0; i < 200000; i++ {
		r := telemetry.Record{Start: int64(i), End: 2 * int64(i), Nested: i%3 == 1}
		if i%2 == 0 {
			r.Trace, r.Span, r.Parent = uint64(i)+1, uint64(i)+1, uint64(i)+1
		}
		st.Write(0, &r)
	}
	close(stop)
	wg.Wait()
}
