package event

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTimerStaleHandleAfterReuse pins the generation-handle contract:
// once an entry has fired (or been canceled and dropped) and been
// re-armed for another timer, the old handle's Cancel and Pending report
// false and leave the new timer armed.
func TestTimerStaleHandleAfterReuse(t *testing.T) {
	s := New(WithClock(NewVirtualClock()))
	ev := s.Define("tick")
	var fired []int
	s.Bind(ev, "h", func(ctx *Ctx) { fired = append(fired, ctx.Args.Int("id")) })

	old := s.RaiseAfter(time.Millisecond, ev, Int("id", 1))
	s.Drain()
	cur := s.RaiseAfter(time.Millisecond, ev, Int("id", 2))
	if old.e != cur.e {
		t.Fatal("the second timer did not reuse the fired entry; the test checks nothing")
	}
	if old.Pending() || old.Cancel() {
		t.Fatal("a fired timer's handle still reports pending or cancels")
	}
	if !cur.Pending() {
		t.Fatal("a stale Cancel disturbed the timer now holding the entry")
	}
	s.Drain()

	dropped := s.RaiseAfter(time.Millisecond, ev, Int("id", 3))
	if !dropped.Cancel() || dropped.Cancel() {
		t.Fatal("Cancel of an armed timer must succeed exactly once")
	}
	s.Drain() // pops the canceled entry off the heap and frees it
	next := s.RaiseAfter(time.Millisecond, ev, Int("id", 4))
	if dropped.e != next.e {
		t.Fatal("the canceled entry was not reused; the test checks nothing")
	}
	if dropped.Pending() || dropped.Cancel() || !next.Pending() {
		t.Fatal("a canceled timer's handle reached the entry's next timer")
	}
	s.Drain()

	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 4 {
		t.Fatalf("fired ids = %v, want [1 2 4]", fired)
	}
	if n := s.TimerCount(); n != 0 {
		t.Fatalf("TimerCount = %d after drain", n)
	}
	var zero Timer
	if zero.Pending() || zero.Cancel() {
		t.Fatal("the zero Timer must be inert")
	}
}

// TestTimerHandleConcurrentCancelReuse hammers the generation check
// under -race: a producer arms short timers on a real-clock Run loop
// that fires and recycles their entries, while cancelers revoke the
// handles. Even timers race their cancel against their fire; odd timers
// are only cancelled after they fired, by which time their entry
// usually carries another timer, so that Cancel must fail. Every timer
// must end exactly one way: fired, or canceled by its own handle. A
// stale handle that reached its entry's next timer would show up as one
// timer both fired and canceled, and another neither.
func TestTimerHandleConcurrentCancelReuse(t *testing.T) {
	const n = 4000
	s := New()
	ev := s.Define("tick")
	var fired, canceled [n]atomic.Int32
	var done atomic.Int32
	s.Bind(ev, "h", func(ctx *Ctx) {
		fired[ctx.Args.Int("id")].Add(1)
		done.Add(1)
	})
	stop := make(chan struct{})
	ran := make(chan struct{})
	go func() {
		s.Run(stop)
		close(ran)
	}()

	type handle struct {
		tm Timer
		id int
	}
	cancel := func(h handle) {
		if h.tm.Cancel() {
			canceled[h.id].Add(1)
			done.Add(1)
		}
	}
	handles := make(chan handle, 64)
	deadline := time.Now().Add(10 * time.Second) // bounds every wait below
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []handle // odd timers, cancelled once they fired
			flush := func() {
				for _, h := range held {
					for fired[h.id].Load() == 0 && time.Now().Before(deadline) {
						time.Sleep(10 * time.Microsecond)
					}
					if h.tm.Pending() {
						t.Errorf("timer %d still pending after it fired", h.id)
					}
					cancel(h)
				}
				held = held[:0]
			}
			for h := range handles {
				if h.id%2 == 0 {
					cancel(h)
					h.tm.Pending()
					continue
				}
				if held = append(held, h); len(held) == 16 {
					flush()
				}
			}
			flush()
		}()
	}
	entries := make(map[*timerEntry]bool)
	for i := 0; i < n; i++ {
		d := time.Duration(i%3) * 20 * time.Microsecond
		if i%4 == 2 {
			d = time.Millisecond // these cancels win their race
		}
		tm := s.RaiseAfter(d, ev, Int("id", i))
		entries[tm.e] = true
		handles <- handle{tm: tm, id: i}
	}
	close(handles)
	wg.Wait()
	for done.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-ran
	nf, nc := 0, 0
	for i := range fired {
		f, c := fired[i].Load(), canceled[i].Load()
		if f+c != 1 {
			t.Fatalf("timer %d: fired %d times, canceled %d times; want exactly one of them", i, f, c)
		}
		nf += int(f)
		nc += int(c)
	}
	if len(entries) == n || nc == 0 {
		t.Fatalf("%d entries for %d timers, %d canceled: the hammer did not mix reuse and cancel", len(entries), n, nc)
	}
	t.Logf("%d entries for %d timers, %d fired, %d canceled", len(entries), n, nf, nc)
	if n := s.TimerCount(); n != 0 {
		t.Fatalf("TimerCount = %d after every timer ended", n)
	}
}
