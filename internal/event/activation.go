package event

import "sync"

// inlineArgs is the number of raise arguments an activation record (and a
// dispatch context) stores inline. Raises with at most this many
// arguments travel the runtime without touching the heap; longer argument
// lists spill to a cloned slice. Four covers every hot event of the
// paper's applications (Seg2Net carries three).
const inlineArgs = 4

// activation is one queued unit of scheduler work: an asynchronous or
// timed event activation, a supervised retry, or an internal timer
// callback. Records are pooled — the ring buffers hold pointers and the
// steady-state raise path recycles them instead of allocating.
//
// Ownership discipline: the producer that obtains a record from getAct
// owns it until it is pushed onto a domain's ring; from then on the
// consuming domain owns it and releases it with putAct after the
// activation (including its retry decision) completes. Nothing may
// retain a record or alias its argument storage across that release:
// dispatch copies arguments into per-domain scratch before any handler
// runs, retries copy into their timer entry, and dead-letter metadata
// is built fresh — so a recycled record can never mutate under a reader.
type activation struct {
	ev      ID
	attempt int32 // prior retry attempts of this activation
	mode    Mode

	// csh/cidx carry the continuation hint of a coalesced asynchronous
	// raise: the super-handler and segment index the raise should execute
	// through directly instead of the generic route (coalesce.go). Both
	// are best-effort — the segment guard is re-checked when the
	// continuation runs — and pool zeroing clears them.
	cidx int32
	csh  *SuperHandler

	fire func() // internal timer callback; runs instead of a dispatch

	// enqAt stamps the enqueue time when telemetry is enabled (enqSet
	// gates validity); the scheduler pop turns it into a queue-delay
	// observation. Pool zeroing clears both.
	enqAt  Duration
	enqSet bool

	// trace/pspan/skind carry the causal span context of a sampled trace
	// across the scheduler handoff (span.go): the trace ID, the raising
	// span's ID, and the hop kind (span.Kind) the activation's own span
	// records. Zero trace means the activation is not part of a sampled
	// trace. Fixed-size words, cleared by pool zeroing.
	skind uint8
	trace uint64
	pspan uint64

	args argBuf
}

// argBuf is the owned argument storage of a queued activation or an
// armed timer: inline up to inlineArgs, a private clone beyond. Moving a
// buffer (a struct copy) moves ownership of its spill with it.
type argBuf struct {
	n      int
	inline [inlineArgs]Arg
	spill  []Arg // owned clone, non-nil only when n > inlineArgs
}

// get returns the buffer's argument view. The slice aliases the
// buffer's storage: callers must copy (or clone) before it is released.
func (b *argBuf) get() []Arg {
	if b.spill != nil {
		return b.spill
	}
	return b.inline[:b.n]
}

// set copies the caller's arguments into the buffer: inline up to
// inlineArgs, a fresh clone beyond. The incoming slice is never retained,
// so callers' variadic slices stay on their stacks.
func (b *argBuf) set(args []Arg) {
	b.n = len(args)
	if len(args) <= inlineArgs {
		copy(b.inline[:], args)
		b.spill = nil
	} else {
		b.spill = cloneArgs(args)
	}
}

// actPool recycles activation records across all Systems. Get/Put are
// safe from any goroutine, which the MPSC enqueue path requires.
var actPool = sync.Pool{New: func() any { return new(activation) }}

// getAct returns a cleared activation record, recycled when possible.
func (s *System) getAct() *activation {
	if s.noPool {
		return new(activation)
	}
	return actPool.Get().(*activation)
}

// putAct releases a record back to the pool. Argument storage is cleared
// so recycled records do not pin caller values, and so the reuse-safety
// property test can detect any illegal aliasing as visible mutation.
func (s *System) putAct(a *activation) {
	if s.noPool {
		return
	}
	*a = activation{}
	actPool.Put(a)
}
