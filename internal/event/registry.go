package event

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// bindingSnapshot is the immutable, lock-free read view of one event. A
// new snapshot is published (copy-on-write) by every mutation of the
// event's registry entry — bind, unbind, delete — so the dispatch path
// reads a coherent (name, version, handler list) triple with a single
// atomic load and never takes System.mu.
type bindingSnapshot struct {
	name     string
	deleted  bool
	version  uint64        // the value of eventRec.ver when published
	handlers []HandlerInfo // execution order; never mutated after publish
}

// eventRec is the registry entry for one event. The mutable source of
// truth (handlers, deleted) is guarded by System.mu on the write side;
// readers go through the published snapshot and the atomic fields only.
type eventRec struct {
	name     string
	deleted  bool     // write-side flag; readers use snap.deleted
	handlers []*bound // write-side handler list; readers use snap.handlers

	ver  atomic.Uint64                   // binding version: the single source of truth for guards
	snap atomic.Pointer[bindingSnapshot] // current published read view
	fast atomic.Pointer[SuperHandler]    // installed fast path (nil if none)
	dom  atomic.Int32                    // owning domain index (affinity)
}

// publish rebuilds and atomically installs the read snapshot after a
// registry mutation, bumping the version first so a guard that loaded
// the old version cannot match the new snapshot. Caller holds System.mu.
func (r *eventRec) publish(bump bool) {
	if bump {
		r.ver.Add(1)
	}
	s := &bindingSnapshot{name: r.name, deleted: r.deleted, version: r.ver.Load()}
	if n := len(r.handlers); n > 0 {
		s.handlers = make([]HandlerInfo, n)
		for i, h := range r.handlers {
			s.handlers[i] = HandlerInfo{
				Name:     h.name,
				Order:    h.order,
				Params:   h.params,
				BindArgs: h.bindArgs,
				IR:       h.ir,
				Fn:       h.fn,
			}
		}
	}
	r.snap.Store(s)
}

// Define registers a new event and returns its ID. Event names are unique
// within a System; Define panics on a duplicate name (programming error,
// as in Cactus event creation).
func (s *System) Define(name string) ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byName[name]; ok {
		panic(fmt.Sprintf("event: Define(%q): %v", name, ErrDuplicateEvent))
	}
	id := ID(len(s.events))
	r := &eventRec{name: name}
	r.dom.Store(int32(int(id) % len(s.domains)))
	r.publish(false)
	s.events = append(s.events, r)
	s.byName[name] = id
	s.publishTableLocked()
	s.publishNamesLocked()
	if s.tel != nil {
		// Name the event and pre-grow the telemetry tables so its record
		// paths never allocate.
		s.tel.DefineEvent(int32(id), name)
	} else if s.obs != nil {
		// Names resolve only at export time, never on the record path.
		s.obs.DefineEvent(int32(id), name)
	}
	return id
}

// publishTableLocked installs a fresh copy of the event table for
// lock-free ID lookups. Caller holds s.mu.
func (s *System) publishTableLocked() {
	tab := make([]*eventRec, len(s.events))
	copy(tab, s.events)
	s.table.Store(&tab)
}

// publishNamesLocked installs a fresh copy of the name table for
// lock-free name lookups, so RaiseByName joins the lock-free read path
// instead of resolving under the registry lock. Caller holds s.mu.
func (s *System) publishNamesLocked() {
	tab := make(map[string]ID, len(s.byName))
	for n, id := range s.byName {
		tab[n] = id
	}
	s.names.Store(&tab)
}

// recLF resolves ev to its registry record without locking (the raise
// path). It returns nil for IDs never defined.
func (s *System) recLF(ev ID) *eventRec {
	tab := s.table.Load()
	if tab == nil || ev < 0 || int(ev) >= len(*tab) {
		return nil
	}
	return (*tab)[ev]
}

// DefineAll registers several events at once and returns their IDs in order.
func (s *System) DefineAll(names ...string) []ID {
	ids := make([]ID, len(names))
	for i, n := range names {
		ids[i] = s.Define(n)
	}
	return ids
}

// Lookup returns the ID of a named event, or NoID if it is unknown or has
// been deleted. The read is a single atomic load of the published name
// table — no lock — so name-keyed raises ride the lock-free read path.
func (s *System) Lookup(name string) ID {
	tab := s.names.Load()
	if tab == nil {
		return NoID
	}
	id, ok := (*tab)[name]
	if !ok {
		return NoID
	}
	return id
}

// EventName returns the registered name of ev ("" for an invalid ID).
func (s *System) EventName(ev ID) string {
	if r := s.recLF(ev); r != nil {
		return r.name
	}
	return ""
}

// NumEvents reports how many events have been defined (including deleted
// ones, whose IDs are never reused).
func (s *System) NumEvents() int {
	tab := s.table.Load()
	if tab == nil {
		return 0
	}
	return len(*tab)
}

// EventIDs returns the IDs of all live (non-deleted) events.
func (s *System) EventIDs() []ID {
	tab := s.table.Load()
	if tab == nil {
		return nil
	}
	out := make([]ID, 0, len(*tab))
	for i, r := range *tab {
		if !r.snap.Load().deleted {
			out = append(out, ID(i))
		}
	}
	return out
}

// Delete removes an event from the registry. Subsequent raises of ev are
// errors; its ID is not reused. Deleting bumps the version so any
// super-handler covering ev is invalidated.
func (s *System) Delete(ev ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rec(ev)
	if r == nil {
		return ErrUnknownEvent
	}
	if r.deleted {
		return ErrDeletedEvent
	}
	r.deleted = true
	r.handlers = nil
	r.publish(true)
	delete(s.byName, r.name)
	s.publishNamesLocked()
	r.fast.Store(nil)
	if h := s.sched; h != nil {
		h.Sched(SchedPublish, int(r.dom.Load()), ev, r.ver.Load())
	}
	return nil
}

// rec returns the registry entry for ev, or nil. Caller holds s.mu.
func (s *System) rec(ev ID) *eventRec {
	if ev < 0 || int(ev) >= len(s.events) {
		return nil
	}
	return s.events[ev]
}

// Bind attaches a handler to an event. name identifies the handler in
// profiles and diagnostics. Handlers run in ascending WithOrder order,
// ties broken by bind sequence. Bind panics on an unknown or deleted
// event (programming error). The new handler list is published as a
// fresh snapshot; in-flight activations keep the view they loaded.
func (s *System) Bind(ev ID, name string, fn HandlerFunc, opts ...BindOption) Binding {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rec(ev)
	if r == nil || r.deleted {
		panic(fmt.Sprintf("event: Bind(%d, %q): %v", ev, name, ErrUnknownEvent))
	}
	s.bindSeq++
	b := &bound{name: name, fn: fn, seq: s.bindSeq}
	for _, opt := range opts {
		opt(b)
	}
	r.handlers = append(r.handlers, b)
	sort.SliceStable(r.handlers, func(i, j int) bool {
		if r.handlers[i].order != r.handlers[j].order {
			return r.handlers[i].order < r.handlers[j].order
		}
		return r.handlers[i].seq < r.handlers[j].seq
	})
	r.publish(true)
	if h := s.sched; h != nil {
		h.Sched(SchedPublish, int(r.dom.Load()), ev, r.ver.Load())
	}
	return Binding{ev: ev, seq: b.seq}
}

// Unbind removes a previously established binding. It returns
// ErrStaleBinding if the binding is no longer present.
func (s *System) Unbind(b Binding) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rec(b.ev)
	if r == nil {
		return ErrUnknownEvent
	}
	for i, h := range r.handlers {
		if h.seq == b.seq {
			r.handlers = append(r.handlers[:i], r.handlers[i+1:]...)
			r.publish(true)
			if hk := s.sched; hk != nil {
				hk.Sched(SchedPublish, int(r.dom.Load()), b.ev, r.ver.Load())
			}
			return nil
		}
	}
	return ErrStaleBinding
}

// Version returns the binding version of ev. The version changes whenever
// the set or order of handlers bound to ev changes, or the event is
// deleted; super-handler guards compare versions (paper section 3.3).
// The read is lock-free.
func (s *System) Version(ev ID) uint64 {
	if r := s.recLF(ev); r != nil {
		return r.ver.Load()
	}
	return ^uint64(0)
}

// HandlerCount reports the number of handlers currently bound to ev.
func (s *System) HandlerCount(ev ID) int {
	if r := s.recLF(ev); r != nil {
		return len(r.snap.Load().handlers)
	}
	return 0
}

// Handlers returns a read-only snapshot of the bindings of ev in execution
// order. The profiler and optimizer consume this view; callers must not
// mutate it (the slice is shared with the dispatch path).
func (s *System) Handlers(ev ID) []HandlerInfo {
	r := s.recLF(ev)
	if r == nil {
		return nil
	}
	return r.snap.Load().handlers
}
