// Package hirrt bridges HIR handler bodies to the event runtime: it
// adapts *hir.Function bodies into event.HandlerFunc values, converts
// between runtime argument values and hir.Value, and groups the shared
// execution context (global state, intrinsics, helper functions) of one
// component into a Module. Applications written against HIR get the same
// observable behavior whether their handlers run individually through the
// generic dispatcher or merged inside a super-handler.
package hirrt

import (
	"fmt"
	"sync"

	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hir/opt"
)

// ToValue converts a runtime argument value into an hir.Value. Unsupported
// types map to None, mirroring a failed argument lookup.
func ToValue(v any) hir.Value {
	switch x := v.(type) {
	case nil:
		return hir.None
	case int:
		return hir.IntVal(int64(x))
	case int64:
		return hir.IntVal(x)
	case bool:
		return hir.BoolVal(x)
	case string:
		return hir.StrVal(x)
	case []byte:
		return hir.BytesVal(x)
	case hir.Value:
		return x
	default:
		return hir.None
	}
}

// FromValue converts an hir.Value into a boxed runtime argument value.
func FromValue(v hir.Value) any { return ArgOf("", v).Value() }

// ArgOf converts an hir.Value into a named runtime argument without
// boxing it: ints travel as int64 words, bools as bool words, strings
// and byte slices as data pointer plus length. Readers that box
// (Args.Lookup) see the types FromValue produces.
func ArgOf(name string, v hir.Value) event.Arg {
	switch v.Kind {
	case hir.KInt:
		return event.Int64(name, v.I)
	case hir.KBool:
		return event.Bool(name, v.I != 0)
	case hir.KStr:
		return event.String(name, v.S)
	case hir.KBytes:
		return event.Bytes(name, v.B)
	default:
		return event.Arg{Name: name}
	}
}

// argValue converts a runtime argument into an hir.Value, reading an
// unboxed payload directly.
func argValue(p event.Arg) hir.Value {
	switch p.Kind() {
	case event.KindInt, event.KindInt64:
		return hir.IntVal(p.AsInt64())
	case event.KindBool:
		return hir.BoolVal(p.AsBool())
	case event.KindString:
		return hir.StrVal(p.AsString())
	case event.KindBytes:
		return hir.BytesVal(p.AsBytes())
	default:
		return ToValue(p.Val)
	}
}

// Module is the shared execution context of one event-based component
// whose handlers are written in HIR: its global state cells, its host
// intrinsics, its HIR helper functions, and the event system it runs on.
type Module struct {
	Sys     *event.System
	Globals *hir.State

	mu         sync.Mutex
	intrinsics map[string]*hir.IntrinsicSlot // empty slots: linked, not yet registered
	funcs      map[string]*hir.Function
}

// NewModule creates an empty module over sys.
func NewModule(sys *event.System) *Module {
	return &Module{
		Sys:        sys,
		Globals:    hir.NewState(),
		intrinsics: make(map[string]*hir.IntrinsicSlot),
		funcs:      make(map[string]*hir.Function),
	}
}

// slot returns the stable slot of a named intrinsic, creating an empty
// one if needed. The caller holds m.mu.
func (m *Module) slot(name string) *hir.IntrinsicSlot {
	s, ok := m.intrinsics[name]
	if !ok {
		s = new(hir.IntrinsicSlot)
		m.intrinsics[name] = s
	}
	return s
}

// RegisterIntrinsic exposes a host function to HIR code. Pure intrinsics
// are eligible for folding, CSE and DCE. Interpreted bodies linked
// before the registration find the intrinsic on their next call.
func (m *Module) RegisterIntrinsic(name string, pure bool, fn func(args []hir.Value) hir.Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slot(name).Store(hir.Intrinsic{Fn: fn, Pure: pure})
}

// RegisterFunc exposes an HIR helper function (OpCallFn target). Bodies
// link their helpers when they are bound, so register helpers first.
func (m *Module) RegisterFunc(fn *hir.Function) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.funcs[fn.Name] = fn
}

// WrapIntrinsic replaces a registered intrinsic with wrap(old), reporting
// whether the name existed. Interpreter-executed handlers (including
// fused bodies already installed) see the wrapper on their next call:
// their call sites are linked to the intrinsic's slot, which the wrap
// updates in place. Closure-compiled and generated bodies copy the
// intrinsic when they are built, so wrap before optimizing when those
// must be covered. The fault-injection harness uses this to interpose
// panic/error injection on intrinsic call sites.
func (m *Module) WrapIntrinsic(name string, wrap func(hir.Intrinsic) hir.Intrinsic) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.intrinsics[name]
	if !ok {
		return false
	}
	in, ok := s.Load()
	if !ok {
		return false
	}
	s.Store(wrap(in))
	return true
}

// OptInfo exposes the module's interprocedural facts to the optimizer.
func (m *Module) OptInfo() *opt.Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	info := &opt.Info{
		Intrinsics: make(map[string]hir.Intrinsic, len(m.intrinsics)),
		Funcs:      make(map[string]*hir.Function, len(m.funcs)),
	}
	for k, s := range m.intrinsics {
		if v, ok := s.Load(); ok {
			info.Intrinsics[k] = v
		}
	}
	for k, v := range m.funcs {
		info.Funcs[k] = v
	}
	return info
}

// Env builds a fresh HIR execution environment for one activation
// context. HandlerFunc builds a reusable variant; Env remains for tools
// and tests that execute bodies ad hoc.
func (m *Module) Env(ctx *event.Ctx) *hir.Env {
	env, bind := m.newEnv()
	bind(ctx)
	return env
}

// newEnv constructs an Env whose context can be switched cheaply between
// activations: the closures read the current *event.Ctx through an
// indirection cell instead of capturing one. The returned setter swaps
// the current context and returns the previous one, so reentrant
// activations nest correctly.
func (m *Module) newEnv() (*hir.Env, func(*event.Ctx) *event.Ctx) {
	var cur *event.Ctx
	var eargs []event.Arg // scratch argument record, reused across raises
	env := &hir.Env{
		Args: func(n string) (hir.Value, bool) {
			p, ok := cur.Args.Get(n)
			return argValue(p), ok
		},
		BindArgs: func(n string) (hir.Value, bool) {
			p, ok := cur.BindArgs.Get(n)
			return argValue(p), ok
		},
		Globals: m.Globals,
		LinkIntrinsic: func(name string) *hir.IntrinsicSlot {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.slot(name)
		},
		Funcs: m.funcs,
		LinkRaise: func(site hir.RaiseSite) func([]hir.Value) {
			id := m.Sys.Lookup(site.Event)
			return func(args []hir.Value) {
				if id == event.NoID {
					// Unknown events are ignored, like the runtime does;
					// one defined after linking is found from then on.
					if id = m.Sys.Lookup(site.Event); id == event.NoID {
						return
					}
				}
				// Every raise entry point marshals its arguments before
				// any handler runs (inline copy or clone, into the
				// context, activation or timer entry), so one scratch
				// record serves all raises from this environment,
				// including reentrant ones.
				eargs = eargs[:0]
				for i, v := range args {
					eargs = append(eargs, ArgOf(site.Names[i], v))
				}
				switch {
				case site.Delay > 0:
					cur.RaiseAfter(event.Duration(site.Delay), id, eargs...)
				case site.Async:
					cur.RaiseAsync(id, eargs...)
				default:
					cur.Raise(id, eargs...)
				}
			}
		},
		LinkGuard: func(name string, seg int) func() bool {
			id := m.Sys.Lookup(name)
			if id == event.NoID {
				return nil // not an event: no segment can match
			}
			return func() bool { return cur.SpliceLive(seg, id) }
		},
		Halt: func() { cur.Halt() },
	}
	return env, func(ctx *event.Ctx) *event.Ctx {
		old := cur
		cur = ctx
		return old
	}
}

// HandlerFunc adapts an HIR body into an event handler. The body is
// linked once, here, against the module: its state cells, intrinsic
// slots, helper functions and raise targets are resolved now rather than
// per activation (intrinsics stay late-bound through their slots, see
// WrapIntrinsic). The environment and the scratch of each nesting depth
// (register file plus call and raise argument area) are reused across
// activations (handler execution is serialized by the runtime's
// atomicity lock), so steady-state dispatch does not allocate.
// Execution errors (which indicate bugs in the handler code, such as
// division by zero) panic, matching how a native handler bug would
// surface.
func (m *Module) HandlerFunc(body *hir.Function) event.HandlerFunc {
	env, setCtx := m.newEnv()
	lk, err := hir.Link(body, env)
	if err != nil {
		return func(*event.Ctx) { panic(fmt.Sprintf("hirrt: handler %s: %v", body.Name, err)) }
	}
	var scratch [][]hir.Value // one scratch per live nesting depth
	depth := 0
	return func(ctx *event.Ctx) {
		d := depth
		depth++
		oldCtx := setCtx(ctx)
		// Restore under defer: a panic out of the body (an intrinsic bug,
		// or injected fault) must not leave the depth counter stuck or the
		// context cell pointing at a dead activation — the runtime's
		// supervision layer recovers such panics and keeps dispatching.
		defer func() {
			setCtx(oldCtx)
			depth = d
		}()
		if d == len(scratch) {
			// First activation at this depth: the reentrant scratch is
			// allocated once and reused by every later reentry.
			scratch = append(scratch, nil)
		}
		var err error
		_, scratch[d], err = lk.Exec(scratch[d])
		if err != nil {
			panic(fmt.Sprintf("hirrt: handler %s: %v", body.Name, err))
		}
	}
}

// CompiledHandlerFunc adapts an HIR body through the closure compiler
// (hir.Compile): intrinsics resolve at compile time and execution runs
// through direct closure calls instead of the interpreter's switch. Like
// HandlerFunc, the environment and register file are reused across
// activations. Compilation fails fast on unresolved intrinsics or
// helper functions.
func (m *Module) CompiledHandlerFunc(body *hir.Function) (event.HandlerFunc, error) {
	env, setCtx := m.newEnv()
	comp, err := hir.Compile(body, env)
	if err != nil {
		return nil, err
	}
	var scratch [][]hir.Value // one register file per live nesting depth
	depth := 0
	return func(ctx *event.Ctx) {
		d := depth
		depth++
		oldCtx := setCtx(ctx)
		defer func() { // panic-safe restore, as in HandlerFunc
			setCtx(oldCtx)
			depth = d
		}()
		if d == len(scratch) {
			scratch = append(scratch, nil)
		}
		var err error
		_, scratch[d], err = comp.Exec(scratch[d])
		if err != nil {
			panic(fmt.Sprintf("hirrt: compiled handler %s: %v", body.Name, err))
		}
	}, nil
}

// Bind attaches an HIR handler to an event, recording the IR body on the
// binding so the optimizer can merge and fuse it later.
func (m *Module) Bind(ev event.ID, name string, body *hir.Function, opts ...event.BindOption) event.Binding {
	opts = append(opts, event.WithIR(body))
	return m.Sys.Bind(ev, name, m.HandlerFunc(body), opts...)
}
