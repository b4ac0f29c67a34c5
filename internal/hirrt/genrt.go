package hirrt

import (
	"eventopt/internal/event"
	"eventopt/internal/hir"
)

// Intrinsic returns the registered intrinsic for name. Generated
// (evgen) super-handler factories resolve their intrinsics through
// this accessor once at install time; like closure-compiled bodies,
// generated code therefore does not observe later WrapIntrinsic calls.
func (m *Module) Intrinsic(name string) (hir.Intrinsic, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.intrinsics[name]; ok {
		return s.Load()
	}
	return hir.Intrinsic{}, false
}

// ArgValue reads a named activation argument as an HIR value (None when
// absent), the OpArg semantics of this module's environments.
func ArgValue(ctx *event.Ctx, name string) hir.Value {
	v, ok := ctx.Args.Lookup(name)
	if !ok {
		return hir.None
	}
	return ToValue(v)
}

// BindArgValue reads a named binding argument as an HIR value (None
// when absent), the OpBindArg semantics of this module's environments.
func BindArgValue(ctx *event.Ctx, name string) hir.Value {
	v, ok := ctx.BindArgs.Lookup(name)
	if !ok {
		return hir.None
	}
	return ToValue(v)
}
