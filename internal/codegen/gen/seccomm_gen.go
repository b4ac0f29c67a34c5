// Code generated by evgen (workload seccomm); DO NOT EDIT.
//
// Regenerate with: go generate ./internal/codegen/gen

package gen

import (
	"fmt"

	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
)

// SeccommSupers returns the generated super-handlers for the seccomm plan,
// ready for core.InstallGenerated.
func SeccommSupers() []core.GeneratedSuper {
	return []core.GeneratedSuper{
		{
			Entry: "msgFromUser",
			Chain: []string{"msgFromUser", "pushMsg", "msgToNet"},
			Segments: []core.GeneratedSegment{
				{Event: "msgFromUser", FusedName: "super_msgFromUser", Handlers: []string{"coord_push_stage", "coord_push_chain", "coord_push_out"}, Make: mkSeccomm0},
				{Event: "pushMsg", FusedName: "super_pushMsg", Handlers: []string{"des_encrypt", "xor_encrypt"}},
				{Event: "msgToNet", FusedName: "super_msgToNet", Handlers: []string{"net_out"}},
			},
		},
		{
			Entry: "pushMsg",
			Chain: []string{"pushMsg"},
			Segments: []core.GeneratedSegment{
				{Event: "pushMsg", FusedName: "super_pushMsg", Handlers: []string{"des_encrypt", "xor_encrypt"}, Make: mkSeccomm1},
			},
		},
		{
			Entry: "msgFromNet",
			Chain: []string{"msgFromNet", "popMsg", "msgToUser"},
			Segments: []core.GeneratedSegment{
				{Event: "msgFromNet", FusedName: "super_msgFromNet", Handlers: []string{"coord_pop_stage", "coord_pop_chain", "coord_pop_out"}, Make: mkSeccomm2},
				{Event: "popMsg", FusedName: "super_popMsg", Handlers: []string{"xor_decrypt", "des_decrypt"}},
				{Event: "msgToUser", FusedName: "super_msgToUser", Handlers: []string{"user_in"}},
			},
		},
		{
			Entry: "popMsg",
			Chain: []string{"popMsg"},
			Segments: []core.GeneratedSegment{
				{Event: "popMsg", FusedName: "super_popMsg", Handlers: []string{"xor_decrypt", "des_decrypt"}, Make: mkSeccomm3},
			},
		},
	}
}

// mkSeccomm0 builds super_msgFromUser, the generated fused body for event msgFromUser
// (10 instructions, 1 blocks).
func mkSeccomm0(m *hirrt.Module) (event.HandlerFunc, error) {
	in0, ok0 := m.Intrinsic("des_enc")
	if !ok0 {
		return nil, fmt.Errorf("evgen super_msgFromUser: missing intrinsic %q", "des_enc")
	}
	in1, ok1 := m.Intrinsic("xor_apply")
	if !ok1 {
		return nil, fmt.Errorf("evgen super_msgFromUser: missing intrinsic %q", "xor_apply")
	}
	in2, ok2 := m.Intrinsic("net_send")
	if !ok2 {
		return nil, fmt.Errorf("evgen super_msgFromUser: missing intrinsic %q", "net_send")
	}
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_msgFromUser: module has no global state")
	}
	st0 := m.Globals.CellRef("pushbuf")
	ca0 := make([]hir.Value, 1)
	ca1 := make([]hir.Value, 1)
	ca2 := make([]hir.Value, 1)
	return func(ctx *event.Ctx) {
		var r0, r1, r3, r5, r6, r7 hir.Value
		r0 = hirrt.ArgValue(ctx, "msg")
		st0.Set(r0)
		r1 = st0.Get()
		ca0[0] = r1
		r5 = in0.Fn(ca0)
		st0.Set(r5)
		r6 = st0.Get()
		ca1[0] = r6
		r7 = in1.Fn(ca1)
		st0.Set(r7)
		r3 = st0.Get()
		ca2[0] = r3
		in2.Fn(ca2)
		return
	}, nil
}

// mkSeccomm1 builds super_pushMsg, the generated fused body for event pushMsg
// (6 instructions, 1 blocks).
func mkSeccomm1(m *hirrt.Module) (event.HandlerFunc, error) {
	in0, ok0 := m.Intrinsic("des_enc")
	if !ok0 {
		return nil, fmt.Errorf("evgen super_pushMsg: missing intrinsic %q", "des_enc")
	}
	in1, ok1 := m.Intrinsic("xor_apply")
	if !ok1 {
		return nil, fmt.Errorf("evgen super_pushMsg: missing intrinsic %q", "xor_apply")
	}
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_pushMsg: module has no global state")
	}
	st0 := m.Globals.CellRef("pushbuf")
	ca0 := make([]hir.Value, 1)
	ca1 := make([]hir.Value, 1)
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3 hir.Value
		r0 = st0.Get()
		ca0[0] = r0
		r1 = in0.Fn(ca0)
		st0.Set(r1)
		r2 = st0.Get()
		ca1[0] = r2
		r3 = in1.Fn(ca1)
		st0.Set(r3)
		return
	}, nil
}

// mkSeccomm2 builds super_msgFromNet, the generated fused body for event msgFromNet
// (20 instructions, 7 blocks).
func mkSeccomm2(m *hirrt.Module) (event.HandlerFunc, error) {
	in0, ok0 := m.Intrinsic("xor_apply")
	if !ok0 {
		return nil, fmt.Errorf("evgen super_msgFromNet: missing intrinsic %q", "xor_apply")
	}
	in1, ok1 := m.Intrinsic("des_dec")
	if !ok1 {
		return nil, fmt.Errorf("evgen super_msgFromNet: missing intrinsic %q", "des_dec")
	}
	in2, ok2 := m.Intrinsic("deliver")
	if !ok2 {
		return nil, fmt.Errorf("evgen super_msgFromNet: missing intrinsic %q", "deliver")
	}
	in3, ok3 := m.Intrinsic("count_error")
	if !ok3 {
		return nil, fmt.Errorf("evgen super_msgFromNet: missing intrinsic %q", "count_error")
	}
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_msgFromNet: module has no global state")
	}
	st0 := m.Globals.CellRef("popbuf")
	st1 := m.Globals.CellRef("poperr")
	ev0 := m.Sys.Lookup("popError") // NoID raises are ignored, like the interpreted tier
	ca0 := make([]hir.Value, 1)
	ca1 := make([]hir.Value, 1)
	ca2 := make([]hir.Value, 1)
	ca3 := make([]hir.Value, 1)
	ra0 := make([]event.Arg, 1)
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r4, r5, r6, r8, r9, r10, r11, r12, r13 hir.Value
		r0 = hirrt.ArgValue(ctx, "msg")
		st0.Set(r0)
		r1 = hir.IntVal(0)
		st1.Set(r1)
		r2 = st0.Get()
		ca0[0] = r2
		r8 = in0.Fn(ca0)
		st0.Set(r8)
		r9 = st0.Get()
		ca1[0] = r9
		r10 = in1.Fn(ca1)
		r11 = hir.None
		r12 = hir.BoolVal(r10.Equal(r11))
		if r12.Bool() {
			goto b6
		}
		goto b5
	b1:
		r4 = st1.Get()
		if !r4.Bool() {
			goto b3
		}
		r5 = hir.IntVal(1)
		if ev0 != event.NoID {
			ra0[0] = hirrt.ArgOf("n", r5)
			ctx.RaiseAsync(ev0, ra0...)
		}
		goto b4
	b3:
		r6 = st0.Get()
		ca2[0] = r6
		in2.Fn(ca2)
	b4:
		return
	b5:
		st0.Set(r10)
		goto b1
	b6:
		r13 = hir.IntVal(1)
		st1.Set(r13)
		ca3[0] = r13
		in3.Fn(ca3)
		goto b1
	}, nil
}

// mkSeccomm3 builds super_popMsg, the generated fused body for event popMsg
// (11 instructions, 4 blocks).
func mkSeccomm3(m *hirrt.Module) (event.HandlerFunc, error) {
	in0, ok0 := m.Intrinsic("xor_apply")
	if !ok0 {
		return nil, fmt.Errorf("evgen super_popMsg: missing intrinsic %q", "xor_apply")
	}
	in1, ok1 := m.Intrinsic("des_dec")
	if !ok1 {
		return nil, fmt.Errorf("evgen super_popMsg: missing intrinsic %q", "des_dec")
	}
	in2, ok2 := m.Intrinsic("count_error")
	if !ok2 {
		return nil, fmt.Errorf("evgen super_popMsg: missing intrinsic %q", "count_error")
	}
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_popMsg: module has no global state")
	}
	st0 := m.Globals.CellRef("popbuf")
	st1 := m.Globals.CellRef("poperr")
	ca0 := make([]hir.Value, 1)
	ca1 := make([]hir.Value, 1)
	ca2 := make([]hir.Value, 1)
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6 hir.Value
		r0 = st0.Get()
		ca0[0] = r0
		r1 = in0.Fn(ca0)
		st0.Set(r1)
		r2 = st0.Get()
		ca1[0] = r2
		r3 = in1.Fn(ca1)
		r4 = hir.None
		r5 = hir.BoolVal(r3.Equal(r4))
		if r5.Bool() {
			goto b2
		}
		st0.Set(r3)
		goto b3
	b2:
		r6 = hir.IntVal(1)
		st1.Set(r6)
		ca2[0] = r6
		in2.Fn(ca2)
	b3:
		return
	}, nil
}
