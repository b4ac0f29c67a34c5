// Code generated by evgen (workload videoplayer); DO NOT EDIT.
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

// VideoplayerSupers returns the generated super-handlers for the videoplayer plan,
// ready for core.InstallGenerated.
func VideoplayerSupers() []core.GeneratedSuper {
	return []core.GeneratedSuper{
		{
			Entry:       "Controller",
			Chain:       []string{"Controller", "ControllerFiring", "ControllerFired", "Adapt"},
			Partitioned: true,
			Segments: []core.GeneratedSegment{
				{Event: "Controller", FusedName: "super_Controller", Handlers: []string{"ctl_fire"}, Make: mkVideoplayer0},
				{Event: "ControllerFiring", FusedName: "super_ControllerFiring", Handlers: []string{"ctl_compute"}, Make: mkVideoplayer1},
				{Event: "ControllerFired", FusedName: "super_ControllerFired", Handlers: []string{"ctl_done"}, Make: mkVideoplayer2},
				{Event: "Adapt", FusedName: "super_Adapt", Handlers: []string{"adapt_window", "adapt_rate"}, Make: mkVideoplayer3},
			},
		},
		{
			Entry:       "ControllerFiring",
			Chain:       []string{"ControllerFiring", "ControllerFired", "Adapt"},
			Partitioned: true,
			Segments: []core.GeneratedSegment{
				{Event: "ControllerFiring", FusedName: "super_ControllerFiring", Handlers: []string{"ctl_compute"}, Make: mkVideoplayer4},
				{Event: "ControllerFired", FusedName: "super_ControllerFired", Handlers: []string{"ctl_done"}, Make: mkVideoplayer5},
				{Event: "Adapt", FusedName: "super_Adapt", Handlers: []string{"adapt_window", "adapt_rate"}, Make: mkVideoplayer6},
			},
		},
		{
			Entry:       "ControllerFired",
			Chain:       []string{"ControllerFired", "Adapt"},
			Partitioned: true,
			Segments: []core.GeneratedSegment{
				{Event: "ControllerFired", FusedName: "super_ControllerFired", Handlers: []string{"ctl_done"}, Make: mkVideoplayer7},
				{Event: "Adapt", FusedName: "super_Adapt", Handlers: []string{"adapt_window", "adapt_rate"}, Make: mkVideoplayer8},
			},
		},
		{
			Entry:       "Adapt",
			Chain:       []string{"Adapt"},
			Partitioned: true,
			Segments: []core.GeneratedSegment{
				{Event: "Adapt", FusedName: "super_Adapt", Handlers: []string{"adapt_window", "adapt_rate"}, Make: mkVideoplayer9},
			},
		},
		{
			Entry:       "Seg2Net",
			Chain:       []string{"Seg2Net"},
			Partitioned: true,
			Segments: []core.GeneratedSegment{
				{Event: "Seg2Net", FusedName: "super_Seg2Net", Handlers: []string{"PAU-S2N", "WFC-S2N", "FEC-S2N", "TD-S2N"}, Make: mkVideoplayer10},
			},
		},
		{
			Entry:       "SegmentAcked",
			Chain:       []string{"SegmentAcked"},
			Partitioned: true,
			Segments: []core.GeneratedSegment{
				{Event: "SegmentAcked", Handlers: []string{"rtx_ack", "wfc_ack"}},
			},
		},
		{
			Entry:       "ControllerClkH",
			Chain:       []string{"ControllerClkH", "Controller", "ControllerFiring", "ControllerFired", "Adapt"},
			Partitioned: true,
			Segments: []core.GeneratedSegment{
				{Event: "ControllerClkH", FusedName: "super_ControllerClkH", Handlers: []string{"clk_h"}, Make: mkVideoplayer11},
				{Event: "Controller", FusedName: "super_Controller", Handlers: []string{"ctl_fire"}, Make: mkVideoplayer12},
				{Event: "ControllerFiring", FusedName: "super_ControllerFiring", Handlers: []string{"ctl_compute"}, Make: mkVideoplayer13},
				{Event: "ControllerFired", FusedName: "super_ControllerFired", Handlers: []string{"ctl_done"}, Make: mkVideoplayer14},
				{Event: "Adapt", FusedName: "super_Adapt", Handlers: []string{"adapt_window", "adapt_rate"}, Make: mkVideoplayer15},
			},
		},
		{
			Entry:       "ControllerClkL",
			Chain:       []string{"ControllerClkL", "Controller", "ControllerFiring", "ControllerFired", "Adapt"},
			Partitioned: true,
			Segments: []core.GeneratedSegment{
				{Event: "ControllerClkL", FusedName: "super_ControllerClkL", Handlers: []string{"clk_l"}, Make: mkVideoplayer16},
				{Event: "Controller", FusedName: "super_Controller", Handlers: []string{"ctl_fire"}, Make: mkVideoplayer17},
				{Event: "ControllerFiring", FusedName: "super_ControllerFiring", Handlers: []string{"ctl_compute"}, Make: mkVideoplayer18},
				{Event: "ControllerFired", FusedName: "super_ControllerFired", Handlers: []string{"ctl_done"}, Make: mkVideoplayer19},
				{Event: "Adapt", FusedName: "super_Adapt", Handlers: []string{"adapt_window", "adapt_rate"}, Make: mkVideoplayer20},
			},
		},
		{
			Entry:       "SegFromUser",
			Chain:       []string{"SegFromUser", "Seg2Net"},
			Partitioned: true,
			Segments: []core.GeneratedSegment{
				{Event: "SegFromUser", FusedName: "super_SegFromUser", Handlers: []string{"FEC-SFU1", "SeqSeg-SFU", "TDriver-SFU", "FEC-SFU2"}, Make: mkVideoplayer21},
				{Event: "Seg2Net", FusedName: "super_Seg2Net", Handlers: []string{"PAU-S2N", "WFC-S2N", "FEC-S2N", "TD-S2N"}, Make: mkVideoplayer22},
			},
		},
		{
			Entry:       "MsgFromUserL",
			Chain:       []string{"MsgFromUserL", "SegFromUser", "Seg2Net"},
			Partitioned: true,
			Segments: []core.GeneratedSegment{
				{Event: "MsgFromUserL", Handlers: []string{"userin_count", "frag"}},
				{Event: "SegFromUser", FusedName: "super_SegFromUser", Handlers: []string{"FEC-SFU1", "SeqSeg-SFU", "TDriver-SFU", "FEC-SFU2"}, Make: mkVideoplayer23},
				{Event: "Seg2Net", FusedName: "super_Seg2Net", Handlers: []string{"PAU-S2N", "WFC-S2N", "FEC-S2N", "TD-S2N"}, Make: mkVideoplayer24},
			},
		},
	}
}

// mkVideoplayer0 builds super_Controller, the generated fused body for event Controller
// (5 instructions, 1 blocks).
func mkVideoplayer0(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Controller: module has no global state")
	}
	st0 := m.Globals.CellRef("firings")
	ev0 := m.Sys.Lookup("ControllerFiring") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2 hir.Value
		r0 = st0.Get()
		r1 = hir.IntVal(1)
		r2 = hir.AddValues(r0, r1)
		st0.Set(r2)
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer1 builds super_ControllerFiring, the generated fused body for event ControllerFiring
// (7 instructions, 1 blocks).
func mkVideoplayer1(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_ControllerFiring: module has no global state")
	}
	st0 := m.Globals.CellRef("acked")
	st1 := m.Globals.CellRef("deferred")
	st2 := m.Globals.CellRef("ctlval")
	ev0 := m.Sys.Lookup("ControllerFired") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4 hir.Value
		r0 = st0.Get()
		r1 = st1.Get()
		r2 = hir.IntVal(4)
		r3 = hir.IntVal(r1.Int() * r2.Int())
		r4 = hir.IntVal(r0.Int() - r3.Int())
		st2.Set(r4)
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer2 builds super_ControllerFired, the generated fused body for event ControllerFired
// (1 instructions, 1 blocks).
func mkVideoplayer2(m *hirrt.Module) (event.HandlerFunc, error) {
	ev0 := m.Sys.Lookup("Adapt") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer3 builds super_Adapt, the generated fused body for event Adapt
// (32 instructions, 10 blocks).
func mkVideoplayer3(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Adapt: module has no global state")
	}
	st0 := m.Globals.CellRef("deferred")
	st1 := m.Globals.CellRef("window")
	st2 := m.Globals.CellRef("adapts")
	st3 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("ResizeFragment") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r24 hir.Value
		r0 = st0.Get()
		r1 = hir.IntVal(0)
		r2 = hir.BoolVal(r0.Int() > r1.Int())
		if !r2.Bool() {
			goto b2
		}
		r3 = st1.Get()
		r4 = hir.IntVal(2)
		r5 = hir.DivValues(r3, r4)
		r6 = hir.IntVal(4)
		r7 = hir.BoolVal(r5.Int() < r6.Int())
		if r7.Bool() {
			goto b4
		}
		goto b5
	b2:
		r9 = st1.Get()
		r10 = hir.IntVal(1)
		r11 = hir.AddValues(r9, r10)
		r12 = hir.IntVal(64)
		r13 = hir.BoolVal(r11.Int() > r12.Int())
		if r13.Bool() {
			goto b6
		}
		goto b7
	b3:
		r15 = hir.IntVal(0)
		st0.Set(r15)
		r16 = st2.Get()
		r17 = hir.IntVal(1)
		r18 = hir.AddValues(r16, r17)
		st2.Set(r18)
		r19 = st3.Get()
		r20 = hir.AddValues(r19, r17)
		r21 = hir.IntVal(7)
		r22 = hir.IntVal(r20.Int() & r21.Int())
		r24 = hir.BoolVal(r22.Equal(r15))
		if r24.Bool() {
			goto b8
		}
		goto b9
	b4:
		r8 = hir.IntVal(4)
		st1.Set(r8)
		goto b3
	b5:
		st1.Set(r5)
		goto b3
	b6:
		r14 = hir.IntVal(64)
		st1.Set(r14)
		goto b3
	b7:
		st1.Set(r11)
		goto b3
	b8:
		if ev0 != event.NoID {
			ctx.RaiseAsync(ev0)
		}
	b9:
		st3.Set(r20)
		return
	}, nil
}

// mkVideoplayer4 builds super_ControllerFiring, the generated fused body for event ControllerFiring
// (7 instructions, 1 blocks).
func mkVideoplayer4(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_ControllerFiring: module has no global state")
	}
	st0 := m.Globals.CellRef("acked")
	st1 := m.Globals.CellRef("deferred")
	st2 := m.Globals.CellRef("ctlval")
	ev0 := m.Sys.Lookup("ControllerFired") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4 hir.Value
		r0 = st0.Get()
		r1 = st1.Get()
		r2 = hir.IntVal(4)
		r3 = hir.IntVal(r1.Int() * r2.Int())
		r4 = hir.IntVal(r0.Int() - r3.Int())
		st2.Set(r4)
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer5 builds super_ControllerFired, the generated fused body for event ControllerFired
// (1 instructions, 1 blocks).
func mkVideoplayer5(m *hirrt.Module) (event.HandlerFunc, error) {
	ev0 := m.Sys.Lookup("Adapt") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer6 builds super_Adapt, the generated fused body for event Adapt
// (32 instructions, 10 blocks).
func mkVideoplayer6(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Adapt: module has no global state")
	}
	st0 := m.Globals.CellRef("deferred")
	st1 := m.Globals.CellRef("window")
	st2 := m.Globals.CellRef("adapts")
	st3 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("ResizeFragment") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r24 hir.Value
		r0 = st0.Get()
		r1 = hir.IntVal(0)
		r2 = hir.BoolVal(r0.Int() > r1.Int())
		if !r2.Bool() {
			goto b2
		}
		r3 = st1.Get()
		r4 = hir.IntVal(2)
		r5 = hir.DivValues(r3, r4)
		r6 = hir.IntVal(4)
		r7 = hir.BoolVal(r5.Int() < r6.Int())
		if r7.Bool() {
			goto b4
		}
		goto b5
	b2:
		r9 = st1.Get()
		r10 = hir.IntVal(1)
		r11 = hir.AddValues(r9, r10)
		r12 = hir.IntVal(64)
		r13 = hir.BoolVal(r11.Int() > r12.Int())
		if r13.Bool() {
			goto b6
		}
		goto b7
	b3:
		r15 = hir.IntVal(0)
		st0.Set(r15)
		r16 = st2.Get()
		r17 = hir.IntVal(1)
		r18 = hir.AddValues(r16, r17)
		st2.Set(r18)
		r19 = st3.Get()
		r20 = hir.AddValues(r19, r17)
		r21 = hir.IntVal(7)
		r22 = hir.IntVal(r20.Int() & r21.Int())
		r24 = hir.BoolVal(r22.Equal(r15))
		if r24.Bool() {
			goto b8
		}
		goto b9
	b4:
		r8 = hir.IntVal(4)
		st1.Set(r8)
		goto b3
	b5:
		st1.Set(r5)
		goto b3
	b6:
		r14 = hir.IntVal(64)
		st1.Set(r14)
		goto b3
	b7:
		st1.Set(r11)
		goto b3
	b8:
		if ev0 != event.NoID {
			ctx.RaiseAsync(ev0)
		}
	b9:
		st3.Set(r20)
		return
	}, nil
}

// mkVideoplayer7 builds super_ControllerFired, the generated fused body for event ControllerFired
// (1 instructions, 1 blocks).
func mkVideoplayer7(m *hirrt.Module) (event.HandlerFunc, error) {
	ev0 := m.Sys.Lookup("Adapt") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer8 builds super_Adapt, the generated fused body for event Adapt
// (32 instructions, 10 blocks).
func mkVideoplayer8(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Adapt: module has no global state")
	}
	st0 := m.Globals.CellRef("deferred")
	st1 := m.Globals.CellRef("window")
	st2 := m.Globals.CellRef("adapts")
	st3 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("ResizeFragment") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r24 hir.Value
		r0 = st0.Get()
		r1 = hir.IntVal(0)
		r2 = hir.BoolVal(r0.Int() > r1.Int())
		if !r2.Bool() {
			goto b2
		}
		r3 = st1.Get()
		r4 = hir.IntVal(2)
		r5 = hir.DivValues(r3, r4)
		r6 = hir.IntVal(4)
		r7 = hir.BoolVal(r5.Int() < r6.Int())
		if r7.Bool() {
			goto b4
		}
		goto b5
	b2:
		r9 = st1.Get()
		r10 = hir.IntVal(1)
		r11 = hir.AddValues(r9, r10)
		r12 = hir.IntVal(64)
		r13 = hir.BoolVal(r11.Int() > r12.Int())
		if r13.Bool() {
			goto b6
		}
		goto b7
	b3:
		r15 = hir.IntVal(0)
		st0.Set(r15)
		r16 = st2.Get()
		r17 = hir.IntVal(1)
		r18 = hir.AddValues(r16, r17)
		st2.Set(r18)
		r19 = st3.Get()
		r20 = hir.AddValues(r19, r17)
		r21 = hir.IntVal(7)
		r22 = hir.IntVal(r20.Int() & r21.Int())
		r24 = hir.BoolVal(r22.Equal(r15))
		if r24.Bool() {
			goto b8
		}
		goto b9
	b4:
		r8 = hir.IntVal(4)
		st1.Set(r8)
		goto b3
	b5:
		st1.Set(r5)
		goto b3
	b6:
		r14 = hir.IntVal(64)
		st1.Set(r14)
		goto b3
	b7:
		st1.Set(r11)
		goto b3
	b8:
		if ev0 != event.NoID {
			ctx.RaiseAsync(ev0)
		}
	b9:
		st3.Set(r20)
		return
	}, nil
}

// mkVideoplayer9 builds super_Adapt, the generated fused body for event Adapt
// (32 instructions, 10 blocks).
func mkVideoplayer9(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Adapt: module has no global state")
	}
	st0 := m.Globals.CellRef("deferred")
	st1 := m.Globals.CellRef("window")
	st2 := m.Globals.CellRef("adapts")
	st3 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("ResizeFragment") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r24 hir.Value
		r0 = st0.Get()
		r1 = hir.IntVal(0)
		r2 = hir.BoolVal(r0.Int() > r1.Int())
		if !r2.Bool() {
			goto b2
		}
		r3 = st1.Get()
		r4 = hir.IntVal(2)
		r5 = hir.DivValues(r3, r4)
		r6 = hir.IntVal(4)
		r7 = hir.BoolVal(r5.Int() < r6.Int())
		if r7.Bool() {
			goto b4
		}
		goto b5
	b2:
		r9 = st1.Get()
		r10 = hir.IntVal(1)
		r11 = hir.AddValues(r9, r10)
		r12 = hir.IntVal(64)
		r13 = hir.BoolVal(r11.Int() > r12.Int())
		if r13.Bool() {
			goto b6
		}
		goto b7
	b3:
		r15 = hir.IntVal(0)
		st0.Set(r15)
		r16 = st2.Get()
		r17 = hir.IntVal(1)
		r18 = hir.AddValues(r16, r17)
		st2.Set(r18)
		r19 = st3.Get()
		r20 = hir.AddValues(r19, r17)
		r21 = hir.IntVal(7)
		r22 = hir.IntVal(r20.Int() & r21.Int())
		r24 = hir.BoolVal(r22.Equal(r15))
		if r24.Bool() {
			goto b8
		}
		goto b9
	b4:
		r8 = hir.IntVal(4)
		st1.Set(r8)
		goto b3
	b5:
		st1.Set(r5)
		goto b3
	b6:
		r14 = hir.IntVal(64)
		st1.Set(r14)
		goto b3
	b7:
		st1.Set(r11)
		goto b3
	b8:
		if ev0 != event.NoID {
			ctx.RaiseAsync(ev0)
		}
	b9:
		st3.Set(r20)
		return
	}, nil
}

// mkVideoplayer10 builds super_Seg2Net, the generated fused body for event Seg2Net
// (29 instructions, 4 blocks).
func mkVideoplayer10(m *hirrt.Module) (event.HandlerFunc, error) {
	in0, ok0 := m.Intrinsic("count_defer")
	if !ok0 {
		return nil, fmt.Errorf("evgen super_Seg2Net: missing intrinsic %q", "count_defer")
	}
	in1, ok1 := m.Intrinsic("link_send")
	if !ok1 {
		return nil, fmt.Errorf("evgen super_Seg2Net: missing intrinsic %q", "link_send")
	}
	in2, ok2 := m.Intrinsic("sched_rto")
	if !ok2 {
		return nil, fmt.Errorf("evgen super_Seg2Net: missing intrinsic %q", "sched_rto")
	}
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Seg2Net: module has no global state")
	}
	st0 := m.Globals.CellRef("bytesout")
	st1 := m.Globals.CellRef("inflight")
	st2 := m.Globals.CellRef("window")
	st3 := m.Globals.CellRef("deferred")
	st4 := m.Globals.CellRef("fecout")
	ev0 := m.Sys.Lookup("SegmentSent") // NoID raises are ignored, like the interpreted tier
	ca0 := make([]hir.Value, 1)
	ca1 := make([]hir.Value, 3)
	ca2 := make([]hir.Value, 3)
	ra0 := make([]event.Arg, 1)
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r13, r14, r15, r16, r17, r18, r19, r21, r22 hir.Value
		r0 = hirrt.ArgValue(ctx, "seg")
		r1 = hir.LenValue(r0)
		r2 = hir.IntVal(28)
		r3 = hir.AddValues(r1, r2)
		r4 = st0.Get()
		r5 = hir.AddValues(r4, r3)
		st0.Set(r5)
		r6 = st1.Get()
		r7 = st2.Get()
		r8 = hir.BoolVal(r6.Int() >= r7.Int())
		if !r8.Bool() {
			goto b2
		}
		r9 = st3.Get()
		r10 = hir.IntVal(1)
		r11 = hir.AddValues(r9, r10)
		st3.Set(r11)
		ca0[0] = r10
		in0.Fn(ca0)
		goto b3
	b2:
		r13 = hir.IntVal(1)
		r14 = hir.AddValues(r6, r13)
		st1.Set(r14)
		r15 = hirrt.ArgValue(ctx, "fec")
		r16 = st4.Get()
		r17 = hir.AddValues(r16, r15)
		st4.Set(r17)
		r18 = hirrt.ArgValue(ctx, "seg")
		r19 = hirrt.ArgValue(ctx, "seq")
		r21 = hir.IntVal(0)
		r22 = hir.BoolVal(!r15.Equal(r21))
		ca1[0] = r19
		ca1[1] = r18
		ca1[2] = r22
		in1.Fn(ca1)
		ca2[0] = r19
		ca2[1] = r18
		ca2[2] = r22
		in2.Fn(ca2)
		if ev0 != event.NoID {
			ra0[0] = hirrt.ArgOf("seq", r19)
			ctx.RaiseAsync(ev0, ra0...)
		}
	b3:
		return
	}, nil
}

// mkVideoplayer11 builds super_ControllerClkH, the generated fused body for event ControllerClkH
// (2 instructions, 1 blocks).
func mkVideoplayer11(m *hirrt.Module) (event.HandlerFunc, error) {
	ev0 := m.Sys.Lookup("Controller")     // NoID raises are ignored, like the interpreted tier
	ev1 := m.Sys.Lookup("ControllerClkL") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		if ev1 != event.NoID {
			ctx.RaiseAfter(20000000, ev1)
		}
		return
	}, nil
}

// mkVideoplayer12 builds super_Controller, the generated fused body for event Controller
// (5 instructions, 1 blocks).
func mkVideoplayer12(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Controller: module has no global state")
	}
	st0 := m.Globals.CellRef("firings")
	ev0 := m.Sys.Lookup("ControllerFiring") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2 hir.Value
		r0 = st0.Get()
		r1 = hir.IntVal(1)
		r2 = hir.AddValues(r0, r1)
		st0.Set(r2)
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer13 builds super_ControllerFiring, the generated fused body for event ControllerFiring
// (7 instructions, 1 blocks).
func mkVideoplayer13(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_ControllerFiring: module has no global state")
	}
	st0 := m.Globals.CellRef("acked")
	st1 := m.Globals.CellRef("deferred")
	st2 := m.Globals.CellRef("ctlval")
	ev0 := m.Sys.Lookup("ControllerFired") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4 hir.Value
		r0 = st0.Get()
		r1 = st1.Get()
		r2 = hir.IntVal(4)
		r3 = hir.IntVal(r1.Int() * r2.Int())
		r4 = hir.IntVal(r0.Int() - r3.Int())
		st2.Set(r4)
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer14 builds super_ControllerFired, the generated fused body for event ControllerFired
// (1 instructions, 1 blocks).
func mkVideoplayer14(m *hirrt.Module) (event.HandlerFunc, error) {
	ev0 := m.Sys.Lookup("Adapt") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer15 builds super_Adapt, the generated fused body for event Adapt
// (32 instructions, 10 blocks).
func mkVideoplayer15(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Adapt: module has no global state")
	}
	st0 := m.Globals.CellRef("deferred")
	st1 := m.Globals.CellRef("window")
	st2 := m.Globals.CellRef("adapts")
	st3 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("ResizeFragment") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r24 hir.Value
		r0 = st0.Get()
		r1 = hir.IntVal(0)
		r2 = hir.BoolVal(r0.Int() > r1.Int())
		if !r2.Bool() {
			goto b2
		}
		r3 = st1.Get()
		r4 = hir.IntVal(2)
		r5 = hir.DivValues(r3, r4)
		r6 = hir.IntVal(4)
		r7 = hir.BoolVal(r5.Int() < r6.Int())
		if r7.Bool() {
			goto b4
		}
		goto b5
	b2:
		r9 = st1.Get()
		r10 = hir.IntVal(1)
		r11 = hir.AddValues(r9, r10)
		r12 = hir.IntVal(64)
		r13 = hir.BoolVal(r11.Int() > r12.Int())
		if r13.Bool() {
			goto b6
		}
		goto b7
	b3:
		r15 = hir.IntVal(0)
		st0.Set(r15)
		r16 = st2.Get()
		r17 = hir.IntVal(1)
		r18 = hir.AddValues(r16, r17)
		st2.Set(r18)
		r19 = st3.Get()
		r20 = hir.AddValues(r19, r17)
		r21 = hir.IntVal(7)
		r22 = hir.IntVal(r20.Int() & r21.Int())
		r24 = hir.BoolVal(r22.Equal(r15))
		if r24.Bool() {
			goto b8
		}
		goto b9
	b4:
		r8 = hir.IntVal(4)
		st1.Set(r8)
		goto b3
	b5:
		st1.Set(r5)
		goto b3
	b6:
		r14 = hir.IntVal(64)
		st1.Set(r14)
		goto b3
	b7:
		st1.Set(r11)
		goto b3
	b8:
		if ev0 != event.NoID {
			ctx.RaiseAsync(ev0)
		}
	b9:
		st3.Set(r20)
		return
	}, nil
}

// mkVideoplayer16 builds super_ControllerClkL, the generated fused body for event ControllerClkL
// (2 instructions, 1 blocks).
func mkVideoplayer16(m *hirrt.Module) (event.HandlerFunc, error) {
	ev0 := m.Sys.Lookup("Controller")     // NoID raises are ignored, like the interpreted tier
	ev1 := m.Sys.Lookup("ControllerClkH") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		if ev1 != event.NoID {
			ctx.RaiseAfter(20000000, ev1)
		}
		return
	}, nil
}

// mkVideoplayer17 builds super_Controller, the generated fused body for event Controller
// (5 instructions, 1 blocks).
func mkVideoplayer17(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Controller: module has no global state")
	}
	st0 := m.Globals.CellRef("firings")
	ev0 := m.Sys.Lookup("ControllerFiring") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2 hir.Value
		r0 = st0.Get()
		r1 = hir.IntVal(1)
		r2 = hir.AddValues(r0, r1)
		st0.Set(r2)
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer18 builds super_ControllerFiring, the generated fused body for event ControllerFiring
// (7 instructions, 1 blocks).
func mkVideoplayer18(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_ControllerFiring: module has no global state")
	}
	st0 := m.Globals.CellRef("acked")
	st1 := m.Globals.CellRef("deferred")
	st2 := m.Globals.CellRef("ctlval")
	ev0 := m.Sys.Lookup("ControllerFired") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4 hir.Value
		r0 = st0.Get()
		r1 = st1.Get()
		r2 = hir.IntVal(4)
		r3 = hir.IntVal(r1.Int() * r2.Int())
		r4 = hir.IntVal(r0.Int() - r3.Int())
		st2.Set(r4)
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer19 builds super_ControllerFired, the generated fused body for event ControllerFired
// (1 instructions, 1 blocks).
func mkVideoplayer19(m *hirrt.Module) (event.HandlerFunc, error) {
	ev0 := m.Sys.Lookup("Adapt") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		return
	}, nil
}

// mkVideoplayer20 builds super_Adapt, the generated fused body for event Adapt
// (32 instructions, 10 blocks).
func mkVideoplayer20(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Adapt: module has no global state")
	}
	st0 := m.Globals.CellRef("deferred")
	st1 := m.Globals.CellRef("window")
	st2 := m.Globals.CellRef("adapts")
	st3 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("ResizeFragment") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r24 hir.Value
		r0 = st0.Get()
		r1 = hir.IntVal(0)
		r2 = hir.BoolVal(r0.Int() > r1.Int())
		if !r2.Bool() {
			goto b2
		}
		r3 = st1.Get()
		r4 = hir.IntVal(2)
		r5 = hir.DivValues(r3, r4)
		r6 = hir.IntVal(4)
		r7 = hir.BoolVal(r5.Int() < r6.Int())
		if r7.Bool() {
			goto b4
		}
		goto b5
	b2:
		r9 = st1.Get()
		r10 = hir.IntVal(1)
		r11 = hir.AddValues(r9, r10)
		r12 = hir.IntVal(64)
		r13 = hir.BoolVal(r11.Int() > r12.Int())
		if r13.Bool() {
			goto b6
		}
		goto b7
	b3:
		r15 = hir.IntVal(0)
		st0.Set(r15)
		r16 = st2.Get()
		r17 = hir.IntVal(1)
		r18 = hir.AddValues(r16, r17)
		st2.Set(r18)
		r19 = st3.Get()
		r20 = hir.AddValues(r19, r17)
		r21 = hir.IntVal(7)
		r22 = hir.IntVal(r20.Int() & r21.Int())
		r24 = hir.BoolVal(r22.Equal(r15))
		if r24.Bool() {
			goto b8
		}
		goto b9
	b4:
		r8 = hir.IntVal(4)
		st1.Set(r8)
		goto b3
	b5:
		st1.Set(r5)
		goto b3
	b6:
		r14 = hir.IntVal(64)
		st1.Set(r14)
		goto b3
	b7:
		st1.Set(r11)
		goto b3
	b8:
		if ev0 != event.NoID {
			ctx.RaiseAsync(ev0)
		}
	b9:
		st3.Set(r20)
		return
	}, nil
}

// mkVideoplayer21 builds super_SegFromUser, the generated fused body for event SegFromUser
// (26 instructions, 4 blocks).
func mkVideoplayer21(m *hirrt.Module) (event.HandlerFunc, error) {
	in0, ok0 := m.Intrinsic("xor_bytes")
	if !ok0 {
		return nil, fmt.Errorf("evgen super_SegFromUser: missing intrinsic %q", "xor_bytes")
	}
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_SegFromUser: module has no global state")
	}
	st0 := m.Globals.CellRef("parity")
	st1 := m.Globals.CellRef("seq")
	st2 := m.Globals.CellRef("feccount")
	ev0 := m.Sys.Lookup("Seg2Net") // NoID raises are ignored, like the interpreted tier
	ca0 := make([]hir.Value, 2)
	ra0 := make([]event.Arg, 3)
	ra1 := make([]event.Arg, 3)
	kc0 := hir.BytesVal([]byte{})
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r7, r8, r9, r11, r12, r13, r14, r15, r16, r17, r19, r20 hir.Value
		r0 = hirrt.ArgValue(ctx, "seg")
		r1 = st0.Get()
		ca0[0] = r1
		ca0[1] = r0
		r2 = in0.Fn(ca0)
		st0.Set(r2)
		r3 = st1.Get()
		r4 = hir.IntVal(1)
		r5 = hir.AddValues(r3, r4)
		st1.Set(r5)
		r7 = st1.Get()
		r8 = hir.IntVal(0)
		if ev0 != event.NoID {
			ra0[0] = hirrt.ArgOf("seg", r0)
			ra0[1] = hirrt.ArgOf("seq", r7)
			ra0[2] = hirrt.ArgOf("fec", r8)
			ctx.Raise(ev0, ra0...)
		}
		r9 = st2.Get()
		r11 = hir.AddValues(r9, r4)
		r12 = hir.IntVal(8)
		r13 = hir.BoolVal(r11.Int() >= r12.Int())
		if !r13.Bool() {
			goto b2
		}
		r14 = st0.Get()
		r15 = st1.Get()
		r16 = hir.IntVal(1)
		r17 = hir.AddValues(r15, r16)
		st1.Set(r17)
		if ev0 != event.NoID {
			ra1[0] = hirrt.ArgOf("seg", r14)
			ra1[1] = hirrt.ArgOf("seq", r17)
			ra1[2] = hirrt.ArgOf("fec", r16)
			ctx.Raise(ev0, ra1...)
		}
		r19 = hir.IntVal(0)
		st2.Set(r19)
		r20 = kc0
		st0.Set(r20)
		goto b3
	b2:
		st2.Set(r11)
	b3:
		return
	}, nil
}

// mkVideoplayer22 builds super_Seg2Net, the generated fused body for event Seg2Net
// (29 instructions, 4 blocks).
func mkVideoplayer22(m *hirrt.Module) (event.HandlerFunc, error) {
	in0, ok0 := m.Intrinsic("count_defer")
	if !ok0 {
		return nil, fmt.Errorf("evgen super_Seg2Net: missing intrinsic %q", "count_defer")
	}
	in1, ok1 := m.Intrinsic("link_send")
	if !ok1 {
		return nil, fmt.Errorf("evgen super_Seg2Net: missing intrinsic %q", "link_send")
	}
	in2, ok2 := m.Intrinsic("sched_rto")
	if !ok2 {
		return nil, fmt.Errorf("evgen super_Seg2Net: missing intrinsic %q", "sched_rto")
	}
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Seg2Net: module has no global state")
	}
	st0 := m.Globals.CellRef("bytesout")
	st1 := m.Globals.CellRef("inflight")
	st2 := m.Globals.CellRef("window")
	st3 := m.Globals.CellRef("deferred")
	st4 := m.Globals.CellRef("fecout")
	ev0 := m.Sys.Lookup("SegmentSent") // NoID raises are ignored, like the interpreted tier
	ca0 := make([]hir.Value, 1)
	ca1 := make([]hir.Value, 3)
	ca2 := make([]hir.Value, 3)
	ra0 := make([]event.Arg, 1)
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r13, r14, r15, r16, r17, r18, r19, r21, r22 hir.Value
		r0 = hirrt.ArgValue(ctx, "seg")
		r1 = hir.LenValue(r0)
		r2 = hir.IntVal(28)
		r3 = hir.AddValues(r1, r2)
		r4 = st0.Get()
		r5 = hir.AddValues(r4, r3)
		st0.Set(r5)
		r6 = st1.Get()
		r7 = st2.Get()
		r8 = hir.BoolVal(r6.Int() >= r7.Int())
		if !r8.Bool() {
			goto b2
		}
		r9 = st3.Get()
		r10 = hir.IntVal(1)
		r11 = hir.AddValues(r9, r10)
		st3.Set(r11)
		ca0[0] = r10
		in0.Fn(ca0)
		goto b3
	b2:
		r13 = hir.IntVal(1)
		r14 = hir.AddValues(r6, r13)
		st1.Set(r14)
		r15 = hirrt.ArgValue(ctx, "fec")
		r16 = st4.Get()
		r17 = hir.AddValues(r16, r15)
		st4.Set(r17)
		r18 = hirrt.ArgValue(ctx, "seg")
		r19 = hirrt.ArgValue(ctx, "seq")
		r21 = hir.IntVal(0)
		r22 = hir.BoolVal(!r15.Equal(r21))
		ca1[0] = r19
		ca1[1] = r18
		ca1[2] = r22
		in1.Fn(ca1)
		ca2[0] = r19
		ca2[1] = r18
		ca2[2] = r22
		in2.Fn(ca2)
		if ev0 != event.NoID {
			ra0[0] = hirrt.ArgOf("seq", r19)
			ctx.RaiseAsync(ev0, ra0...)
		}
	b3:
		return
	}, nil
}

// mkVideoplayer23 builds super_SegFromUser, the generated fused body for event SegFromUser
// (26 instructions, 4 blocks).
func mkVideoplayer23(m *hirrt.Module) (event.HandlerFunc, error) {
	in0, ok0 := m.Intrinsic("xor_bytes")
	if !ok0 {
		return nil, fmt.Errorf("evgen super_SegFromUser: missing intrinsic %q", "xor_bytes")
	}
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_SegFromUser: module has no global state")
	}
	st0 := m.Globals.CellRef("parity")
	st1 := m.Globals.CellRef("seq")
	st2 := m.Globals.CellRef("feccount")
	ev0 := m.Sys.Lookup("Seg2Net") // NoID raises are ignored, like the interpreted tier
	ca0 := make([]hir.Value, 2)
	ra0 := make([]event.Arg, 3)
	ra1 := make([]event.Arg, 3)
	kc0 := hir.BytesVal([]byte{})
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r7, r8, r9, r11, r12, r13, r14, r15, r16, r17, r19, r20 hir.Value
		r0 = hirrt.ArgValue(ctx, "seg")
		r1 = st0.Get()
		ca0[0] = r1
		ca0[1] = r0
		r2 = in0.Fn(ca0)
		st0.Set(r2)
		r3 = st1.Get()
		r4 = hir.IntVal(1)
		r5 = hir.AddValues(r3, r4)
		st1.Set(r5)
		r7 = st1.Get()
		r8 = hir.IntVal(0)
		if ev0 != event.NoID {
			ra0[0] = hirrt.ArgOf("seg", r0)
			ra0[1] = hirrt.ArgOf("seq", r7)
			ra0[2] = hirrt.ArgOf("fec", r8)
			ctx.Raise(ev0, ra0...)
		}
		r9 = st2.Get()
		r11 = hir.AddValues(r9, r4)
		r12 = hir.IntVal(8)
		r13 = hir.BoolVal(r11.Int() >= r12.Int())
		if !r13.Bool() {
			goto b2
		}
		r14 = st0.Get()
		r15 = st1.Get()
		r16 = hir.IntVal(1)
		r17 = hir.AddValues(r15, r16)
		st1.Set(r17)
		if ev0 != event.NoID {
			ra1[0] = hirrt.ArgOf("seg", r14)
			ra1[1] = hirrt.ArgOf("seq", r17)
			ra1[2] = hirrt.ArgOf("fec", r16)
			ctx.Raise(ev0, ra1...)
		}
		r19 = hir.IntVal(0)
		st2.Set(r19)
		r20 = kc0
		st0.Set(r20)
		goto b3
	b2:
		st2.Set(r11)
	b3:
		return
	}, nil
}

// mkVideoplayer24 builds super_Seg2Net, the generated fused body for event Seg2Net
// (29 instructions, 4 blocks).
func mkVideoplayer24(m *hirrt.Module) (event.HandlerFunc, error) {
	in0, ok0 := m.Intrinsic("count_defer")
	if !ok0 {
		return nil, fmt.Errorf("evgen super_Seg2Net: missing intrinsic %q", "count_defer")
	}
	in1, ok1 := m.Intrinsic("link_send")
	if !ok1 {
		return nil, fmt.Errorf("evgen super_Seg2Net: missing intrinsic %q", "link_send")
	}
	in2, ok2 := m.Intrinsic("sched_rto")
	if !ok2 {
		return nil, fmt.Errorf("evgen super_Seg2Net: missing intrinsic %q", "sched_rto")
	}
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Seg2Net: module has no global state")
	}
	st0 := m.Globals.CellRef("bytesout")
	st1 := m.Globals.CellRef("inflight")
	st2 := m.Globals.CellRef("window")
	st3 := m.Globals.CellRef("deferred")
	st4 := m.Globals.CellRef("fecout")
	ev0 := m.Sys.Lookup("SegmentSent") // NoID raises are ignored, like the interpreted tier
	ca0 := make([]hir.Value, 1)
	ca1 := make([]hir.Value, 3)
	ca2 := make([]hir.Value, 3)
	ra0 := make([]event.Arg, 1)
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r13, r14, r15, r16, r17, r18, r19, r21, r22 hir.Value
		r0 = hirrt.ArgValue(ctx, "seg")
		r1 = hir.LenValue(r0)
		r2 = hir.IntVal(28)
		r3 = hir.AddValues(r1, r2)
		r4 = st0.Get()
		r5 = hir.AddValues(r4, r3)
		st0.Set(r5)
		r6 = st1.Get()
		r7 = st2.Get()
		r8 = hir.BoolVal(r6.Int() >= r7.Int())
		if !r8.Bool() {
			goto b2
		}
		r9 = st3.Get()
		r10 = hir.IntVal(1)
		r11 = hir.AddValues(r9, r10)
		st3.Set(r11)
		ca0[0] = r10
		in0.Fn(ca0)
		goto b3
	b2:
		r13 = hir.IntVal(1)
		r14 = hir.AddValues(r6, r13)
		st1.Set(r14)
		r15 = hirrt.ArgValue(ctx, "fec")
		r16 = st4.Get()
		r17 = hir.AddValues(r16, r15)
		st4.Set(r17)
		r18 = hirrt.ArgValue(ctx, "seg")
		r19 = hirrt.ArgValue(ctx, "seq")
		r21 = hir.IntVal(0)
		r22 = hir.BoolVal(!r15.Equal(r21))
		ca1[0] = r19
		ca1[1] = r18
		ca1[2] = r22
		in1.Fn(ca1)
		ca2[0] = r19
		ca2[1] = r18
		ca2[2] = r22
		in2.Fn(ca2)
		if ev0 != event.NoID {
			ra0[0] = hirrt.ArgOf("seq", r19)
			ctx.RaiseAsync(ev0, ra0...)
		}
	b3:
		return
	}, nil
}
