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
// (48 instructions, 19 blocks).
func mkVideoplayer0(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_Controller: module has no global state")
	}
	st0 := m.Globals.CellRef("firings")
	st1 := m.Globals.CellRef("acked")
	st2 := m.Globals.CellRef("deferred")
	st3 := m.Globals.CellRef("ctlval")
	st4 := m.Globals.CellRef("window")
	st5 := m.Globals.CellRef("adapts")
	st6 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("ControllerFiring") // NoID raises are ignored, like the interpreted tier
	ev1 := m.Sys.Lookup("ControllerFired")  // NoID raises are ignored, like the interpreted tier
	ev2 := m.Sys.Lookup("Adapt")            // NoID raises are ignored, like the interpreted tier
	ev3 := m.Sys.Lookup("ResizeFragment")   // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r23, r24, r25, r26, r27, r28, r29, r30, r31, r32, r34, r35 hir.Value
		r0 = st0.Get()
		r1 = hir.IntVal(1)
		r2 = hir.AddValues(r0, r1)
		st0.Set(r2)
		r8 = hir.BoolVal(ctx.SpliceLive(1, ev0))
		if r8.Bool() {
			goto b3
		}
		goto b2
	b1:
		return
	b2:
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		goto b1
	b3:
		r3 = st1.Get()
		r4 = st2.Get()
		r5 = hir.IntVal(4)
		r6 = hir.IntVal(r4.Int() * r5.Int())
		r7 = hir.IntVal(r3.Int() - r6.Int())
		st3.Set(r7)
		r9 = hir.BoolVal(ctx.SpliceLive(2, ev1))
		if r9.Bool() {
			goto b6
		}
		goto b5
	b4:
		goto b1
	b5:
		if ev1 != event.NoID {
			ctx.Raise(ev1)
		}
		goto b4
	b6:
		r35 = hir.BoolVal(ctx.SpliceLive(3, ev2))
		if r35.Bool() {
			goto b9
		}
		goto b8
	b7:
		goto b4
	b8:
		if ev2 != event.NoID {
			ctx.Raise(ev2)
		}
		goto b7
	b9:
		r10 = st2.Get()
		r11 = hir.IntVal(0)
		r12 = hir.BoolVal(r10.Int() > r11.Int())
		if !r12.Bool() {
			goto b11
		}
		r13 = st4.Get()
		r14 = hir.IntVal(2)
		r15 = hir.DivValues(r13, r14)
		r16 = hir.IntVal(4)
		r17 = hir.BoolVal(r15.Int() < r16.Int())
		if r17.Bool() {
			goto b13
		}
		goto b14
	b11:
		r19 = st4.Get()
		r20 = hir.IntVal(1)
		r21 = hir.AddValues(r19, r20)
		r22 = hir.IntVal(64)
		r23 = hir.BoolVal(r21.Int() > r22.Int())
		if r23.Bool() {
			goto b15
		}
		goto b16
	b12:
		r25 = hir.IntVal(0)
		st2.Set(r25)
		r26 = st5.Get()
		r27 = hir.IntVal(1)
		r28 = hir.AddValues(r26, r27)
		st5.Set(r28)
		r29 = st6.Get()
		r30 = hir.AddValues(r29, r27)
		r31 = hir.IntVal(7)
		r32 = hir.IntVal(r30.Int() & r31.Int())
		r34 = hir.BoolVal(r32.Equal(r25))
		if r34.Bool() {
			goto b17
		}
		goto b18
	b13:
		r18 = hir.IntVal(4)
		st4.Set(r18)
		goto b12
	b14:
		st4.Set(r15)
		goto b12
	b15:
		r24 = hir.IntVal(64)
		st4.Set(r24)
		goto b12
	b16:
		st4.Set(r21)
		goto b12
	b17:
		if ev3 != event.NoID {
			ctx.RaiseAsync(ev3)
		}
	b18:
		st6.Set(r30)
		goto b7
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
// (42 instructions, 16 blocks).
func mkVideoplayer4(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_ControllerFiring: module has no global state")
	}
	st0 := m.Globals.CellRef("acked")
	st1 := m.Globals.CellRef("deferred")
	st2 := m.Globals.CellRef("ctlval")
	st3 := m.Globals.CellRef("window")
	st4 := m.Globals.CellRef("adapts")
	st5 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("ControllerFired") // NoID raises are ignored, like the interpreted tier
	ev1 := m.Sys.Lookup("Adapt")           // NoID raises are ignored, like the interpreted tier
	ev2 := m.Sys.Lookup("ResizeFragment")  // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r23, r24, r25, r26, r27, r28, r30, r31 hir.Value
		r0 = st0.Get()
		r1 = st1.Get()
		r2 = hir.IntVal(4)
		r3 = hir.IntVal(r1.Int() * r2.Int())
		r4 = hir.IntVal(r0.Int() - r3.Int())
		st2.Set(r4)
		r5 = hir.BoolVal(ctx.SpliceLive(1, ev0))
		if r5.Bool() {
			goto b3
		}
		goto b2
	b1:
		return
	b2:
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		goto b1
	b3:
		r31 = hir.BoolVal(ctx.SpliceLive(2, ev1))
		if r31.Bool() {
			goto b6
		}
		goto b5
	b4:
		goto b1
	b5:
		if ev1 != event.NoID {
			ctx.Raise(ev1)
		}
		goto b4
	b6:
		r6 = st1.Get()
		r7 = hir.IntVal(0)
		r8 = hir.BoolVal(r6.Int() > r7.Int())
		if !r8.Bool() {
			goto b8
		}
		r9 = st3.Get()
		r10 = hir.IntVal(2)
		r11 = hir.DivValues(r9, r10)
		r12 = hir.IntVal(4)
		r13 = hir.BoolVal(r11.Int() < r12.Int())
		if r13.Bool() {
			goto b10
		}
		goto b11
	b8:
		r15 = st3.Get()
		r16 = hir.IntVal(1)
		r17 = hir.AddValues(r15, r16)
		r18 = hir.IntVal(64)
		r19 = hir.BoolVal(r17.Int() > r18.Int())
		if r19.Bool() {
			goto b12
		}
		goto b13
	b9:
		r21 = hir.IntVal(0)
		st1.Set(r21)
		r22 = st4.Get()
		r23 = hir.IntVal(1)
		r24 = hir.AddValues(r22, r23)
		st4.Set(r24)
		r25 = st5.Get()
		r26 = hir.AddValues(r25, r23)
		r27 = hir.IntVal(7)
		r28 = hir.IntVal(r26.Int() & r27.Int())
		r30 = hir.BoolVal(r28.Equal(r21))
		if r30.Bool() {
			goto b14
		}
		goto b15
	b10:
		r14 = hir.IntVal(4)
		st3.Set(r14)
		goto b9
	b11:
		st3.Set(r11)
		goto b9
	b12:
		r20 = hir.IntVal(64)
		st3.Set(r20)
		goto b9
	b13:
		st3.Set(r17)
		goto b9
	b14:
		if ev2 != event.NoID {
			ctx.RaiseAsync(ev2)
		}
	b15:
		st5.Set(r26)
		goto b4
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
// (34 instructions, 13 blocks).
func mkVideoplayer7(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_ControllerFired: module has no global state")
	}
	st0 := m.Globals.CellRef("deferred")
	st1 := m.Globals.CellRef("window")
	st2 := m.Globals.CellRef("adapts")
	st3 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("Adapt")          // NoID raises are ignored, like the interpreted tier
	ev1 := m.Sys.Lookup("ResizeFragment") // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r24, r25 hir.Value
		r25 = hir.BoolVal(ctx.SpliceLive(1, ev0))
		if r25.Bool() {
			goto b3
		}
		goto b2
	b1:
		return
	b2:
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		goto b1
	b3:
		r0 = st0.Get()
		r1 = hir.IntVal(0)
		r2 = hir.BoolVal(r0.Int() > r1.Int())
		if !r2.Bool() {
			goto b5
		}
		r3 = st1.Get()
		r4 = hir.IntVal(2)
		r5 = hir.DivValues(r3, r4)
		r6 = hir.IntVal(4)
		r7 = hir.BoolVal(r5.Int() < r6.Int())
		if r7.Bool() {
			goto b7
		}
		goto b8
	b5:
		r9 = st1.Get()
		r10 = hir.IntVal(1)
		r11 = hir.AddValues(r9, r10)
		r12 = hir.IntVal(64)
		r13 = hir.BoolVal(r11.Int() > r12.Int())
		if r13.Bool() {
			goto b9
		}
		goto b10
	b6:
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
			goto b11
		}
		goto b12
	b7:
		r8 = hir.IntVal(4)
		st1.Set(r8)
		goto b6
	b8:
		st1.Set(r5)
		goto b6
	b9:
		r14 = hir.IntVal(64)
		st1.Set(r14)
		goto b6
	b10:
		st1.Set(r11)
		goto b6
	b11:
		if ev1 != event.NoID {
			ctx.RaiseAsync(ev1)
		}
	b12:
		st3.Set(r20)
		goto b1
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
// (51 instructions, 22 blocks).
func mkVideoplayer11(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_ControllerClkH: module has no global state")
	}
	st0 := m.Globals.CellRef("firings")
	st1 := m.Globals.CellRef("acked")
	st2 := m.Globals.CellRef("deferred")
	st3 := m.Globals.CellRef("ctlval")
	st4 := m.Globals.CellRef("window")
	st5 := m.Globals.CellRef("adapts")
	st6 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("Controller")       // NoID raises are ignored, like the interpreted tier
	ev1 := m.Sys.Lookup("ControllerClkL")   // NoID raises are ignored, like the interpreted tier
	ev2 := m.Sys.Lookup("ControllerFiring") // NoID raises are ignored, like the interpreted tier
	ev3 := m.Sys.Lookup("ControllerFired")  // NoID raises are ignored, like the interpreted tier
	ev4 := m.Sys.Lookup("Adapt")            // NoID raises are ignored, like the interpreted tier
	ev5 := m.Sys.Lookup("ResizeFragment")   // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r23, r24, r25, r26, r27, r28, r29, r30, r31, r32, r33, r35, r36 hir.Value
		r3 = hir.BoolVal(ctx.SpliceLive(1, ev0))
		if r3.Bool() {
			goto b3
		}
		goto b2
	b1:
		if ev1 != event.NoID {
			ctx.RaiseAfter(20000000, ev1)
		}
		return
	b2:
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		goto b1
	b3:
		r0 = st0.Get()
		r1 = hir.IntVal(1)
		r2 = hir.AddValues(r0, r1)
		st0.Set(r2)
		r9 = hir.BoolVal(ctx.SpliceLive(2, ev2))
		if r9.Bool() {
			goto b6
		}
		goto b5
	b4:
		goto b1
	b5:
		if ev2 != event.NoID {
			ctx.Raise(ev2)
		}
		goto b4
	b6:
		r4 = st1.Get()
		r5 = st2.Get()
		r6 = hir.IntVal(4)
		r7 = hir.IntVal(r5.Int() * r6.Int())
		r8 = hir.IntVal(r4.Int() - r7.Int())
		st3.Set(r8)
		r10 = hir.BoolVal(ctx.SpliceLive(3, ev3))
		if r10.Bool() {
			goto b9
		}
		goto b8
	b7:
		goto b4
	b8:
		if ev3 != event.NoID {
			ctx.Raise(ev3)
		}
		goto b7
	b9:
		r36 = hir.BoolVal(ctx.SpliceLive(4, ev4))
		if r36.Bool() {
			goto b12
		}
		goto b11
	b10:
		goto b7
	b11:
		if ev4 != event.NoID {
			ctx.Raise(ev4)
		}
		goto b10
	b12:
		r11 = st2.Get()
		r12 = hir.IntVal(0)
		r13 = hir.BoolVal(r11.Int() > r12.Int())
		if !r13.Bool() {
			goto b14
		}
		r14 = st4.Get()
		r15 = hir.IntVal(2)
		r16 = hir.DivValues(r14, r15)
		r17 = hir.IntVal(4)
		r18 = hir.BoolVal(r16.Int() < r17.Int())
		if r18.Bool() {
			goto b16
		}
		goto b17
	b14:
		r20 = st4.Get()
		r21 = hir.IntVal(1)
		r22 = hir.AddValues(r20, r21)
		r23 = hir.IntVal(64)
		r24 = hir.BoolVal(r22.Int() > r23.Int())
		if r24.Bool() {
			goto b18
		}
		goto b19
	b15:
		r26 = hir.IntVal(0)
		st2.Set(r26)
		r27 = st5.Get()
		r28 = hir.IntVal(1)
		r29 = hir.AddValues(r27, r28)
		st5.Set(r29)
		r30 = st6.Get()
		r31 = hir.AddValues(r30, r28)
		r32 = hir.IntVal(7)
		r33 = hir.IntVal(r31.Int() & r32.Int())
		r35 = hir.BoolVal(r33.Equal(r26))
		if r35.Bool() {
			goto b20
		}
		goto b21
	b16:
		r19 = hir.IntVal(4)
		st4.Set(r19)
		goto b15
	b17:
		st4.Set(r16)
		goto b15
	b18:
		r25 = hir.IntVal(64)
		st4.Set(r25)
		goto b15
	b19:
		st4.Set(r22)
		goto b15
	b20:
		if ev5 != event.NoID {
			ctx.RaiseAsync(ev5)
		}
	b21:
		st6.Set(r31)
		goto b10
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
// (51 instructions, 22 blocks).
func mkVideoplayer16(m *hirrt.Module) (event.HandlerFunc, error) {
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_ControllerClkL: module has no global state")
	}
	st0 := m.Globals.CellRef("firings")
	st1 := m.Globals.CellRef("acked")
	st2 := m.Globals.CellRef("deferred")
	st3 := m.Globals.CellRef("ctlval")
	st4 := m.Globals.CellRef("window")
	st5 := m.Globals.CellRef("adapts")
	st6 := m.Globals.CellRef("adaptcnt")
	ev0 := m.Sys.Lookup("Controller")       // NoID raises are ignored, like the interpreted tier
	ev1 := m.Sys.Lookup("ControllerClkH")   // NoID raises are ignored, like the interpreted tier
	ev2 := m.Sys.Lookup("ControllerFiring") // NoID raises are ignored, like the interpreted tier
	ev3 := m.Sys.Lookup("ControllerFired")  // NoID raises are ignored, like the interpreted tier
	ev4 := m.Sys.Lookup("Adapt")            // NoID raises are ignored, like the interpreted tier
	ev5 := m.Sys.Lookup("ResizeFragment")   // NoID raises are ignored, like the interpreted tier
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15, r16, r17, r18, r19, r20, r21, r22, r23, r24, r25, r26, r27, r28, r29, r30, r31, r32, r33, r35, r36 hir.Value
		r3 = hir.BoolVal(ctx.SpliceLive(1, ev0))
		if r3.Bool() {
			goto b3
		}
		goto b2
	b1:
		if ev1 != event.NoID {
			ctx.RaiseAfter(20000000, ev1)
		}
		return
	b2:
		if ev0 != event.NoID {
			ctx.Raise(ev0)
		}
		goto b1
	b3:
		r0 = st0.Get()
		r1 = hir.IntVal(1)
		r2 = hir.AddValues(r0, r1)
		st0.Set(r2)
		r9 = hir.BoolVal(ctx.SpliceLive(2, ev2))
		if r9.Bool() {
			goto b6
		}
		goto b5
	b4:
		goto b1
	b5:
		if ev2 != event.NoID {
			ctx.Raise(ev2)
		}
		goto b4
	b6:
		r4 = st1.Get()
		r5 = st2.Get()
		r6 = hir.IntVal(4)
		r7 = hir.IntVal(r5.Int() * r6.Int())
		r8 = hir.IntVal(r4.Int() - r7.Int())
		st3.Set(r8)
		r10 = hir.BoolVal(ctx.SpliceLive(3, ev3))
		if r10.Bool() {
			goto b9
		}
		goto b8
	b7:
		goto b4
	b8:
		if ev3 != event.NoID {
			ctx.Raise(ev3)
		}
		goto b7
	b9:
		r36 = hir.BoolVal(ctx.SpliceLive(4, ev4))
		if r36.Bool() {
			goto b12
		}
		goto b11
	b10:
		goto b7
	b11:
		if ev4 != event.NoID {
			ctx.Raise(ev4)
		}
		goto b10
	b12:
		r11 = st2.Get()
		r12 = hir.IntVal(0)
		r13 = hir.BoolVal(r11.Int() > r12.Int())
		if !r13.Bool() {
			goto b14
		}
		r14 = st4.Get()
		r15 = hir.IntVal(2)
		r16 = hir.DivValues(r14, r15)
		r17 = hir.IntVal(4)
		r18 = hir.BoolVal(r16.Int() < r17.Int())
		if r18.Bool() {
			goto b16
		}
		goto b17
	b14:
		r20 = st4.Get()
		r21 = hir.IntVal(1)
		r22 = hir.AddValues(r20, r21)
		r23 = hir.IntVal(64)
		r24 = hir.BoolVal(r22.Int() > r23.Int())
		if r24.Bool() {
			goto b18
		}
		goto b19
	b15:
		r26 = hir.IntVal(0)
		st2.Set(r26)
		r27 = st5.Get()
		r28 = hir.IntVal(1)
		r29 = hir.AddValues(r27, r28)
		st5.Set(r29)
		r30 = st6.Get()
		r31 = hir.AddValues(r30, r28)
		r32 = hir.IntVal(7)
		r33 = hir.IntVal(r31.Int() & r32.Int())
		r35 = hir.BoolVal(r33.Equal(r26))
		if r35.Bool() {
			goto b20
		}
		goto b21
	b16:
		r19 = hir.IntVal(4)
		st4.Set(r19)
		goto b15
	b17:
		st4.Set(r16)
		goto b15
	b18:
		r25 = hir.IntVal(64)
		st4.Set(r25)
		goto b15
	b19:
		st4.Set(r22)
		goto b15
	b20:
		if ev5 != event.NoID {
			ctx.RaiseAsync(ev5)
		}
	b21:
		st6.Set(r31)
		goto b10
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
// (86 instructions, 16 blocks).
func mkVideoplayer21(m *hirrt.Module) (event.HandlerFunc, error) {
	in0, ok0 := m.Intrinsic("xor_bytes")
	if !ok0 {
		return nil, fmt.Errorf("evgen super_SegFromUser: missing intrinsic %q", "xor_bytes")
	}
	in1, ok1 := m.Intrinsic("count_defer")
	if !ok1 {
		return nil, fmt.Errorf("evgen super_SegFromUser: missing intrinsic %q", "count_defer")
	}
	in2, ok2 := m.Intrinsic("link_send")
	if !ok2 {
		return nil, fmt.Errorf("evgen super_SegFromUser: missing intrinsic %q", "link_send")
	}
	in3, ok3 := m.Intrinsic("sched_rto")
	if !ok3 {
		return nil, fmt.Errorf("evgen super_SegFromUser: missing intrinsic %q", "sched_rto")
	}
	if m.Globals == nil {
		return nil, fmt.Errorf("evgen super_SegFromUser: module has no global state")
	}
	st0 := m.Globals.CellRef("parity")
	st1 := m.Globals.CellRef("seq")
	st2 := m.Globals.CellRef("feccount")
	st3 := m.Globals.CellRef("bytesout")
	st4 := m.Globals.CellRef("inflight")
	st5 := m.Globals.CellRef("window")
	st6 := m.Globals.CellRef("deferred")
	st7 := m.Globals.CellRef("fecout")
	ev0 := m.Sys.Lookup("Seg2Net")     // NoID raises are ignored, like the interpreted tier
	ev1 := m.Sys.Lookup("SegmentSent") // NoID raises are ignored, like the interpreted tier
	ca0 := make([]hir.Value, 2)
	ca1 := make([]hir.Value, 1)
	ca2 := make([]hir.Value, 3)
	ca3 := make([]hir.Value, 3)
	ca4 := make([]hir.Value, 1)
	ca5 := make([]hir.Value, 3)
	ca6 := make([]hir.Value, 3)
	ra0 := make([]event.Arg, 3)
	ra1 := make([]event.Arg, 1)
	ra2 := make([]event.Arg, 3)
	ra3 := make([]event.Arg, 1)
	kc0 := hir.BytesVal([]byte{})
	return func(ctx *event.Ctx) {
		var r0, r1, r2, r3, r4, r5, r7, r8, r9, r11, r12, r13, r14, r15, r16, r17, r19, r20, r21, r22, r23, r24, r25, r26, r27, r28, r29, r30, r31, r32, r34, r35, r36, r37, r38, r39, r40, r42, r43, r46, r47, r48, r49, r50, r51, r52, r53, r54, r55, r56, r57, r58, r60, r61, r62, r63, r64, r65, r66, r68, r69, r72 hir.Value
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
		r46 = hir.BoolVal(ctx.SpliceLive(1, ev0))
		if r46.Bool() {
			goto b6
		}
		goto b5
	b1:
		r14 = st0.Get()
		r15 = st1.Get()
		r16 = hir.IntVal(1)
		r17 = hir.AddValues(r15, r16)
		st1.Set(r17)
		r72 = hir.BoolVal(ctx.SpliceLive(1, ev0))
		if r72.Bool() {
			goto b12
		}
		goto b11
	b2:
		st2.Set(r11)
	b3:
		return
	b4:
		r9 = st2.Get()
		r11 = hir.AddValues(r9, r4)
		r12 = hir.IntVal(8)
		r13 = hir.BoolVal(r11.Int() >= r12.Int())
		if r13.Bool() {
			goto b1
		}
		goto b2
	b5:
		if ev0 != event.NoID {
			ra0[0] = hirrt.ArgOf("seg", r0)
			ra0[1] = hirrt.ArgOf("seq", r7)
			ra0[2] = hirrt.ArgOf("fec", r8)
			ctx.Raise(ev0, ra0...)
		}
		goto b4
	b6:
		r21 = r0
		r22 = hir.LenValue(r21)
		r23 = hir.IntVal(28)
		r24 = hir.AddValues(r22, r23)
		r25 = st3.Get()
		r26 = hir.AddValues(r25, r24)
		st3.Set(r26)
		r27 = st4.Get()
		r28 = st5.Get()
		r29 = hir.BoolVal(r27.Int() >= r28.Int())
		if !r29.Bool() {
			goto b8
		}
		r30 = st6.Get()
		r31 = hir.IntVal(1)
		r32 = hir.AddValues(r30, r31)
		st6.Set(r32)
		ca1[0] = r31
		in1.Fn(ca1)
		goto b9
	b8:
		r34 = hir.IntVal(1)
		r35 = hir.AddValues(r27, r34)
		st4.Set(r35)
		r36 = r8
		r37 = st7.Get()
		r38 = hir.AddValues(r37, r36)
		st7.Set(r38)
		r39 = r0
		r40 = r7
		r42 = hir.IntVal(0)
		r43 = hir.BoolVal(!r36.Equal(r42))
		ca2[0] = r40
		ca2[1] = r39
		ca2[2] = r43
		in2.Fn(ca2)
		ca3[0] = r40
		ca3[1] = r39
		ca3[2] = r43
		in3.Fn(ca3)
		if ev1 != event.NoID {
			ra1[0] = hirrt.ArgOf("seq", r40)
			ctx.RaiseAsync(ev1, ra1...)
		}
	b9:
		goto b4
	b10:
		r19 = hir.IntVal(0)
		st2.Set(r19)
		r20 = kc0
		st0.Set(r20)
		goto b3
	b11:
		if ev0 != event.NoID {
			ra2[0] = hirrt.ArgOf("seg", r14)
			ra2[1] = hirrt.ArgOf("seq", r17)
			ra2[2] = hirrt.ArgOf("fec", r16)
			ctx.Raise(ev0, ra2...)
		}
		goto b10
	b12:
		r47 = r14
		r48 = hir.LenValue(r47)
		r49 = hir.IntVal(28)
		r50 = hir.AddValues(r48, r49)
		r51 = st3.Get()
		r52 = hir.AddValues(r51, r50)
		st3.Set(r52)
		r53 = st4.Get()
		r54 = st5.Get()
		r55 = hir.BoolVal(r53.Int() >= r54.Int())
		if !r55.Bool() {
			goto b14
		}
		r56 = st6.Get()
		r57 = hir.IntVal(1)
		r58 = hir.AddValues(r56, r57)
		st6.Set(r58)
		ca4[0] = r57
		in1.Fn(ca4)
		goto b15
	b14:
		r60 = hir.IntVal(1)
		r61 = hir.AddValues(r53, r60)
		st4.Set(r61)
		r62 = r16
		r63 = st7.Get()
		r64 = hir.AddValues(r63, r62)
		st7.Set(r64)
		r65 = r14
		r66 = r17
		r68 = hir.IntVal(0)
		r69 = hir.BoolVal(!r62.Equal(r68))
		ca5[0] = r66
		ca5[1] = r65
		ca5[2] = r69
		in2.Fn(ca5)
		ca6[0] = r66
		ca6[1] = r65
		ca6[2] = r69
		in3.Fn(ca6)
		if ev1 != event.NoID {
			ra3[0] = hirrt.ArgOf("seq", r66)
			ctx.RaiseAsync(ev1, ra3...)
		}
	b15:
		goto b10
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
