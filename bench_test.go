package eventopt

// Benchmarks regenerating the paper's measurements as testing.B targets,
// one family per table/figure, plus ablations over the design choices
// (guard organization, merge depth, HIR fusion) and the substrates.
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"testing"

	"eventopt/internal/ciphers"
	"eventopt/internal/core"
	"eventopt/internal/ctp"
	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/profile"
	"eventopt/internal/seccomm"
	"eventopt/internal/trace"
	"eventopt/internal/video"
	"eventopt/internal/xwin"
)

// ---- shared setup ----

func benchPlayer(b *testing.B, optimize bool, opts core.Options) *video.Player {
	b.Helper()
	p, err := video.NewPlayer(ctp.DefaultConfig(), 25, 900)
	if err != nil {
		b.Fatal(err)
	}
	if optimize {
		if _, err := p.Optimize(200, opts); err != nil {
			b.Fatal(err)
		}
	} else {
		p.Run(50)
	}
	return p
}

func profileAndApply(b *testing.B, sys *event.System, mod *Module, drive func(int), opts core.Options) {
	b.Helper()
	rec := trace.NewRecorder()
	rec.EnableHandlerProfiling()
	sys.SetTracer(rec)
	drive(60)
	sys.SetTracer(nil)
	prof, err := profile.Analyze(rec.Entries())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := core.Apply(sys, prof, mod, opts); err != nil {
		b.Fatal(err)
	}
}

// ---- Figure 10: video player per-frame cost ----

func benchFrames(b *testing.B, p *video.Player) {
	frame := make([]byte, 900)
	s := p.Sender
	s.Start()
	interval := event.Duration(40e6) // 25 fps
	base := s.Sys.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SendFrame(frame, i%10 == 0)
		s.Sys.DrainFor(base + event.Duration(i+1)*interval)
	}
}

func BenchmarkFig10FrameOrig(b *testing.B) {
	benchFrames(b, benchPlayer(b, false, core.Options{}))
}

func BenchmarkFig10FrameOpt(b *testing.B) {
	benchFrames(b, benchPlayer(b, true, core.DefaultOptions()))
}

// ---- Figure 11: per-event processing time ----

func benchEvent(b *testing.B, p *video.Player, name string) {
	s := p.Sender
	seg := make([]byte, 900)
	seq := s.Seq() + 1e6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch name {
		case "Adapt":
			s.Sys.Raise(s.Ev.Adapt)
		case "SegFromUser":
			s.Sys.Raise(s.Ev.SegFromUser, event.A("seg", seg), event.A("len", len(seg)))
		case "Seg2Net":
			seq++
			s.Sys.Raise(s.Ev.Seg2Net, event.A("seg", seg), event.A("seq", seq), event.A("fec", 0))
		}
		if i&63 == 0 {
			s.Sys.DrainFor(s.Sys.Now() + s.Cfg.RTT + 1e6)
		}
	}
}

func BenchmarkFig11AdaptOrig(b *testing.B) {
	benchEvent(b, benchPlayer(b, false, core.Options{}), "Adapt")
}
func BenchmarkFig11AdaptOpt(b *testing.B) {
	benchEvent(b, benchPlayer(b, true, core.DefaultOptions()), "Adapt")
}
func BenchmarkFig11SegFromUserOrig(b *testing.B) {
	benchEvent(b, benchPlayer(b, false, core.Options{}), "SegFromUser")
}
func BenchmarkFig11SegFromUserOpt(b *testing.B) {
	benchEvent(b, benchPlayer(b, true, core.DefaultOptions()), "SegFromUser")
}
func BenchmarkFig11Seg2NetOrig(b *testing.B) {
	benchEvent(b, benchPlayer(b, false, core.Options{}), "Seg2Net")
}
func BenchmarkFig11Seg2NetOpt(b *testing.B) {
	benchEvent(b, benchPlayer(b, true, core.DefaultOptions()), "Seg2Net")
}

// ---- Figure 12: SecComm push/pop across packet sizes ----

func benchSecComm(b *testing.B, size int, optimize, pop bool) {
	cfg := seccomm.Config{
		DESKey: []byte("8bytekey"),
		XORKey: []byte{0x5A, 0xA5, 0x3C},
		IV:     []byte("initvect"),
	}
	e, err := seccomm.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, size)
	var pkt []byte
	e.OnSend(func(p []byte) { pkt = append(pkt[:0], p...) })
	e.Push(msg)
	wire := append([]byte(nil), pkt...)
	if optimize {
		opts := core.DefaultOptions()
		opts.MergeAll = true
		opts.FullFusion = true
		opts.Partitioned = false
		profileAndApply(b, e.Sys, e.Mod, func(n int) {
			for i := 0; i < n; i++ {
				e.Push(msg)
				e.HandlePacket(wire)
			}
		}, opts)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pop {
			e.HandlePacket(wire)
		} else {
			e.Push(msg)
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for _, size := range []int{64, 256, 1024, 2048} {
		for _, dir := range []string{"Push", "Pop"} {
			for _, variant := range []string{"Orig", "Opt"} {
				name := dir + "/" + variant + "/" + itoa(size)
				b.Run(name, func(b *testing.B) {
					benchSecComm(b, size, variant == "Opt", dir == "Pop")
				})
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---- Figure 13: X events ----

func BenchmarkFig13ScrollOrig(b *testing.B) {
	g := xwin.NewGvim()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Scroll(i * 7 % 360)
	}
}

func BenchmarkFig13ScrollOpt(b *testing.B) {
	g := xwin.NewGvim()
	opts := core.DefaultOptions()
	opts.MergeAll = true
	profileAndApply(b, g.Client.Sys, g.Client.Mod, func(n int) {
		for i := 0; i < n; i++ {
			g.Scroll(i * 3 % 360)
		}
	}, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Scroll(i * 7 % 360)
	}
}

func BenchmarkFig13PopupOrig(b *testing.B) {
	x := xwin.NewXTerm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Popup(30, i%60)
		if i&255 == 0 {
			x.Client.Display.Reset()
		}
	}
}

func BenchmarkFig13PopupOpt(b *testing.B) {
	x := xwin.NewXTerm()
	opts := core.DefaultOptions()
	opts.MergeAll = true
	profileAndApply(b, x.Client.Sys, x.Client.Mod, func(n int) {
		for i := 0; i < n; i++ {
			x.Popup(30, i%60)
		}
	}, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Popup(30, i%60)
		if i&255 == 0 {
			x.Client.Display.Reset()
		}
	}
}

// ---- Ablations: guard organization, merge depth, fusion level ----

// ablationApp builds a three-event chain with HIR handlers everywhere.
func ablationApp(b *testing.B) (*App, ID) {
	app := New()
	aEv := app.Sys.Define("A")
	bEv := app.Sys.Define("B")
	cEv := app.Sys.Define("C")

	mk := func(cell string, raise string) *hir.Function {
		hb := hir.NewBuilder("h_"+cell, 0)
		v := hb.Load(cell)
		one := hb.Int(1)
		hb.Store(cell, hb.Bin(hir.Add, v, one))
		if raise != "" {
			n := hb.Arg("n")
			hb.Raise(raise, []string{"n"}, []hir.Reg{n})
		}
		hb.Return(hir.NoReg)
		return hb.Fn()
	}
	app.Mod.Bind(aEv, "a1", mk("ca1", ""), WithOrder(1))
	app.Mod.Bind(aEv, "a2", mk("ca2", "B"), WithOrder(2))
	app.Mod.Bind(bEv, "b1", mk("cb1", ""), WithOrder(1))
	app.Mod.Bind(bEv, "b2", mk("cb2", "C"), WithOrder(2))
	app.Mod.Bind(cEv, "c1", mk("cc1", ""))
	return app, aEv
}

func runAblation(b *testing.B, configure func(*core.Options) bool) {
	app, aEv := ablationApp(b)
	opts := core.DefaultOptions()
	opts.MergeAll = true
	install := true
	if configure != nil {
		install = configure(&opts)
	}
	if install {
		app.StartProfiling()
		for i := 0; i < 60; i++ {
			app.Sys.Raise(aEv, A("n", i))
		}
		prof, err := app.StopProfiling()
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := app.Optimize(prof, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Sys.Raise(aEv, A("n", i))
	}
}

func BenchmarkAblationGeneric(b *testing.B) {
	runAblation(b, func(*core.Options) bool { return false })
}

func BenchmarkAblationStepsOnly(b *testing.B) {
	runAblation(b, func(o *core.Options) bool { o.FuseHIR = false; return true })
}

func BenchmarkAblationNoSubsume(b *testing.B) {
	runAblation(b, func(o *core.Options) bool { o.Subsume = false; return true })
}

// BenchmarkAblationPerSegmentFusion is the default plan: per-segment
// fused bodies with the covered raises spliced into the entry body
// behind per-event guards (guarded subsumption). Nothing observes the
// benchmark loop, so the guards pass and the splices run.
func BenchmarkAblationPerSegmentFusion(b *testing.B) {
	runAblation(b, nil)
}

func BenchmarkAblationMonolithicGuard(b *testing.B) {
	runAblation(b, func(o *core.Options) bool { o.Partitioned = false; return true })
}

func BenchmarkAblationFullFusion(b *testing.B) {
	runAblation(b, func(o *core.Options) bool {
		o.FullFusion = true
		o.Partitioned = false
		return true
	})
}

func BenchmarkAblationFullFusionCompiled(b *testing.B) {
	runAblation(b, func(o *core.Options) bool {
		o.FullFusion = true
		o.Partitioned = false
		o.CompileClosures = true
		return true
	})
}

func BenchmarkAblationSpeculative(b *testing.B) {
	runAblation(b, func(o *core.Options) bool {
		o.Speculative = true
		return true
	})
}

// BenchmarkRebindFallback measures the cost of raising an event whose
// super-handler guard fails (section 3.3's fallback path).
func BenchmarkRebindFallback(b *testing.B) {
	app, aEv := ablationApp(b)
	app.StartProfiling()
	for i := 0; i < 60; i++ {
		app.Sys.Raise(aEv, A("n", i))
	}
	prof, err := app.StopProfiling()
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Partitioned = false
	if _, _, err := app.Optimize(prof, opts); err != nil {
		b.Fatal(err)
	}
	// Invalidate the entry guard.
	app.Sys.Bind(aEv, "late", func(*Ctx) {}, WithOrder(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Sys.Raise(aEv, A("n", i))
	}
}

// ---- Substrates ----

func BenchmarkDESBlock(b *testing.B) {
	d, err := ciphers.NewDES([]byte("8bytekey"))
	if err != nil {
		b.Fatal(err)
	}
	var in, out [8]byte
	b.SetBytes(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.EncryptBlock(out[:], in[:])
	}
}

func BenchmarkMD5_1K(b *testing.B) {
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ciphers.MD5(msg)
	}
}

// BenchmarkGraphBuilder measures the Fig. 4 profiling algorithm itself.
func BenchmarkGraphBuilder(b *testing.B) {
	entries := make([]trace.Entry, 10000)
	for i := range entries {
		id := event.ID(i * 7 % 20)
		entries[i] = trace.Entry{Kind: trace.EventRaised, Event: id,
			EventName: "E", Mode: event.Mode(i % 2), Depth: 0}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.BuildEventGraph(entries)
	}
}

// BenchmarkHIRInterp measures raw interpreter throughput on the merged
// Adapt body workload shape.
func BenchmarkHIRInterp(b *testing.B) {
	hb := hir.NewBuilder("body", 0)
	v := hb.Load("x")
	one := hb.Int(1)
	v2 := hb.Bin(hir.Add, v, one)
	hb.Store("x", v2)
	k := hb.Bin(hir.And, v2, hb.Int(7))
	z := hb.Int(0)
	c := hb.Bin(hir.Eq, k, z)
	t := hb.NewBlock()
	f := hb.NewBlock()
	hb.SetBlock(hir.Entry)
	hb.Branch(c, t, f)
	hb.SetBlock(t)
	hb.Store("y", v2)
	hb.Return(hir.NoReg)
	hb.SetBlock(f)
	hb.Return(hir.NoReg)
	fn := hb.Fn()
	lk, err := hir.Link(fn, &hir.Env{Globals: hir.NewState()})
	if err != nil {
		b.Fatal(err)
	}
	var scratch []hir.Value
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, scratch, _ = lk.Exec(scratch)
	}
}

// BenchmarkHIRCompiled is the same workload through the closure compiler.
func BenchmarkHIRCompiled(b *testing.B) {
	hb := hir.NewBuilder("body", 0)
	v := hb.Load("x")
	one := hb.Int(1)
	v2 := hb.Bin(hir.Add, v, one)
	hb.Store("x", v2)
	k := hb.Bin(hir.And, v2, hb.Int(7))
	z := hb.Int(0)
	c := hb.Bin(hir.Eq, k, z)
	t := hb.NewBlock()
	f := hb.NewBlock()
	hb.SetBlock(hir.Entry)
	hb.Branch(c, t, f)
	hb.SetBlock(t)
	hb.Store("y", v2)
	hb.Return(hir.NoReg)
	hb.SetBlock(f)
	hb.Return(hir.NoReg)
	fn := hb.Fn()
	env := &hir.Env{Globals: hir.NewState()}
	comp, err := hir.Compile(fn, env)
	if err != nil {
		b.Fatal(err)
	}
	var scratch []hir.Value
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, scratch, _ = comp.Exec(scratch)
	}
}

// BenchmarkTracingOverhead prices the paper's instrumentation itself:
// the same hot-path raise with and without the trace recorder installed.
func BenchmarkTracingOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "off"
		if traced {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			app, aEv := ablationApp(b)
			if traced {
				rec := trace.NewRecorder()
				rec.EnableHandlerProfiling()
				app.Sys.SetTracer(rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app.Sys.Raise(aEv, A("n", i))
			}
		})
	}
}

// BenchmarkTraceEncoding compares the text and binary trace formats.
func BenchmarkTraceEncoding(b *testing.B) {
	entries := make([]trace.Entry, 0, 4000)
	for i := 0; i < 2000; i++ {
		id := event.ID(i % 10)
		entries = append(entries, trace.Entry{Kind: trace.EventRaised, Event: id,
			EventName: "Event" + itoa(int(id)), Mode: event.Mode(i % 2)})
		entries = append(entries, trace.Entry{Kind: trace.HandlerEnter, Event: id,
			EventName: "Event" + itoa(int(id)), Handler: "handler"})
	}
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if _, err := trace.WriteEntries(&buf, entries); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, entries); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
}
