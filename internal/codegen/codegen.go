// Package codegen is the evgen backend: it lowers a core.Plan into real
// Go source — one function per fused super-handler segment with the
// merged, constant-folded handler body translated to straight-line Go
// (direct field operations on hir.Value, goto-threaded control flow, no
// register file, no closure trampoline). The generated file compiles
// into the binary and is installed at runtime through
// core.InstallGenerated, which plugs each emitted body in as
// Segment.Fused of an ordinary SuperHandler: binding-version guards,
// CAS publication, subsumption, tracing and auto-deopt all apply
// unchanged, and the body reports the same FusedName as the HIR tier so
// traces are byte-identical across tiers.
//
// The translation starts from the exact optimized IR the HIR tier
// executes (core.BuildSuper → Segment.FusedIR), so the two tiers run
// the same fused program; only the execution substrate differs.
// Emission is deterministic: the same plan against the same bindings
// produces byte-identical source.
//
// Differences from the interpreter/closure tiers, by design:
//   - intrinsics and state cells resolve once at install time (like the
//     closure compiler), so later WrapIntrinsic calls are not observed;
//   - there is no interpretation step budget — the generated code is
//     native Go, and a non-terminating body hangs instead of faulting
//     with ErrStepLimit (fused plan bodies are loop-free in practice);
//   - execution faults (division by zero) panic directly instead of
//     surfacing as wrapped interpreter errors; handler supervision
//     treats both identically.
package codegen

import (
	"bytes"
	"fmt"
	"go/format"
	"sort"

	"eventopt/internal/core"
	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
)

// Config controls one Generate call.
type Config struct {
	Package  string // package name of the emitted file
	Prefix   string // exported identifier prefix, e.g. "Seccomm" -> SeccommSupers
	Workload string // workload name recorded in the file header
}

// Generate lowers every entry of plan (built against sys/mod's current
// bindings) to Go source. The returned bytes are gofmt-formatted.
func Generate(cfg Config, sys *event.System, mod *hirrt.Module, plan *core.Plan) ([]byte, error) {
	if cfg.Package == "" || cfg.Prefix == "" {
		return nil, fmt.Errorf("codegen: Package and Prefix are required")
	}
	g := &generator{cfg: cfg}
	for _, entry := range plan.Entries {
		sh, err := core.BuildSuper(sys, mod, entry, plan.Options())
		if err != nil {
			return nil, fmt.Errorf("codegen: build %s: %w", entry.EventName, err)
		}
		if err := g.addSuper(entry, sh); err != nil {
			return nil, err
		}
	}
	return g.render()
}

// superDesc is the table row emitted for one super-handler.
type superDesc struct {
	entry       string
	chain       []string
	async       []bool
	partitioned bool
	segments    []segDesc
}

type segDesc struct {
	event     string
	fusedName string
	handlers  []string
	factory   string // "" when the segment has no fused body
}

type generator struct {
	cfg       Config
	supers    []superDesc
	factories []string // rendered factory functions, in order
	usesFmt   bool
	usesHir   bool
	usesHirrt bool
	usesEvent bool
}

func (g *generator) addSuper(entry core.PlanEntry, sh *event.SuperHandler) error {
	d := superDesc{
		entry:       sh.Segments[0].EventName,
		async:       append([]bool(nil), entry.Async...),
		partitioned: sh.Partitioned,
	}
	for i := range sh.Segments {
		seg := &sh.Segments[i]
		d.chain = append(d.chain, seg.EventName)
		sd := segDesc{event: seg.EventName, fusedName: seg.FusedName}
		for _, st := range seg.Steps {
			sd.handlers = append(sd.handlers, st.Handler)
		}
		if seg.Fused != nil {
			fn, ok := seg.FusedIR.(*hir.Function)
			if !ok || fn == nil {
				return fmt.Errorf("codegen: segment %s: fused body has no IR", seg.EventName)
			}
			name := fmt.Sprintf("mk%s%d", g.cfg.Prefix, len(g.factories))
			src, err := g.emitFactory(name, seg.EventName, fn)
			if err != nil {
				return fmt.Errorf("codegen: segment %s: %w", seg.EventName, err)
			}
			g.factories = append(g.factories, src)
			sd.factory = name
		}
		d.segments = append(d.segments, sd)
	}
	g.supers = append(g.supers, d)
	return nil
}

func (g *generator) render() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by evgen (workload %s); DO NOT EDIT.\n", g.cfg.Workload)
	b.WriteString("//\n// Regenerate with: go generate ./internal/codegen/gen\n\n")
	fmt.Fprintf(&b, "package %s\n\n", g.cfg.Package)
	b.WriteString("import (\n")
	if g.usesFmt {
		b.WriteString("\t\"fmt\"\n\n")
	}
	b.WriteString("\t\"eventopt/internal/core\"\n")
	if g.usesEvent {
		b.WriteString("\t\"eventopt/internal/event\"\n")
	}
	if g.usesHir {
		b.WriteString("\t\"eventopt/internal/hir\"\n")
	}
	if g.usesHirrt {
		b.WriteString("\t\"eventopt/internal/hirrt\"\n")
	}
	b.WriteString(")\n\n")

	fmt.Fprintf(&b, "// %sSupers returns the generated super-handlers for the %s plan,\n", g.cfg.Prefix, g.cfg.Workload)
	b.WriteString("// ready for core.InstallGenerated.\n")
	fmt.Fprintf(&b, "func %sSupers() []core.GeneratedSuper {\n", g.cfg.Prefix)
	b.WriteString("\treturn []core.GeneratedSuper{\n")
	for _, d := range g.supers {
		b.WriteString("\t\t{\n")
		fmt.Fprintf(&b, "\t\t\tEntry: %q,\n", d.entry)
		fmt.Fprintf(&b, "\t\t\tChain: %s,\n", strSlice(d.chain))
		if anyTrue(d.async) {
			fmt.Fprintf(&b, "\t\t\tAsync: %s,\n", boolSlice(d.async))
		}
		if d.partitioned {
			b.WriteString("\t\t\tPartitioned: true,\n")
		}
		b.WriteString("\t\t\tSegments: []core.GeneratedSegment{\n")
		for _, sd := range d.segments {
			fmt.Fprintf(&b, "\t\t\t\t{Event: %q", sd.event)
			if sd.fusedName != "" {
				fmt.Fprintf(&b, ", FusedName: %q", sd.fusedName)
			}
			fmt.Fprintf(&b, ", Handlers: %s", strSlice(sd.handlers))
			if sd.factory != "" {
				fmt.Fprintf(&b, ", Make: %s", sd.factory)
			}
			b.WriteString("},\n")
		}
		b.WriteString("\t\t\t},\n")
		b.WriteString("\t\t},\n")
	}
	b.WriteString("\t}\n}\n")
	for _, f := range g.factories {
		b.WriteString("\n")
		b.WriteString(f)
	}
	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("codegen: generated source does not format: %w\n%s", err, b.Bytes())
	}
	return src, nil
}

func strSlice(ss []string) string {
	var b bytes.Buffer
	b.WriteString("[]string{")
	for i, s := range ss {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q", s)
	}
	b.WriteString("}")
	return b.String()
}

func boolSlice(bs []bool) string {
	var b bytes.Buffer
	b.WriteString("[]bool{")
	for i, v := range bs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v", v)
	}
	b.WriteString("}")
	return b.String()
}

func anyTrue(bs []bool) bool {
	for _, v := range bs {
		if v {
			return true
		}
	}
	return false
}

// emitted reports, per instruction, whether it appears in the output,
// and which registers the emitted program reads. An instruction with an
// unread destination is dropped when pure, kept (result discarded) when
// it can fault or have effects — mirroring what already survived the
// optimizer's own DCE.
type emitPlan struct {
	emit  [][]bool
	reads map[hir.Reg]bool
}

func planEmission(fn *hir.Function) (*emitPlan, error) {
	p := &emitPlan{reads: make(map[hir.Reg]bool)}
	p.emit = make([][]bool, len(fn.Blocks))
	for bi := range fn.Blocks {
		p.emit[bi] = make([]bool, len(fn.Blocks[bi].Instrs))
	}
	// Params are reads made by the caller's convention.
	for i := 0; i < fn.NumParams; i++ {
		p.reads[hir.Reg(i)] = true
	}
	// Terms read their condition registers.
	for bi := range fn.Blocks {
		t := fn.Blocks[bi].Term
		if t.Kind == hir.TermBranch {
			p.reads[t.Cond] = true
		}
	}
	mark := func(in *hir.Instr) {
		switch in.Op {
		case hir.OpMov, hir.OpUn:
			p.reads[in.A] = true
		case hir.OpBin:
			p.reads[in.A] = true
			p.reads[in.B] = true
		case hir.OpStore:
			p.reads[in.A] = true
		case hir.OpCall, hir.OpCallFn, hir.OpRaise:
			for _, r := range in.Args {
				p.reads[r] = true
			}
		}
	}
	// Seed with the always-emitted instructions, then grow to a fixpoint:
	// an instruction is emitted when its destination is read somewhere in
	// the emitted program.
	for bi := range fn.Blocks {
		for ii := range fn.Blocks[bi].Instrs {
			in := &fn.Blocks[bi].Instrs[ii]
			if in.Op == hir.OpCallFn {
				return nil, fmt.Errorf("OpCallFn %q not supported by the generated tier", in.Sym)
			}
			always := false
			switch in.Op {
			case hir.OpStore, hir.OpRaise, hir.OpHalt, hir.OpCall:
				always = true
			case hir.OpBin:
				always = in.Bin == hir.Div || in.Bin == hir.Mod // can fault
			}
			if always {
				p.emit[bi][ii] = true
				mark(in)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := range fn.Blocks {
			for ii := range fn.Blocks[bi].Instrs {
				in := &fn.Blocks[bi].Instrs[ii]
				if p.emit[bi][ii] || !in.HasDst() || !p.reads[in.Dst] {
					continue
				}
				p.emit[bi][ii] = true
				mark(in)
				changed = true
			}
		}
	}
	return p, nil
}

// factoryEnv accumulates the install-time resolutions of one factory.
type factoryEnv struct {
	intrinsics []string // sym per inN
	intrIdx    map[string]int
	cells      []string // sym per stN
	cellIdx    map[string]int
	raises     []string // event name per evN (raise and guard sites)
	raiseIdx   map[string]int
	callScr    []int // scratch length per call site caN
	raiseScr   []int // scratch length per raise site raN
	byteConsts [][]byte
}

func (e *factoryEnv) intrinsic(sym string) int {
	if i, ok := e.intrIdx[sym]; ok {
		return i
	}
	e.intrIdx[sym] = len(e.intrinsics)
	e.intrinsics = append(e.intrinsics, sym)
	return len(e.intrinsics) - 1
}

func (e *factoryEnv) cell(sym string) int {
	if i, ok := e.cellIdx[sym]; ok {
		return i
	}
	e.cellIdx[sym] = len(e.cells)
	e.cells = append(e.cells, sym)
	return len(e.cells) - 1
}

func (e *factoryEnv) raiseEvent(name string) int {
	if i, ok := e.raiseIdx[name]; ok {
		return i
	}
	e.raiseIdx[name] = len(e.raises)
	e.raises = append(e.raises, name)
	return len(e.raises) - 1
}

// emitFactory renders one factory function: install-time resolution of
// intrinsics, state cells and raise targets, then the translated body.
func (g *generator) emitFactory(name, eventName string, fn *hir.Function) (string, error) {
	plan, err := planEmission(fn)
	if err != nil {
		return "", err
	}
	env := &factoryEnv{
		intrIdx:  make(map[string]int),
		cellIdx:  make(map[string]int),
		raiseIdx: make(map[string]int),
	}

	// Body pass: translate blocks; factory-level declarations are
	// collected into env as sites are encountered (block order, so the
	// numbering is deterministic).
	var body bytes.Buffer
	labels := gotoTargets(fn)
	for bi := range fn.Blocks {
		blk := &fn.Blocks[bi]
		if labels[bi] {
			fmt.Fprintf(&body, "b%d:\n", bi)
		}
		for ii := range blk.Instrs {
			if !plan.emit[bi][ii] {
				continue
			}
			if err := g.emitInstr(&body, env, plan, &blk.Instrs[ii]); err != nil {
				return "", fmt.Errorf("b%d[%d]: %w", bi, ii, err)
			}
		}
		emitTerm(&body, blk.Term, bi)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "// %s builds %s, the generated fused body for event %s\n", name, fn.Name, eventName)
	fmt.Fprintf(&b, "// (%d instructions, %d blocks).\n", fn.NumInstrs(), len(fn.Blocks))
	fmt.Fprintf(&b, "func %s(m *hirrt.Module) (event.HandlerFunc, error) {\n", name)
	g.usesEvent = true
	g.usesHirrt = true
	for i, sym := range env.intrinsics {
		fmt.Fprintf(&b, "\tin%d, ok%d := m.Intrinsic(%q)\n", i, i, sym)
		fmt.Fprintf(&b, "\tif !ok%d {\n\t\treturn nil, fmt.Errorf(\"evgen %s: missing intrinsic %%q\", %q)\n\t}\n", i, fn.Name, sym)
		g.usesFmt = true
	}
	if len(env.cells) > 0 {
		b.WriteString("\tif m.Globals == nil {\n")
		fmt.Fprintf(&b, "\t\treturn nil, fmt.Errorf(\"evgen %s: module has no global state\")\n\t}\n", fn.Name)
		g.usesFmt = true
	}
	for i, sym := range env.cells {
		fmt.Fprintf(&b, "\tst%d := m.Globals.CellRef(%q)\n", i, sym)
	}
	for i, ev := range env.raises {
		fmt.Fprintf(&b, "\tev%d := m.Sys.Lookup(%q) // NoID raises are ignored, like the interpreted tier\n", i, ev)
	}
	for i, n := range env.callScr {
		fmt.Fprintf(&b, "\tca%d := make([]hir.Value, %d)\n", i, n)
		g.usesHir = true
	}
	for i, n := range env.raiseScr {
		fmt.Fprintf(&b, "\tra%d := make([]event.Arg, %d)\n", i, n)
	}
	for i, kb := range env.byteConsts {
		fmt.Fprintf(&b, "\tkc%d := hir.BytesVal(%s)\n", i, byteLit(kb))
		g.usesHir = true
	}
	b.WriteString("\treturn func(ctx *event.Ctx) {\n")
	if regs := readRegs(plan); len(regs) > 0 {
		b.WriteString("\t\tvar ")
		for i, r := range regs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "r%d", r)
		}
		b.WriteString(" hir.Value\n")
		g.usesHir = true
	}
	b.Write(body.Bytes())
	b.WriteString("\t}, nil\n}\n")
	return b.String(), nil
}

func readRegs(p *emitPlan) []int {
	out := make([]int, 0, len(p.reads))
	for r := range p.reads {
		out = append(out, int(r))
	}
	sort.Ints(out)
	return out
}

// gotoTargets returns the blocks that need labels: targets of jumps
// that cannot be expressed as fallthrough to the next block.
func gotoTargets(fn *hir.Function) map[int]bool {
	targets := make(map[int]bool)
	for bi := range fn.Blocks {
		t := fn.Blocks[bi].Term
		switch t.Kind {
		case hir.TermJump:
			if int(t.To) != bi+1 {
				targets[int(t.To)] = true
			}
		case hir.TermBranch:
			if int(t.To) == bi+1 {
				// Inverted branch falls through to To.
				if int(t.Else) != bi+1 {
					targets[int(t.Else)] = true
				}
			} else {
				targets[int(t.To)] = true
				if int(t.Else) != bi+1 {
					targets[int(t.Else)] = true
				}
			}
		}
	}
	return targets
}

func emitTerm(b *bytes.Buffer, t hir.Term, bi int) {
	switch t.Kind {
	case hir.TermJump:
		if int(t.To) != bi+1 {
			fmt.Fprintf(b, "\t\tgoto b%d\n", t.To)
		}
	case hir.TermBranch:
		if int(t.To) == bi+1 {
			if int(t.Else) != bi+1 {
				fmt.Fprintf(b, "\t\tif !r%d.Bool() {\n\t\t\tgoto b%d\n\t\t}\n", t.Cond, t.Else)
			}
			return
		}
		fmt.Fprintf(b, "\t\tif r%d.Bool() {\n\t\t\tgoto b%d\n\t\t}\n", t.Cond, t.To)
		if int(t.Else) != bi+1 {
			fmt.Fprintf(b, "\t\tgoto b%d\n", t.Else)
		}
	default: // TermReturn — fused handler results are discarded by the runtime.
		b.WriteString("\t\treturn\n")
	}
}

// constExpr renders a Value literal; KBytes constants are hoisted to a
// factory variable so the slice is shared across activations exactly
// like the interpreter sharing in.Const.
func (g *generator) constExpr(env *factoryEnv, v hir.Value) string {
	g.usesHir = true
	switch v.Kind {
	case hir.KInt:
		return fmt.Sprintf("hir.IntVal(%d)", v.I)
	case hir.KBool:
		return fmt.Sprintf("hir.BoolVal(%v)", v.I != 0)
	case hir.KStr:
		return fmt.Sprintf("hir.StrVal(%q)", v.S)
	case hir.KBytes:
		env.byteConsts = append(env.byteConsts, v.B)
		return fmt.Sprintf("kc%d", len(env.byteConsts)-1)
	default:
		return "hir.None"
	}
}

func byteLit(b []byte) string {
	var out bytes.Buffer
	out.WriteString("[]byte{")
	for i, x := range b {
		if i > 0 {
			out.WriteString(", ")
		}
		fmt.Fprintf(&out, "%#02x", x)
	}
	out.WriteString("}")
	return out.String()
}

func (g *generator) emitInstr(b *bytes.Buffer, env *factoryEnv, plan *emitPlan, in *hir.Instr) error {
	dst := func() string { return fmt.Sprintf("r%d", in.Dst) }
	ra := func() string { return fmt.Sprintf("r%d", in.A) }
	rb := func() string { return fmt.Sprintf("r%d", in.B) }
	assign := func(expr string) {
		if in.HasDst() && plan.reads[in.Dst] {
			fmt.Fprintf(b, "\t\t%s = %s\n", dst(), expr)
		} else {
			fmt.Fprintf(b, "\t\t_ = %s\n", expr)
		}
	}
	switch in.Op {
	case hir.OpConst:
		assign(g.constExpr(env, in.Const))
	case hir.OpMov:
		assign(ra())
	case hir.OpArg:
		g.usesHirrt = true
		assign(fmt.Sprintf("hirrt.ArgValue(ctx, %q)", in.Sym))
	case hir.OpBindArg:
		g.usesHirrt = true
		assign(fmt.Sprintf("hirrt.BindArgValue(ctx, %q)", in.Sym))
	case hir.OpLoad:
		assign(fmt.Sprintf("st%d.Get()", env.cell(in.Sym)))
	case hir.OpStore:
		fmt.Fprintf(b, "\t\tst%d.Set(%s)\n", env.cell(in.Sym), ra())
	case hir.OpBin:
		g.usesHir = true
		var expr string
		switch in.Bin {
		case hir.Eq:
			expr = fmt.Sprintf("hir.BoolVal(%s.Equal(%s))", ra(), rb())
		case hir.Ne:
			expr = fmt.Sprintf("hir.BoolVal(!%s.Equal(%s))", ra(), rb())
		case hir.Add:
			expr = fmt.Sprintf("hir.AddValues(%s, %s)", ra(), rb())
		case hir.Sub:
			expr = fmt.Sprintf("hir.IntVal(%s.Int() - %s.Int())", ra(), rb())
		case hir.Mul:
			expr = fmt.Sprintf("hir.IntVal(%s.Int() * %s.Int())", ra(), rb())
		case hir.Div:
			expr = fmt.Sprintf("hir.DivValues(%s, %s)", ra(), rb())
		case hir.Mod:
			expr = fmt.Sprintf("hir.ModValues(%s, %s)", ra(), rb())
		case hir.And:
			expr = fmt.Sprintf("hir.IntVal(%s.Int() & %s.Int())", ra(), rb())
		case hir.Or:
			expr = fmt.Sprintf("hir.IntVal(%s.Int() | %s.Int())", ra(), rb())
		case hir.Xor:
			expr = fmt.Sprintf("hir.IntVal(%s.Int() ^ %s.Int())", ra(), rb())
		case hir.Shl:
			expr = fmt.Sprintf("hir.IntVal(%s.Int() << (uint64(%s.Int()) & 63))", ra(), rb())
		case hir.Shr:
			expr = fmt.Sprintf("hir.IntVal(%s.Int() >> (uint64(%s.Int()) & 63))", ra(), rb())
		case hir.Lt:
			expr = fmt.Sprintf("hir.BoolVal(%s.Int() < %s.Int())", ra(), rb())
		case hir.Le:
			expr = fmt.Sprintf("hir.BoolVal(%s.Int() <= %s.Int())", ra(), rb())
		case hir.Gt:
			expr = fmt.Sprintf("hir.BoolVal(%s.Int() > %s.Int())", ra(), rb())
		case hir.Ge:
			expr = fmt.Sprintf("hir.BoolVal(%s.Int() >= %s.Int())", ra(), rb())
		default:
			return fmt.Errorf("unknown binop %v", in.Bin)
		}
		assign(expr)
	case hir.OpUn:
		g.usesHir = true
		switch in.Un {
		case hir.Neg:
			assign(fmt.Sprintf("hir.IntVal(-%s.Int())", ra()))
		case hir.Not:
			assign(fmt.Sprintf("hir.BoolVal(!%s.Bool())", ra()))
		case hir.BNot:
			assign(fmt.Sprintf("hir.IntVal(^%s.Int())", ra()))
		case hir.Len:
			assign(fmt.Sprintf("hir.LenValue(%s)", ra()))
		default:
			return fmt.Errorf("unknown unop %v", in.Un)
		}
	case hir.OpCall:
		idx := env.intrinsic(in.Sym)
		argExpr := "nil"
		if len(in.Args) > 0 {
			site := len(env.callScr)
			env.callScr = append(env.callScr, len(in.Args))
			for i, r := range in.Args {
				fmt.Fprintf(b, "\t\tca%d[%d] = r%d\n", site, i, r)
			}
			argExpr = fmt.Sprintf("ca%d", site)
		}
		call := fmt.Sprintf("in%d.Fn(%s)", idx, argExpr)
		if in.HasDst() && plan.reads[in.Dst] {
			fmt.Fprintf(b, "\t\t%s = %s\n", dst(), call)
		} else {
			fmt.Fprintf(b, "\t\t%s\n", call)
		}
	case hir.OpRaise:
		idx := env.raiseEvent(in.Sym)
		fmt.Fprintf(b, "\t\tif ev%d != event.NoID {\n", idx)
		argExpr := ""
		if len(in.Args) > 0 {
			g.usesHirrt = true
			site := len(env.raiseScr)
			env.raiseScr = append(env.raiseScr, len(in.Args))
			for i, r := range in.Args {
				fmt.Fprintf(b, "\t\t\tra%d[%d] = hirrt.ArgOf(%q, r%d)\n", site, i, in.ArgNames[i], r)
			}
			argExpr = fmt.Sprintf(", ra%d...", site)
		}
		switch {
		case in.Delay > 0:
			fmt.Fprintf(b, "\t\t\tctx.RaiseAfter(%d, ev%d%s)\n", in.Delay, idx, argExpr)
		case in.Async:
			fmt.Fprintf(b, "\t\t\tctx.RaiseAsync(ev%d%s)\n", idx, argExpr)
		default:
			fmt.Fprintf(b, "\t\t\tctx.Raise(ev%d%s)\n", idx, argExpr)
		}
		b.WriteString("\t\t}\n")
	case hir.OpHalt:
		b.WriteString("\t\tctx.Halt()\n\t\treturn\n")
	case hir.OpGuard:
		assign(fmt.Sprintf("hir.BoolVal(ctx.SpliceLive(%d, ev%d))", in.Const.I, env.raiseEvent(in.Sym)))
	default:
		return fmt.Errorf("cannot generate op %v", in.Op)
	}
	return nil
}
