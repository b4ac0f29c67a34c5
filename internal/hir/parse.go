package hir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a function in the textual form produced by
// Function.String, making the disassembly a real surface syntax:
//
//	func name (params=P, regs=R)
//	b0:
//	  r2 = const 5
//	  r3 = arg "size"
//	  r4 = r2 + r3
//	  store "total", r4
//	  raise "net" [sync] (len=r4)
//	  r5 = guard "net", 1
//	  branch r4 ? b1 : b2
//	b1:
//	  return r4
//	...
//
// Every function that validates round-trips: Parse(f.String()) yields a
// structurally identical function.
func Parse(src string) (*Function, error) {
	p := &parser{}
	lines := strings.Split(src, "\n")
	i := 0
	skip := func() {
		for i < len(lines) && strings.TrimSpace(lines[i]) == "" {
			i++
		}
	}
	skip()
	if i >= len(lines) {
		return nil, fmt.Errorf("hir: parse: empty input")
	}
	if err := p.header(strings.TrimSpace(lines[i])); err != nil {
		return nil, err
	}
	i++
	for ; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasSuffix(line, ":") {
			if err := p.block(line); err != nil {
				return nil, fmt.Errorf("hir: parse line %d: %w", i+1, err)
			}
			continue
		}
		if err := p.instr(line); err != nil {
			return nil, fmt.Errorf("hir: parse line %d: %w", i+1, err)
		}
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	if err := p.fn.Validate(); err != nil {
		return nil, fmt.Errorf("hir: parsed function invalid: %w", err)
	}
	return p.fn, nil
}

type parser struct {
	fn     *Function
	cur    int
	curSet bool
}

func (p *parser) header(line string) error {
	// func NAME (params=P, regs=R)
	rest, ok := strings.CutPrefix(line, "func ")
	if !ok {
		return fmt.Errorf("hir: parse: missing 'func' header in %q", line)
	}
	open := strings.Index(rest, "(")
	closeIdx := strings.LastIndex(rest, ")")
	if open < 0 || closeIdx < open {
		return fmt.Errorf("hir: parse: malformed header %q", line)
	}
	name := strings.TrimSpace(rest[:open])
	p.fn = &Function{Name: name}
	for _, kv := range strings.Split(rest[open+1:closeIdx], ",") {
		k, v, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found {
			return fmt.Errorf("hir: parse: bad header field %q", kv)
		}
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return err
		}
		switch strings.TrimSpace(k) {
		case "params":
			p.fn.NumParams = n
		case "regs":
			p.fn.NumRegs = n
		default:
			return fmt.Errorf("hir: parse: unknown header field %q", k)
		}
	}
	return nil
}

func (p *parser) block(line string) error {
	id, err := parseBlockRef(strings.TrimSuffix(line, ":"))
	if err != nil {
		return err
	}
	for len(p.fn.Blocks) <= int(id) {
		p.fn.Blocks = append(p.fn.Blocks, Block{Term: Term{Kind: TermReturn, Ret: NoReg}})
	}
	p.cur = int(id)
	p.curSet = true
	return nil
}

func (p *parser) curBlock() (*Block, error) {
	if !p.curSet {
		return nil, fmt.Errorf("instruction before any block label")
	}
	return &p.fn.Blocks[p.cur], nil
}

func (p *parser) instr(line string) error {
	blk, err := p.curBlock()
	if err != nil {
		return err
	}
	// Terminators.
	switch {
	case line == "return":
		blk.Term = Term{Kind: TermReturn, Ret: NoReg}
		return nil
	case strings.HasPrefix(line, "return "):
		r, err := parseReg(strings.TrimSpace(line[len("return "):]))
		if err != nil {
			return err
		}
		blk.Term = Term{Kind: TermReturn, Ret: r}
		return nil
	case strings.HasPrefix(line, "jump "):
		b, err := parseBlockRef(strings.TrimSpace(line[len("jump "):]))
		if err != nil {
			return err
		}
		blk.Term = Term{Kind: TermJump, To: b}
		return nil
	case strings.HasPrefix(line, "branch "):
		// branch rC ? bT : bE
		rest := line[len("branch "):]
		q := strings.Index(rest, "?")
		c := strings.Index(rest, ":")
		if q < 0 || c < q {
			return fmt.Errorf("malformed branch %q", line)
		}
		cond, err := parseReg(strings.TrimSpace(rest[:q]))
		if err != nil {
			return err
		}
		to, err := parseBlockRef(strings.TrimSpace(rest[q+1 : c]))
		if err != nil {
			return err
		}
		els, err := parseBlockRef(strings.TrimSpace(rest[c+1:]))
		if err != nil {
			return err
		}
		blk.Term = Term{Kind: TermBranch, Cond: cond, To: to, Else: els}
		return nil
	case line == "halt":
		blk.Instrs = append(blk.Instrs, Instr{Op: OpHalt, Dst: NoReg})
		return nil
	case strings.HasPrefix(line, "store "):
		// store "name", rA
		sym, rest, err := parseQuoted(line[len("store "):])
		if err != nil {
			return err
		}
		rest = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		r, err := parseReg(strings.TrimSpace(rest))
		if err != nil {
			return err
		}
		blk.Instrs = append(blk.Instrs, Instr{Op: OpStore, Dst: NoReg, A: r, Sym: sym})
		return nil
	case strings.HasPrefix(line, "raise "):
		in, err := parseRaise(line)
		if err != nil {
			return err
		}
		blk.Instrs = append(blk.Instrs, in)
		return nil
	}

	// Assignments: rD = <rhs>.
	dstStr, rhs, found := strings.Cut(line, "=")
	if !found {
		return fmt.Errorf("unrecognized instruction %q", line)
	}
	dst, err := parseReg(strings.TrimSpace(dstStr))
	if err != nil {
		return err
	}
	in, err := parseRHS(strings.TrimSpace(rhs))
	if err != nil {
		return err
	}
	in.Dst = dst
	blk.Instrs = append(blk.Instrs, in)
	return nil
}

func parseRHS(rhs string) (Instr, error) {
	switch {
	case strings.HasPrefix(rhs, "const "):
		v, err := parseValue(strings.TrimSpace(rhs[len("const "):]))
		return Instr{Op: OpConst, Const: v}, err
	case strings.HasPrefix(rhs, "arg "):
		sym, _, err := parseQuoted(rhs[len("arg "):])
		return Instr{Op: OpArg, Sym: sym}, err
	case strings.HasPrefix(rhs, "bindarg "):
		sym, _, err := parseQuoted(rhs[len("bindarg "):])
		return Instr{Op: OpBindArg, Sym: sym}, err
	case strings.HasPrefix(rhs, "load "):
		sym, _, err := parseQuoted(rhs[len("load "):])
		return Instr{Op: OpLoad, Sym: sym}, err
	case strings.HasPrefix(rhs, "guard "):
		// guard "name", SEG
		sym, rest, err := parseQuoted(rhs[len("guard "):])
		if err != nil {
			return Instr{}, err
		}
		seg, found := strings.CutPrefix(strings.TrimSpace(rest), ",")
		if !found {
			return Instr{}, fmt.Errorf("malformed guard %q", rhs)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(seg), 10, 64)
		if err != nil || n < 0 {
			return Instr{}, fmt.Errorf("bad guard segment %q", seg)
		}
		return Instr{Op: OpGuard, Sym: sym, Const: IntVal(n)}, nil
	case strings.HasPrefix(rhs, "call "), strings.HasPrefix(rhs, "callfn "):
		op := OpCall
		rest := rhs[len("call "):]
		if strings.HasPrefix(rhs, "callfn ") {
			op = OpCallFn
			rest = rhs[len("callfn "):]
		}
		sym, rest2, err := parseQuoted(rest)
		if err != nil {
			return Instr{}, err
		}
		args, err := parseRegList(rest2)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: op, Sym: sym, Args: args}, nil
	}
	// Unary: "<op> rA" where op in unNames.
	for u, name := range unNames {
		if rest, ok := strings.CutPrefix(rhs, name+" "); ok {
			r, err := parseReg(strings.TrimSpace(rest))
			return Instr{Op: OpUn, Un: UnOp(u), A: r}, err
		}
	}
	// Binary: "rA <op> rB"; or a plain move "rA".
	fields := strings.Fields(rhs)
	switch len(fields) {
	case 1:
		r, err := parseReg(fields[0])
		return Instr{Op: OpMov, A: r}, err
	case 3:
		a, err := parseReg(fields[0])
		if err != nil {
			return Instr{}, err
		}
		b, err := parseReg(fields[2])
		if err != nil {
			return Instr{}, err
		}
		for op, name := range binNames {
			if fields[1] == name {
				return Instr{Op: OpBin, Bin: BinOp(op), A: a, B: b}, nil
			}
		}
		return Instr{}, fmt.Errorf("unknown operator %q", fields[1])
	default:
		return Instr{}, fmt.Errorf("unrecognized expression %q", rhs)
	}
}

// parseRaise parses: raise "name" [mode] (k1=r1, k2=r2)
func parseRaise(line string) (Instr, error) {
	rest := line[len("raise "):]
	sym, rest, err := parseQuoted(rest)
	if err != nil {
		return Instr{}, err
	}
	in := Instr{Op: OpRaise, Dst: NoReg, Sym: sym}
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(rest, "[") {
		end := strings.Index(rest, "]")
		if end < 0 {
			return Instr{}, fmt.Errorf("unterminated mode in %q", line)
		}
		mode := rest[1:end]
		switch {
		case mode == "sync":
		case mode == "async":
			in.Async = true
		case strings.HasPrefix(mode, "delay="):
			d, err := strconv.ParseInt(mode[len("delay="):], 10, 64)
			if err != nil {
				return Instr{}, err
			}
			in.Async = true
			in.Delay = d
		default:
			return Instr{}, fmt.Errorf("unknown raise mode %q", mode)
		}
		rest = strings.TrimSpace(rest[end+1:])
	}
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return Instr{}, fmt.Errorf("missing argument list in %q", line)
	}
	body := strings.TrimSpace(rest[1 : len(rest)-1])
	if body == "" {
		return in, nil
	}
	for _, part := range strings.Split(body, ",") {
		k, v, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			return Instr{}, fmt.Errorf("malformed raise argument %q", part)
		}
		r, err := parseReg(strings.TrimSpace(v))
		if err != nil {
			return Instr{}, err
		}
		in.ArgNames = append(in.ArgNames, strings.TrimSpace(k))
		in.Args = append(in.Args, r)
	}
	return in, nil
}

func (p *parser) finish() error {
	if p.fn == nil {
		return fmt.Errorf("hir: parse: no function")
	}
	if len(p.fn.Blocks) == 0 {
		p.fn.Blocks = []Block{{Term: Term{Kind: TermReturn, Ret: NoReg}}}
	}
	return nil
}

func parseReg(s string) (Reg, error) {
	rest, ok := strings.CutPrefix(s, "r")
	if !ok {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

func parseBlockRef(s string) (BlockID, error) {
	rest, ok := strings.CutPrefix(s, "b")
	if !ok {
		return 0, fmt.Errorf("expected block, got %q", s)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad block %q", s)
	}
	return BlockID(n), nil
}

// parseQuoted extracts a leading Go-quoted string, returning the rest.
func parseQuoted(s string) (string, string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("expected quoted name in %q", s)
	}
	for j := 1; j < len(s); j++ {
		if s[j] == '\\' {
			j++
			continue
		}
		if s[j] == '"' {
			out, err := strconv.Unquote(s[:j+1])
			return out, s[j+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated quote in %q", s)
}

// parseRegList parses "(r1, r2, ...)" (possibly empty).
func parseRegList(s string) ([]Reg, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("expected argument list, got %q", s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	if body == "" {
		return nil, nil
	}
	var out []Reg
	for _, part := range strings.Split(body, ",") {
		r, err := parseReg(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// parseValue parses a constant in Value.String form: integers, true,
// false, none, or a quoted string. Byte constants print as bytes[n] and
// are not parseable; merged code stores byte payloads in state cells.
func parseValue(s string) (Value, error) {
	switch s {
	case "true":
		return BoolVal(true), nil
	case "false":
		return BoolVal(false), nil
	case "none":
		return None, nil
	}
	if strings.HasPrefix(s, `"`) {
		out, err := strconv.Unquote(s)
		return StrVal(out), err
	}
	if strings.HasPrefix(s, "bytes[") {
		return None, fmt.Errorf("byte constants are not representable in text form")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return None, fmt.Errorf("bad constant %q", s)
	}
	return IntVal(n), nil
}
