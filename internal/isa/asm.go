package isa

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Program is an assembled FISA image: a contiguous byte range loaded at Base.
type Program struct {
	Base    Word
	Code    []byte
	Entry   Word
	Symbols map[string]Word
}

// End returns the first address past the image.
func (p *Program) End() Word { return p.Base + Word(len(p.Code)) }

// AsmError reports an assembly failure with its source line.
type AsmError struct {
	Line int
	Text string
	Err  error
}

func (e *AsmError) Error() string {
	return fmt.Sprintf("asm: line %d (%q): %v", e.Line, e.Text, e.Err)
}

func (e *AsmError) Unwrap() error { return e.Err }

// Assemble translates FISA assembly source into a Program loaded at base.
//
// Syntax, one statement per line:
//
//	label:            ; trailing comments with ';' or '#'
//	    movi r0, 42
//	    ldw  r1, [r2+8]
//	    jz   label
//	    rep movs
//	    fldi f0, 2.5
//	.org 0x100        ; move location counter forward (zero fill)
//	.entry label      ; program entry point (default: base)
//	.equ NAME, 123
//	.word 1, sym, 'c' ; 32-bit little-endian words
//	.half 1, 2
//	.byte 1, 2
//	.ascii "text"     ; .asciz appends a NUL
//	.space 64
//	.align 4
//
// Register operands: r0..r15, sp, lr, f0..f7. Immediates: decimal, 0x hex,
// 'c' characters, or symbol names (resolved in pass two). Branch operands
// are labels; the assembler computes the rel16 displacement.
func Assemble(src string, base Word) (*Program, error) {
	a := &assembler{
		base:    base,
		symbols: make(map[string]Word),
		entry:   base,
	}
	// Pass 1: assign addresses to labels. Pass 2: emit bytes.
	for pass := 1; pass <= 2; pass++ {
		a.pass = pass
		a.pc = base
		a.out = a.out[:0]
		for lineNo, raw := range strings.Split(src, "\n") {
			if err := a.line(raw); err != nil {
				return nil, &AsmError{Line: lineNo + 1, Text: strings.TrimSpace(raw), Err: err}
			}
		}
	}
	return &Program{Base: base, Code: a.out, Entry: a.entry, Symbols: a.symbols}, nil
}

// MustAssemble is Assemble for statically known-good sources (the toyOS
// kernel, workload programs); it panics on error.
func MustAssemble(src string, base Word) *Program {
	p, err := Assemble(src, base)
	if err != nil {
		panic(err)
	}
	return p
}

type assembler struct {
	base    Word
	pc      Word
	pass    int
	out     []byte
	symbols map[string]Word
	entry   Word
}

func (a *assembler) emit(b ...byte) {
	a.out = append(a.out, b...)
	a.pc += Word(len(b))
}

func (a *assembler) line(raw string) error {
	s := strings.TrimSpace(stripComment(raw))
	if s == "" {
		return nil
	}
	// Labels, possibly several on one line.
	for {
		i := strings.Index(s, ":")
		if i < 0 || strings.ContainsAny(s[:i], " \t\"'[,") {
			break
		}
		name := s[:i]
		if a.pass == 1 {
			if _, dup := a.symbols[name]; dup {
				return fmt.Errorf("duplicate label %q", name)
			}
			a.symbols[name] = a.pc
		}
		s = strings.TrimSpace(s[i+1:])
		if s == "" {
			return nil
		}
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(s)
	}
	return a.instruction(s)
}

func stripComment(s string) string {
	inStr, inChr := false, false
	for i := 0; i < len(s); i++ {
		switch {
		case inStr:
			if s[i] == '"' {
				inStr = false
			}
		case inChr:
			if s[i] == '\'' {
				inChr = false
			}
		case s[i] == '"':
			inStr = true
		case s[i] == '\'':
			inChr = true
		case s[i] == ';' || s[i] == '#':
			return s[:i]
		}
	}
	return s
}

func (a *assembler) directive(s string) error {
	name, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".org":
		v, err := a.value(rest)
		if err != nil {
			return err
		}
		target := Word(v)
		if target < a.pc {
			return fmt.Errorf(".org %#x moves backwards from %#x", target, a.pc)
		}
		for a.pc < target {
			a.emit(0)
		}
	case ".entry":
		if a.pass == 2 {
			v, err := a.value(rest)
			if err != nil {
				return err
			}
			a.entry = Word(v)
		}
	case ".equ":
		parts := splitOperands(rest)
		if len(parts) != 2 {
			return fmt.Errorf(".equ wants NAME, value")
		}
		if a.pass == 1 {
			v, err := a.value(parts[1])
			if err != nil {
				return err
			}
			a.symbols[parts[0]] = Word(v)
		}
	case ".word", ".half", ".byte":
		size := map[string]int{".word": 4, ".half": 2, ".byte": 1}[name]
		for _, f := range splitOperands(rest) {
			v, err := a.valueOrZero(f)
			if err != nil {
				return err
			}
			for k := 0; k < size; k++ {
				a.emit(byte(v >> (8 * k)))
			}
		}
	case ".ascii", ".asciz":
		str, err := strconv.Unquote(rest)
		if err != nil {
			return fmt.Errorf("bad string %s: %v", rest, err)
		}
		a.emit([]byte(str)...)
		if name == ".asciz" {
			a.emit(0)
		}
	case ".space":
		v, err := a.value(rest)
		if err != nil {
			return err
		}
		for k := int64(0); k < v; k++ {
			a.emit(0)
		}
	case ".align":
		v, err := a.value(rest)
		if err != nil {
			return err
		}
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf(".align %d is not a power of two", v)
		}
		for a.pc%Word(v) != 0 {
			a.emit(0)
		}
	default:
		return fmt.Errorf("unknown directive %s", name)
	}
	return nil
}

func (a *assembler) instruction(s string) error {
	var inst Inst
	mnem, rest, _ := strings.Cut(s, " ")
	mnem = strings.ToLower(mnem)
	for {
		switch mnem {
		case "rep", "repe":
			inst.Rep = true
		case "lock":
			inst.Lock = true
		default:
			goto resolved
		}
		mnem, rest, _ = strings.Cut(strings.TrimSpace(rest), " ")
		mnem = strings.ToLower(mnem)
	}
resolved:
	op, ok := ByName(mnem)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	inst.Op = op
	in := Lookup(op)
	ops := splitOperands(strings.TrimSpace(rest))
	var err error
	switch in.Format {
	case FmtNone:
		if len(ops) != 0 {
			return fmt.Errorf("%s takes no operands", mnem)
		}
	case FmtR:
		if err = a.wantOps(mnem, ops, 1); err != nil {
			return err
		}
		if inst.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
	case FmtRR:
		if err = a.wantOps(mnem, ops, 2); err != nil {
			return err
		}
		if inst.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		if inst.Rs, err = parseReg(ops[1]); err != nil {
			return err
		}
	case FmtRI8, FmtRI32:
		if err = a.wantOps(mnem, ops, 2); err != nil {
			return err
		}
		if inst.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		if inst.Imm, err = a.valueOrZero(ops[1]); err != nil {
			return err
		}
	case FmtRM:
		if err = a.wantOps(mnem, ops, 2); err != nil {
			return err
		}
		// Data register first for both loads and stores: ldw r1, [r2+8]
		// and stw r1, [r2+8].
		if inst.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		base, disp, merr := a.parseMem(ops[1])
		if merr != nil {
			return merr
		}
		inst.Rs, inst.Disp = base, disp
	case FmtRel16:
		if err = a.wantOps(mnem, ops, 1); err != nil {
			return err
		}
		v, verr := a.valueOrZero(ops[0])
		if verr != nil {
			return verr
		}
		// Displacement is relative to the next instruction; the length of
		// a FmtRel16 instruction is fixed, so this is known in pass 1 too
		// (Imm is still 0 here, so the encoding cannot fail).
		enc, _ := Encode(nil, inst)
		next := int64(a.pc) + int64(len(enc))
		inst.Imm = v - next
		if a.pass == 2 && (inst.Imm < math.MinInt16 || inst.Imm > math.MaxInt16) {
			return fmt.Errorf("branch target %#x out of rel16 range from %#x", v, a.pc)
		}
		if a.pass == 1 {
			inst.Imm = 0 // symbol may be undefined yet
		}
	case FmtI8R, FmtI16R:
		if err = a.wantOps(mnem, ops, 2); err != nil {
			return err
		}
		if inst.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		sel := ops[1]
		// Control registers may be written as cr0..cr7.
		if in.Format == FmtI8R && len(sel) > 2 && strings.HasPrefix(strings.ToLower(sel), "cr") {
			sel = sel[2:]
		}
		if inst.Imm, err = a.valueOrZero(sel); err != nil {
			return err
		}
	case FmtFI64:
		if err = a.wantOps(mnem, ops, 2); err != nil {
			return err
		}
		if inst.Rd, err = parseReg(ops[0]); err != nil {
			return err
		}
		f, ferr := strconv.ParseFloat(ops[1], 64)
		if ferr != nil {
			return fmt.Errorf("bad float %q: %v", ops[1], ferr)
		}
		inst.Imm = int64(math.Float64bits(f))
	case FmtI32:
		if err = a.wantOps(mnem, ops, 1); err != nil {
			return err
		}
		if inst.Imm, err = a.valueOrZero(ops[0]); err != nil {
			return err
		}
	}
	// Pass 1 sizes the instruction by encoding it with the values it has
	// so far (0 for a symbol not yet defined): lengths depend only on the
	// format, so labels are laid out exactly.
	buf, eerr := Encode(nil, inst)
	if eerr != nil {
		return eerr
	}
	if a.pass == 1 {
		a.pc += Word(len(buf))
		return nil
	}
	a.emit(buf...)
	return nil
}

func (a *assembler) wantOps(mnem string, ops []string, n int) error {
	if len(ops) != n {
		return fmt.Errorf("%s wants %d operands, got %d", mnem, n, len(ops))
	}
	return nil
}

func (a *assembler) parseMem(s string) (base Reg, disp int32, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	sign := int64(1)
	regPart, dispPart := inner, ""
	if i := strings.IndexAny(inner, "+-"); i > 0 {
		if inner[i] == '-' {
			sign = -1
		}
		regPart, dispPart = inner[:i], inner[i+1:]
	}
	base, err = parseReg(strings.TrimSpace(regPart))
	if err != nil {
		return 0, 0, err
	}
	if dispPart != "" {
		v, verr := a.valueOrZero(strings.TrimSpace(dispPart))
		if verr != nil {
			return 0, 0, verr
		}
		disp = int32(sign * v)
	}
	return base, disp, nil
}

func parseReg(s string) (Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "sp":
		return RegSP, nil
	case "lr":
		return RegLR, nil
	}
	if len(s) >= 2 && (s[0] == 'r' || s[0] == 'f') {
		n, err := strconv.Atoi(s[1:])
		if err == nil {
			if s[0] == 'r' && n >= 0 && n < NumGPR {
				return Reg(n), nil
			}
			if s[0] == 'f' && n >= 0 && n < NumFPR {
				return FP(n), nil
			}
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

// value resolves a numeric or symbolic expression; the symbol must exist.
func (a *assembler) value(s string) (int64, error) {
	v, ok, err := a.eval(s)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("undefined symbol %q", s)
	}
	return v, nil
}

// valueOrZero resolves like value but tolerates undefined symbols in pass 1
// (forward references), returning 0 for them.
func (a *assembler) valueOrZero(s string) (int64, error) {
	v, ok, err := a.eval(s)
	if err != nil {
		return 0, err
	}
	if !ok {
		if a.pass == 2 {
			return 0, fmt.Errorf("undefined symbol %q", s)
		}
		return 0, nil
	}
	return v, nil
}

func (a *assembler) eval(s string) (v int64, defined bool, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false, fmt.Errorf("empty operand")
	}
	if s == "." {
		return int64(a.pc), true, nil
	}
	if len(s) >= 3 && s[0] == '\'' {
		c, err := strconv.Unquote(s)
		if err != nil || len(c) != 1 {
			return 0, false, fmt.Errorf("bad char literal %s", s)
		}
		return int64(c[0]), true, nil
	}
	// symbol+literal / symbol-literal arithmetic.
	if i := lastSignIndex(s); i > 0 {
		lhs, lok, lerr := a.eval(s[:i])
		if lerr != nil {
			return 0, false, lerr
		}
		rhs, rok, rerr := a.eval(s[i+1:])
		if rerr != nil {
			return 0, false, rerr
		}
		if s[i] == '-' {
			rhs = -rhs
		}
		return lhs + rhs, lok && rok, nil
	}
	if n, err := strconv.ParseInt(s, 0, 64); err == nil {
		return n, true, nil
	}
	if n, err := strconv.ParseUint(s, 0, 64); err == nil {
		return int64(n), true, nil
	}
	if sym, ok := a.symbols[s]; ok {
		return int64(sym), true, nil
	}
	if isIdent(s) {
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("bad value %q", s)
}

// lastSignIndex finds a top-level +/- that separates two terms (not a
// leading sign, not inside 0x numbers' 'x').
func lastSignIndex(s string) int {
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '+' || s[i] == '-' {
			prev := s[i-1]
			if prev == '+' || prev == '-' || prev == 'e' || prev == 'E' {
				continue // exponent or double sign
			}
			return i
		}
	}
	return -1
}

func isIdent(s string) bool {
	for i, r := range s {
		switch {
		case r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
		case i > 0 && r >= '0' && r <= '9':
		default:
			return false
		}
	}
	return len(s) > 0 && !(s[0] >= '0' && s[0] <= '9')
}

// splitOperands splits a comma-separated operand list, respecting brackets
// and quotes.
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	inStr, inChr := false, false
	start := 0
	for i := 0; i < len(s); i++ {
		switch {
		case inStr:
			if s[i] == '"' {
				inStr = false
			}
		case inChr:
			if s[i] == '\'' {
				inChr = false
			}
		case s[i] == '"':
			inStr = true
		case s[i] == '\'':
			inChr = true
		case s[i] == '[':
			depth++
		case s[i] == ']':
			depth--
		case s[i] == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}
