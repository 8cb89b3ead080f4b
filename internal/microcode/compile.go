package microcode

import (
	"fmt"

	"repro/internal/isa"
)

// System-operation subcodes carried in a USys µop's Imm field.
const (
	SysHalt int64 = iota
	SysCli
	SysSti
	SysTlbWr
	SysTlbFl
	SysRdCR
	SysWrCR
	SysSyscall
	SysIret
	SysBreak
	SysCpuid
)

// Compile translates a µC specification into an optimized µop template.
// Placeholder registers (PRd, PRs) and immediate sources (ImmFromImm,
// ImmFromDisp) remain symbolic; Crack instantiates them per dynamic
// instruction.
func Compile(src string) ([]UOp, error) {
	stmts, err := parse(src)
	if err != nil {
		return nil, err
	}
	g := &codegen{}
	for _, s := range stmts {
		if err := g.stmt(s); err != nil {
			return nil, err
		}
	}
	out := g.out
	out = fuseCC(out)
	out = propagateCopies(out)
	out = dropDeadTemps(out)
	if len(out) == 0 {
		out = []UOp{{Kind: UNop, Dst: MRegNone, A: MRegNone, B: MRegNone}}
	}
	return out, nil
}

// MustCompile is Compile for the statically known-good specification table.
func MustCompile(src string) []UOp {
	ops, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return ops
}

type codegen struct {
	out     []UOp
	nextTmp int
}

func (g *codegen) tmp() (MReg, error) {
	if g.nextTmp >= NumTmps {
		return MRegNone, fmt.Errorf("µC: out of temporaries")
	}
	t := Tmp(g.nextTmp)
	g.nextTmp++
	return t, nil
}

// dst returns want, or a fresh temporary when want is MRegNone.
func (g *codegen) dst(want MReg) (MReg, error) {
	if want != MRegNone {
		return want, nil
	}
	return g.tmp()
}

func (g *codegen) emit(u UOp) { g.out = append(g.out, u) }

func regFor(name string) (MReg, bool) {
	switch name {
	case "rd", "fd":
		return PRd, true
	case "rs", "rb", "fs":
		return PRs, true
	case "sp":
		return MReg(isa.RegSP), true
	case "lr":
		return MReg(isa.RegLR), true
	case "pc":
		return MRegPC, true
	}
	if len(name) >= 2 && (name[0] == 't' || name[0] == 'r') {
		n := 0
		for i := 1; i < len(name); i++ {
			if name[i] < '0' || name[i] > '9' {
				return MRegNone, false
			}
			n = n*10 + int(name[i]-'0')
		}
		if name[0] == 't' && n < NumTmps {
			return Tmp(n), true
		}
		// Fixed architectural registers, used by the string instructions
		// (R0 source, R1 destination, R2 count, R3 value).
		if name[0] == 'r' && n < isa.NumGPR {
			return MReg(n), true
		}
	}
	return MRegNone, false
}

// immFor recognizes expressions usable directly as µop immediates.
func immFor(e expr) (int64, ImmSource, bool) {
	switch t := e.(type) {
	case numExpr:
		return t.val, ImmLit, true
	case termExpr:
		switch t.name {
		case "imm":
			return 0, ImmFromImm, true
		case "disp":
			return 0, ImmFromDisp, true
		}
	case unExpr:
		if t.op == "-" {
			if n, ok := t.x.(numExpr); ok {
				return -n.val, ImmLit, true
			}
		}
	}
	return 0, ImmNone, false
}

var binKinds = map[string]UKind{
	"+": UAdd, "-": USub, "&": UAnd, "|": UOr, "^": UXor,
	"<<": UShl, ">>": USar, ">>>": UShr, "*": UMul, "/": UDiv, "%": UMod,
}

func (g *codegen) stmt(s stmt) error {
	if s.dst == "" {
		_, err := g.expr(s.rhs, MRegNone, false)
		return err
	}
	dst, ok := regFor(s.dst)
	if !ok {
		return fmt.Errorf("µC: bad destination %q", s.dst)
	}
	_, err := g.expr(s.rhs, dst, true)
	return err
}

// expr generates code for e. If needValue, the result lands in want (or a
// fresh temporary when want is MRegNone) and that register is returned.
func (g *codegen) expr(e expr, want MReg, needValue bool) (MReg, error) {
	if t, ok := e.(termExpr); ok {
		if r, ok := regFor(t.name); ok {
			if want != MRegNone && want != r {
				g.emit(UOp{Kind: UMov, Dst: want, A: r, B: MRegNone})
				return want, nil
			}
			return r, nil
		}
	}
	switch t := e.(type) {
	case termExpr, numExpr:
		imm, src, ok := immFor(e)
		if !ok {
			return MRegNone, fmt.Errorf("µC: unknown term %q", e.(termExpr).name)
		}
		dst, err := g.dst(want)
		if err != nil {
			return MRegNone, err
		}
		g.emit(UOp{Kind: UMovImm, Dst: dst, A: MRegNone, B: MRegNone, Imm: imm, ImmSrc: src})
		return dst, nil
	case unExpr:
		switch t.op {
		case "-": // 0 - x
			return g.binary(binExpr{op: "-", l: numExpr{0}, r: t.x}, want)
		case "~": // x ^ -1
			return g.binary(binExpr{op: "^", l: t.x, r: numExpr{-1}}, want)
		}
		return MRegNone, fmt.Errorf("µC: unknown unary %q", t.op)
	case binExpr:
		return g.binary(t, want)
	case callExpr:
		return g.call(t, want, needValue)
	}
	return MRegNone, fmt.Errorf("µC: unhandled expression %T", e)
}

func (g *codegen) binary(b binExpr, want MReg) (MReg, error) {
	kind, ok := binKinds[b.op]
	if !ok {
		return MRegNone, fmt.Errorf("µC: unknown operator %q", b.op)
	}
	a, err := g.expr(b.l, MRegNone, true)
	if err != nil {
		return MRegNone, err
	}
	dst, err := g.dst(want)
	if err != nil {
		return MRegNone, err
	}
	if imm, src, ok := immFor(b.r); ok {
		g.emit(UOp{Kind: kind, Dst: dst, A: a, B: MRegNone, Imm: imm, ImmSrc: src})
		return dst, nil
	}
	rb, err := g.expr(b.r, MRegNone, true)
	if err != nil {
		return MRegNone, err
	}
	g.emit(UOp{Kind: kind, Dst: dst, A: a, B: rb})
	return dst, nil
}

// intrinsic is one row of the µC intrinsic table. A call compiles to one
// µop of the row's kind; args has one letter per argument, saying how it
// fills the µop's operands:
//
//	r  a register, filling A, then B
//	i  an immediate: imm, disp or a literal
//	c  a code: whatever i accepts, stored as a literal (imm and disp read 0)
//	?  an immediate if the argument is one, otherwise a register into B
//
// and dst says when the µop gets a destination register.
type intrinsic struct {
	kind UKind
	args string
	dst  dstRule
	cc   bool  // writes the condition codes
	size int64 // access size of a load or store, carried as a literal
}

// dstRule says when an intrinsic's µop gets a destination register.
type dstRule uint8

const (
	dstNever dstRule = iota
	dstAlways
	dstUsed // only where the call's value is used
)

var intrinsics = map[string]intrinsic{
	"load8":  {kind: ULoad, args: "r", dst: dstAlways, size: 1},
	"load16": {kind: ULoad, args: "r", dst: dstAlways, size: 2},
	"load32": {kind: ULoad, args: "r", dst: dstAlways, size: 4},
	"load64": {kind: ULoad, args: "r", dst: dstAlways, size: 8},

	"store8":  {kind: UStore, args: "rr", size: 1},
	"store16": {kind: UStore, args: "rr", size: 2},
	"store32": {kind: UStore, args: "rr", size: 4},
	"store64": {kind: UStore, args: "rr", size: 8},

	"agen":  {kind: UAgen, args: "ri", dst: dstAlways},
	"cc":    {kind: UTest, args: "r", cc: true}, // tests x against itself
	"cmp":   {kind: UCmp, args: "r?", cc: true},
	"jump":  {kind: UBr},
	"jumpr": {kind: UBr, args: "r"},

	"fadd":  {kind: UFAdd, args: "rr", dst: dstAlways},
	"fsub":  {kind: UFSub, args: "rr", dst: dstAlways},
	"fmul":  {kind: UFMul, args: "rr", dst: dstAlways},
	"fdiv":  {kind: UFDiv, args: "rr", dst: dstAlways},
	"fcmp":  {kind: UFCmp, args: "rr", cc: true},
	"fsqrt": {kind: UFSqrt, args: "r", dst: dstAlways},
	"fmov":  {kind: UFMov, args: "r", dst: dstAlways},
	"fcvt":  {kind: UFCvt, args: "r", dst: dstAlways},

	"sys":    {kind: USys, args: "c"},
	"sysr":   {kind: USys, args: "cr", dst: dstUsed},
	"sysrr":  {kind: USys, args: "crr"},
	"sysval": {kind: USys, args: "c", dst: dstAlways},
	"ioin":   {kind: UIO, args: "i", dst: dstAlways},
	"ioout":  {kind: UIO, args: "ir"},
}

// call compiles an intrinsic call from its row. The arguments are generated
// left to right before the destination is allocated, which fixes the
// temporary numbers.
func (g *codegen) call(c callExpr, want MReg, needValue bool) (MReg, error) {
	in, ok := intrinsics[c.fn]
	if !ok {
		return MRegNone, fmt.Errorf("µC: unknown intrinsic %q", c.fn)
	}
	if len(c.args) != len(in.args) {
		return MRegNone, fmt.Errorf("µC: %s wants %d args, got %d", c.fn, len(in.args), len(c.args))
	}
	u := UOp{Kind: in.kind, Dst: MRegNone, A: MRegNone, B: MRegNone, WritesCC: in.cc}
	if in.size != 0 {
		u.Imm, u.ImmSrc = in.size, ImmLit
	}
	regs := [...]*MReg{&u.A, &u.B}
	nreg := 0
	for i, a := range c.args {
		shape := in.args[i]
		if shape != 'r' {
			if imm, src, ok := immFor(a); ok {
				if shape == 'c' {
					src = ImmLit
				}
				u.Imm, u.ImmSrc = imm, src
				continue
			}
			if shape != '?' {
				return MRegNone, fmt.Errorf("µC: %s argument %d must be imm, disp or a literal", c.fn, i+1)
			}
		}
		r, err := g.expr(a, MRegNone, true)
		if err != nil {
			return MRegNone, err
		}
		*regs[nreg] = r
		nreg++
	}
	if in.dst == dstAlways || in.dst == dstUsed && needValue {
		var err error
		if u.Dst, err = g.dst(want); err != nil {
			return MRegNone, err
		}
	}
	if in.kind == UTest {
		u.B = u.A
	}
	g.emit(u)
	return u.Dst, nil
}

// Optimizer passes.

// hasSideEffect reports whether a µop must be preserved regardless of
// whether its destination is read.
func hasSideEffect(u UOp) bool {
	switch u.Kind {
	case UStore, UBr, USys, UIO:
		return true
	}
	return u.WritesCC || u.Dst != MRegNone && !u.Dst.IsTmp()
}

// canWriteCC reports whether the µop kind may carry a fused CC update.
func canWriteCC(k UKind) bool {
	switch k {
	case UAdd, USub, UAnd, UOr, UXor, UShl, UShr, USar, UMul, UDiv, UMod,
		UMov, UMovImm, UAgen, ULoad, UFAdd, UFSub, UFMul, UFDiv, UFCvt:
		return true
	}
	return false
}

// fuseCC merges a `cc(x)` pseudo-µop (UTest x,x) into the immediately
// preceding µop when that µop produced x.
func fuseCC(ops []UOp) []UOp {
	out := ops[:0]
	for _, u := range ops {
		if u.Kind == UTest && u.WritesCC && u.Dst == MRegNone && u.A == u.B && len(out) > 0 {
			prev := &out[len(out)-1]
			if prev.Dst == u.A && canWriteCC(prev.Kind) {
				prev.WritesCC = true
				continue
			}
		}
		out = append(out, u)
	}
	return out
}

func reads(u UOp, r MReg) bool { return r != MRegNone && (u.A == r || u.B == r) }

// propagateCopies retargets `tN = <op> ...; dst = tN` into `dst = <op> ...`
// when tN has no other readers.
func propagateCopies(ops []UOp) []UOp {
	for i := 1; i < len(ops); i++ {
		mov := ops[i]
		if mov.Kind != UMov || !mov.A.IsTmp() || mov.WritesCC {
			continue
		}
		def := -1
		for j := i - 1; j >= 0; j-- {
			if ops[j].Dst == mov.A {
				def = j
				break
			}
			if reads(ops[j], mov.A) {
				def = -2
				break
			}
		}
		if def < 0 {
			continue
		}
		// The temp must not be read anywhere but the move, nor live after.
		used := false
		for j := def + 1; j < len(ops); j++ {
			if j != i && reads(ops[j], mov.A) {
				used = true
				break
			}
		}
		if used {
			continue
		}
		// Retargeting must not break a reader of the new dst between def and i.
		conflict := false
		for j := def + 1; j < i; j++ {
			if reads(ops[j], mov.Dst) || ops[j].Dst == mov.Dst {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		ops[def].Dst = mov.Dst
		ops = append(ops[:i], ops[i+1:]...)
		i--
	}
	return ops
}

// dropDeadTemps removes effect-free µops whose temporary destination is
// never read.
func dropDeadTemps(ops []UOp) []UOp {
	for i := len(ops) - 1; i >= 0; i-- {
		u := ops[i]
		if hasSideEffect(u) || u.Dst == MRegNone || !u.Dst.IsTmp() {
			continue
		}
		live := false
		for j := i + 1; j < len(ops); j++ {
			if reads(ops[j], u.Dst) {
				live = true
				break
			}
			if ops[j].Dst == u.Dst {
				break
			}
		}
		if !live {
			ops = append(ops[:i], ops[i+1:]...)
		}
	}
	return ops
}

// instantiate appends the template, with the decoded instruction's registers
// and immediates substituted, to out.
func instantiate(out, tmpl []UOp, inst isa.Inst) []UOp {
	sub := func(m MReg) MReg {
		switch m {
		case PRd:
			return MReg(inst.Rd)
		case PRs:
			return MReg(inst.Rs)
		}
		return m
	}
	for _, u := range tmpl {
		u.Dst, u.A, u.B = sub(u.Dst), sub(u.A), sub(u.B)
		switch u.ImmSrc {
		case ImmFromImm:
			u.Imm, u.ImmSrc = inst.Imm, ImmLit
		case ImmFromDisp:
			u.Imm, u.ImmSrc = int64(inst.Disp), ImmLit
		}
		out = append(out, u)
	}
	return out
}
