package microcode

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/isa"
)

// specs holds the µC semantic specification for every opcode the compiler
// translates automatically. This is the analogue of the paper's "C code that
// specifies the functionality of each instruction" fed to their microcode
// compiler.
var specs = map[isa.Op]string{
	isa.OpNop:    ``,
	isa.OpMovRR:  `rd = rs`,
	isa.OpMovRI:  `rd = imm`,
	isa.OpMovRI8: `rd = imm`,
	isa.OpAddRR:  `rd = rd + rs; cc(rd)`,
	isa.OpAddRI:  `rd = rd + imm; cc(rd)`,
	isa.OpSubRR:  `rd = rd - rs; cc(rd)`,
	isa.OpSubRI:  `rd = rd - imm; cc(rd)`,
	isa.OpAndRR:  `rd = rd & rs; cc(rd)`,
	isa.OpAndRI:  `rd = rd & imm; cc(rd)`,
	isa.OpOrRR:   `rd = rd | rs; cc(rd)`,
	isa.OpOrRI:   `rd = rd | imm; cc(rd)`,
	isa.OpXorRR:  `rd = rd ^ rs; cc(rd)`,
	isa.OpXorRI:  `rd = rd ^ imm; cc(rd)`,
	isa.OpShlRR:  `rd = rd << rs; cc(rd)`,
	isa.OpShlRI8: `rd = rd << imm; cc(rd)`,
	isa.OpShrRR:  `rd = rd >>> rs; cc(rd)`,
	isa.OpShrRI8: `rd = rd >>> imm; cc(rd)`,
	isa.OpSarRR:  `rd = rd >> rs; cc(rd)`,
	isa.OpSarRI8: `rd = rd >> imm; cc(rd)`,
	isa.OpMulRR:  `rd = rd * rs; cc(rd)`,
	isa.OpDivRR:  `rd = rd / rs; cc(rd)`,
	isa.OpModRR:  `rd = rd % rs; cc(rd)`,
	isa.OpNegR:   `rd = -rd; cc(rd)`,
	isa.OpNotR:   `rd = ~rd; cc(rd)`,
	isa.OpIncR:   `rd = rd + 1; cc(rd)`,
	isa.OpDecR:   `rd = rd - 1; cc(rd)`,
	isa.OpCmpRR:  `cmp(rd, rs)`,
	isa.OpCmpRI:  `cmp(rd, imm)`,
	isa.OpTestRR: `cc(rd & rs)`,
	isa.OpLea:    `rd = agen(rb, disp)`,
	isa.OpLdW:    `rd = load32(agen(rb, disp))`,
	isa.OpLdH:    `rd = load16(agen(rb, disp))`,
	isa.OpLdB:    `rd = load8(agen(rb, disp))`,
	isa.OpStW:    `store32(agen(rb, disp), rd)`,
	isa.OpStH:    `store16(agen(rb, disp), rd)`,
	isa.OpStB:    `store8(agen(rb, disp), rd)`,
	isa.OpPush:   `sp = sp - 4; store32(sp, rd)`,
	isa.OpPop:    `rd = load32(sp); sp = sp + 4`,
	isa.OpJmp:    `jump()`,
	isa.OpJz:     `jump()`,
	isa.OpJnz:    `jump()`,
	isa.OpJl:     `jump()`,
	isa.OpJge:    `jump()`,
	isa.OpJg:     `jump()`,
	isa.OpJle:    `jump()`,
	isa.OpJc:     `jump()`,
	isa.OpJnc:    `jump()`,
	isa.OpJmpR:   `jumpr(rd)`,
	isa.OpCall:   `lr = pc; jump()`,
	isa.OpCallR:  `lr = pc; jumpr(rd)`,
	isa.OpRet:    `jumpr(lr)`,
	isa.OpLoop:   `r2 = r2 - 1; cc(r2); jump()`,
	isa.OpMovs:   `t0 = load8(r0); store8(r1, t0); r0 = r0 + 1; r1 = r1 + 1`,
	isa.OpStos:   `store8(r1, r3); r1 = r1 + 1`,
	isa.OpLods:   `r3 = load8(r0); r0 = r0 + 1`,
	isa.OpCmps:   `t0 = load8(r0); t1 = load8(r1); cmp(t0, t1); r0 = r0 + 1; r1 = r1 + 1`,
	isa.OpScas:   `t0 = load8(r1); cmp(r3, t0); r1 = r1 + 1`,
	isa.OpCpuid:  `rd = 0x46495341`, // "FISA"
	isa.OpPause:  ``,
	isa.OpLl:     `rd = load32(agen(rb, disp))`,

	// Floating point the compiler does translate (simple data movement):
	// everything else FP is NOP-replaced below, reproducing the paper's
	// partial FP coverage (Table 1).
	isa.OpFMov: `fd = fmov(fs)`,
	isa.OpFLd:  `fd = load64(agen(rb, disp))`,
	isa.OpFSt:  `store64(agen(rb, disp), fd)`,
	isa.OpI2F:  `fd = fcvt(rs)`,

	isa.OpJmpFar:  `jump()`,
	isa.OpCallFar: `lr = pc; jump()`,
}

// handSpecs are system instructions whose microcode was "inserted into the
// table by hand" (§4.3): the compiler does not reason about privileged
// state, so these entries are authored directly.
var handSpecs = map[isa.Op]string{
	isa.OpHalt:    `sys(0)`,
	isa.OpSyscall: `sys(7); jump()`,
	isa.OpIret:    `sys(8); jump()`,
	isa.OpCli:     `sys(1)`,
	isa.OpSti:     `sys(2)`,
	isa.OpTlbWr:   `sysrr(3, rd, rs)`,
	isa.OpTlbFl:   `sys(4)`,
	isa.OpMovCR:   `sysr(6, rd)`,
	isa.OpMovRC:   `rd = sysval(5)`,
	isa.OpIn:      `rd = ioin(imm)`,
	isa.OpOut:     `ioout(imm, rd)`,
	isa.OpBreak:   `sys(9); jump()`,
	// Store-conditional: the conditional store is not expressible in µC
	// (no control flow inside a template), so the entry is authored by
	// hand — a store µop, the success flag materialized into rd, and the
	// condition codes set from it.
	isa.OpSc: `store32(agen(rb, disp), rd); rd = 1; cc(rd)`,
}

// nopReplaced lists opcodes with no translation yet; they are "replaced
// with a NOP" (§4.3) and counted as invalid microcode in Table 1's coverage
// fraction. The prototype "supports only about 25% of the dynamic floating
// point instructions": data movement is covered, arithmetic is not.
var nopReplaced = []isa.Op{
	isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt,
	isa.OpFAbs, isa.OpFNeg, isa.OpFCmp, isa.OpFLdI, isa.OpF2I,
}

// repOverheadSpec is appended per iteration of a REP-prefixed string
// instruction: decrement the count and loop.
const repOverheadSpec = `r2 = r2 - 1; cc(r2); jump()`

// Entry is one microcode table row.
type Entry struct {
	Op       isa.Op
	Template []UOp
	Source   Source
	// Valid reports whether the entry carries real microcode (auto or
	// hand). NOP-replaced entries execute but enforce no dependencies,
	// which is why eon runs *faster* than its BP accuracy suggests (§4.4).
	Valid bool
}

// UopCount returns the µop count of one execution (one iteration for string
// instructions).
func (e Entry) UopCount() int { return len(e.Template) }

// Table is the microcode lookup table: "to first order, a lookup table"
// mapping each opcode to its µop sequence.
type Table struct {
	entries     [isa.NumOpcodes]Entry
	repOverhead []UOp
}

// NewTable compiles every specification and builds the full table.
func NewTable() *Table {
	t := &Table{repOverhead: MustCompile(repOverheadSpec)}
	for _, op := range isa.Opcodes() {
		switch {
		case specs[op] != "" || op == isa.OpNop || op == isa.OpPause:
			t.entries[op] = Entry{Op: op, Template: MustCompile(specs[op]), Source: SourceAuto, Valid: true}
		case handSpecs[op] != "":
			t.entries[op] = Entry{Op: op, Template: MustCompile(handSpecs[op]), Source: SourceHand, Valid: true}
		}
	}
	for _, op := range nopReplaced {
		t.entries[op] = Entry{Op: op, Template: MustCompile(``), Source: SourceNop, Valid: false}
	}
	for _, op := range isa.Opcodes() {
		if t.entries[op].Template == nil {
			panic(fmt.Sprintf("microcode: opcode %s has no table entry", isa.Lookup(op).Name))
		}
		if len(t.entries[op].Template)+len(t.repOverhead) > math.MaxUint8 {
			panic(fmt.Sprintf("microcode: opcode %s has too many µops for a Precracked", isa.Lookup(op).Name))
		}
	}
	return t
}

// Entry returns the table row for op.
func (t *Table) Entry(op isa.Op) Entry { return t.entries[op] }

// RepOverhead returns the per-iteration loop-control µops of a REP prefix.
func (t *Table) RepOverhead() []UOp { return t.repOverhead }

// Crack is the cracked form of one dynamic instruction.
type Crack struct {
	UOps  []UOp // µops of one iteration, registers/immediates instantiated
	Count int   // total dynamic µops including REP iterations
	Valid bool  // entry has real microcode
}

// Crack expands a decoded instruction into µops. iterations is the dynamic
// REP iteration count observed by the functional model (1 for ordinary
// instructions; a REP executed with count 0 still costs its loop-control
// µops).
func (t *Table) Crack(inst isa.Inst, iterations int) Crack {
	p := t.Precrack(inst)
	return p.Crack(iterations)
}

// Precracked is the memoized crack of one *static* instruction: its
// register/immediate-instantiated µops in one slice. ops[:nBody] is one
// iteration of the body, ops[nBody:] the REP loop-control overhead (empty
// without REP), so a REP iteration's µops are ops itself. The functional
// model's predecode cache stores one Precracked per cached instruction so
// steady-state execution re-instantiates nothing; only the dynamic REP
// iteration count still varies per execution and is supplied to Crack.
//
// The memoized slice is shared by every Crack result (and therefore by
// every trace entry) derived from it — it must be treated as immutable,
// which the timing model already guarantees (it copies µops into its own
// in-flight structures).
type Precracked struct {
	valid bool
	rep   bool
	nBody uint8 // body length; NewTable keeps every body plus overhead within it
	ops   []UOp
}

// Precrack instantiates the table templates for inst once, for reuse across
// dynamic executions via Precracked.Crack. It allocates one slice.
func (t *Table) Precrack(inst isa.Inst) Precracked {
	e := t.entries[inst.Op]
	var over []UOp
	if inst.Rep {
		over = t.repOverhead
	}
	ops := instantiate(make([]UOp, 0, len(e.Template)+len(over)), e.Template, inst)
	return Precracked{valid: e.Valid, rep: inst.Rep, nBody: uint8(len(e.Template)), ops: instantiate(ops, over, inst)}
}

// Crack is the cracked form of one dynamic execution of the instruction this
// Precracked was built from, without re-instantiating any template
// (TestPrecrackMatchesCrack checks it against an independent expansion).
func (p *Precracked) Crack(iterations int) Crack {
	c := Crack{Valid: p.valid, UOps: p.ops, Count: len(p.ops)}
	switch {
	case p.rep && iterations < 1:
		c.UOps = p.ops[p.nBody:]
		c.Count = len(c.UOps)
	case p.rep:
		c.Count = iterations * len(p.ops)
	}
	return c
}

// CoverageStats aggregates Table 1: the fraction of dynamic instructions
// with valid microcode and the dynamic µops per instruction.
type CoverageStats struct {
	Instructions uint64 // dynamic instructions executed
	Covered      uint64 // with valid microcode
	UOps         uint64 // total dynamic µops (NOP replacements count 1)
}

// Add accumulates one dynamic instruction cracked as c.
func (s *CoverageStats) Add(c Crack) {
	s.Instructions++
	if c.Valid {
		s.Covered++
	}
	n := c.Count
	if n < 1 {
		n = 1
	}
	s.UOps += uint64(n)
}

// Fraction is Table 1's "Fraction" column.
func (s CoverageStats) Fraction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Covered) / float64(s.Instructions)
}

// UopsPerInst is Table 1's "µOps/inst" column.
func (s CoverageStats) UopsPerInst() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.UOps) / float64(s.Instructions)
}

// Merge folds other into s.
func (s *CoverageStats) Merge(other CoverageStats) {
	s.Instructions += other.Instructions
	s.Covered += other.Covered
	s.UOps += other.UOps
}

// Listing renders the whole table as text (used by cmd/ucc).
func (t *Table) Listing() string {
	type row struct {
		op isa.Op
		s  string
	}
	var rows []row
	for _, op := range isa.Opcodes() {
		e := t.entries[op]
		s := fmt.Sprintf("%-8s [%s]", isa.Lookup(op).Name, e.Source)
		for _, u := range e.Template {
			s += "\n    " + u.String()
		}
		rows = append(rows, row{op, s})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].op < rows[j].op })
	out := ""
	for _, r := range rows {
		out += r.s + "\n"
	}
	return out
}
