// Package isa defines FISA, the target instruction-set architecture used by
// the FAST reproduction.
//
// FISA is a deliberately CISC-flavoured 32-bit ISA: instructions are variable
// length (1 to 15 bytes), carry condition codes, include REP-prefixed string
// instructions that can loop for hundreds of operations, and require a
// software-filled TLB — the properties of x86 that the FAST paper leans on
// (instruction cracking into µops, trace compression, software TLB entries in
// the trace). The package provides the architectural definition (registers,
// opcodes, flags), a binary encoder/decoder, and a small assembler used to
// build the toyOS kernel and the synthetic workloads.
package isa

import "fmt"

// Word is the natural machine word of the target.
type Word = uint32

// Architectural general-purpose registers. R13 is the conventional stack
// pointer, R14 the link register; R15 is a plain GPR.
const (
	NumGPR = 16
	NumFPR = 8

	RegSP = 13 // stack pointer by software convention
	RegLR = 14 // link register by software convention
)

// Reg names a general-purpose register (0..15) or, with the FPR bit set, a
// floating-point register (F0..F7).
type Reg uint8

// RegNone marks an unused register slot in decoded instructions and trace
// entries.
const RegNone Reg = 0xFF

// FPRBase offsets floating-point register names so that integer and FP
// registers share one namespace in trace entries.
const FPRBase Reg = 0x20

// FP returns the register name of floating-point register i.
func FP(i int) Reg { return FPRBase + Reg(i) }

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= FPRBase && r < FPRBase+NumFPR }

func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("F%d", r-FPRBase)
	case r == RegSP:
		return "SP"
	case r == RegLR:
		return "LR"
	case int(r) < NumGPR:
		return fmt.Sprintf("R%d", r)
	default:
		return fmt.Sprintf("R?%d", uint8(r))
	}
}

// Condition-code flag bits held in the FLAGS register.
const (
	FlagZ Word = 1 << 0 // zero
	FlagN Word = 1 << 1 // negative
	FlagC Word = 1 << 2 // carry
	FlagV Word = 1 << 3 // overflow
	FlagI Word = 1 << 4 // interrupts enabled
	FlagU Word = 1 << 5 // user mode (0 = kernel)
)

// Control registers, written via MOVCR/MOVRC in kernel mode.
const (
	CRIVT     = 0 // interrupt vector table base (physical)
	CRPaging  = 1 // nonzero enables TLB translation in user mode
	CRFaultVA = 2 // faulting virtual address of the last TLB miss
	CRKSP     = 3 // kernel scratch (by convention, the kernel stack top)
	CRCycles  = 4 // free-running retired-instruction counter (read-only)
	CREPC     = 5 // trap: PC to return to
	CREFLAGS  = 6 // trap: saved FLAGS
	CRECause  = 7 // trap: vector number
	NumCR     = 8
)

// CRCpuID is a read-only pseudo control register holding the core's id in a
// multicore target (0 on core 0 and on every single-core target). It sits
// above NumCR so it occupies no slot in the writable CR file: MOVRC
// special-cases it like CRCycles, and a MOVCR to it is ignored by the
// NumCR bound check.
const CRCpuID = 8

// Vector numbers in the interrupt vector table. Vectors 0..15 are exceptions
// raised by instruction execution; 16..31 are external interrupts delivered
// by the interrupt controller.
const (
	VecReset     = 0
	VecIllegal   = 1
	VecDivZero   = 2
	VecTLBMiss   = 3
	VecProt      = 4
	VecSyscall   = 5
	VecBreak     = 6
	VecAlign     = 7
	VecFPError   = 8
	VecIRQBase   = 16
	VecTimer     = VecIRQBase + 0
	VecDisk      = VecIRQBase + 1
	VecConsole   = VecIRQBase + 2
	VecNIC       = VecIRQBase + 3
	NumVectors   = 32
	VectorStride = 4 // bytes per IVT slot (each holds a handler PC)
)

// Op is a FISA opcode. Opcodes occupy 8 bits in the primary map; opcode
// 0xFF escapes to a secondary map (two-byte opcodes), mirroring x86's
// escape-byte structure so that the ISA has >256 nameable operations and the
// trace layer has something real to compress into 11 bits.
type Op uint16

// Primary one-byte opcode map. Opcode 0 is deliberately reserved/invalid so
// that execution of zero-filled memory faults instead of sliding through a
// NOP sled.
const (
	opReserved Op = iota
	OpNop
	OpHalt
	OpMovRR  // rd <- rs
	OpMovRI  // rd <- imm32
	OpMovRI8 // rd <- sext(imm8)
	OpAddRR  // rd <- rd + rs, sets flags
	OpAddRI  // rd <- rd + imm32
	OpSubRR
	OpSubRI
	OpAndRR
	OpAndRI
	OpOrRR
	OpOrRI
	OpXorRR
	OpXorRI
	OpShlRR
	OpShlRI8
	OpShrRR
	OpShrRI8
	OpSarRR
	OpSarRI8
	OpMulRR // 32x32 -> low 32
	OpDivRR // rd <- rd / rs ; raises #DE on rs==0
	OpModRR
	OpNegR
	OpNotR
	OpIncR
	OpDecR
	OpCmpRR // flags <- rd - rs
	OpCmpRI
	OpTestRR // flags <- rd & rs
	OpLea    // rd <- rb + disp16
	OpLdW    // rd <- mem32[rb + disp16]
	OpLdH    // rd <- zext(mem16[rb + disp16])
	OpLdB    // rd <- zext(mem8[rb + disp16])
	OpStW    // mem32[rb + disp16] <- rs
	OpStH
	OpStB
	OpPush // mem32[--SP] <- rs
	OpPop  // rd <- mem32[SP++]
	OpJmp  // pc <- pc + rel16 (relative to next instruction)
	OpJz
	OpJnz
	OpJl  // signed less (N != V)
	OpJge // signed >=
	OpJg  // signed >
	OpJle // signed <=
	OpJc
	OpJnc
	OpJmpR  // pc <- rs (indirect)
	OpCall  // LR <- next pc; pc <- pc + rel16
	OpCallR // LR <- next pc; pc <- rs
	OpRet   // pc <- LR
	OpLoop  // R2--; if R2 != 0 jump rel16 (x86 LOOP with its implicit count register)
	OpMovs  // mem8[R1++] <- mem8[R0++]; with REP repeats R2 times
	OpStos  // mem8[R1++] <- low8(R3); with REP repeats R2 times
	OpLods  // R3 <- mem8[R0++]; with REP repeats R2 times
	OpCmps  // flags <- mem8[R0++] - mem8[R1++]; REPE loops while equal
	OpScas  // flags <- low8(R3) - mem8[R1++]; REPE loops while equal
	OpSyscall
	OpIret
	OpCli
	OpSti
	OpTlbWr // write TLB entry: VPN in rd, PFN|perm in rs (kernel only)
	OpTlbFl // flush entire TLB (kernel only)
	OpMovCR // CR[imm8] <- rs (kernel only)
	OpMovRC // rd <- CR[imm8] (kernel only)
	OpIn    // rd <- io[imm16]
	OpOut   // io[imm16] <- rs
	OpBreak // breakpoint trap
	OpCpuid // rd <- ISA identification constant
	OpPause // spin-loop hint; no architectural effect
	OpLl    // rd <- mem32[rb + disp16], acquiring a load-link reservation
	OpSc    // store-conditional: if the reservation holds, mem32[rb+disp16] <- rd, rd <- 1; else rd <- 0. Sets Z from rd.
	numPrimary
)

// Secondary (escape 0xFF) opcode map: floating point and long-immediate
// forms. These are the instructions the prototype's microcode compiler only
// partially covers (Table 1's FP coverage story).
const (
	opSecondaryBase Op = 0x100

	OpFAdd Op = opSecondaryBase + iota // fd <- fd + fs
	OpFSub
	OpFMul
	OpFDiv // raises #FP on fs == 0
	OpFSqrt
	OpFAbs
	OpFNeg
	OpFMov
	OpFCmp   // flags <- compare(fd, fs)
	OpFLd    // fd <- mem64[rb + disp16]
	OpFSt    // mem64[rb + disp16] <- fs
	OpFLdI   // fd <- immediate float64 (8-byte immediate; a 10-15 byte inst)
	OpI2F    // fd <- float64(rs)
	OpF2I    // rd <- int32(fs)
	OpJmpFar // pc <- imm32 absolute (5-byte + escape = 6-byte inst)
	OpCallFar
	numSecondaryEnd
)

// NumOpcodes is the size of a dense opcode table covering both maps.
const NumOpcodes = int(numSecondaryEnd)

// Prefix bytes. PrefixREP turns the string instructions into data-dependent
// loops; PrefixLock is accepted and ignored (uniprocessor target).
const (
	PrefixREP  byte = 0xF0
	PrefixLock byte = 0xF1
	escapeByte byte = 0xFF
)

// Format describes how an opcode's operands are encoded.
type Format uint8

const (
	FmtNone  Format = iota // op
	FmtRR                  // op, rd<<4|rs
	FmtR                   // op, rd<<4
	FmtRI8                 // op, rd<<4, imm8
	FmtRI32                // op, rd<<4, imm32le
	FmtRM                  // op, rd<<4|rb, disp16le
	FmtRel16               // op, rel16le
	FmtI8R                 // op, rd<<4, imm8  (MovCR/MovRC: imm selects CR)
	FmtI16R                // op, rd<<4, imm16le (In/Out port forms)
	FmtFI64                // op, fd<<4, imm64le (FLdI)
	FmtI32                 // op, imm32le (far jumps)
)

// Class buckets opcodes by the functional-unit resource they consume in the
// timing model.
type Class uint8

const (
	ClassALU Class = iota
	ClassLoad
	ClassStore
	ClassBranch
	ClassFPU
	ClassSystem
	ClassString // cracked into many µops; uses Load+Store+ALU resources
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassFPU:
		return "fpu"
	case ClassSystem:
		return "system"
	case ClassString:
		return "string"
	}
	return "?"
}

// Info is the static description of one opcode.
type Info struct {
	Op      Op
	Name    string
	Format  Format
	Class   Class
	Branch  bool // any control transfer
	Cond    bool // conditional control transfer
	FP      bool // floating-point unit instruction
	Priv    bool // kernel-mode only
	ReadsCC bool
}

var infoTable [NumOpcodes]Info

func define(op Op, name string, f Format, c Class, set func(*Info)) {
	in := Info{Op: op, Name: name, Format: f, Class: c}
	if set != nil {
		set(&in)
	}
	infoTable[op] = in
}

func init() {
	br := func(i *Info) { i.Branch = true }
	brc := func(i *Info) { i.Branch = true; i.Cond = true; i.ReadsCC = true }
	priv := func(i *Info) { i.Priv = true }
	fp := func(i *Info) { i.FP = true }

	define(OpNop, "nop", FmtNone, ClassALU, nil)
	define(OpHalt, "halt", FmtNone, ClassSystem, priv)
	define(OpMovRR, "mov", FmtRR, ClassALU, nil)
	define(OpMovRI, "movi", FmtRI32, ClassALU, nil)
	define(OpMovRI8, "movi8", FmtRI8, ClassALU, nil)
	define(OpAddRR, "add", FmtRR, ClassALU, nil)
	define(OpAddRI, "addi", FmtRI32, ClassALU, nil)
	define(OpSubRR, "sub", FmtRR, ClassALU, nil)
	define(OpSubRI, "subi", FmtRI32, ClassALU, nil)
	define(OpAndRR, "and", FmtRR, ClassALU, nil)
	define(OpAndRI, "andi", FmtRI32, ClassALU, nil)
	define(OpOrRR, "or", FmtRR, ClassALU, nil)
	define(OpOrRI, "ori", FmtRI32, ClassALU, nil)
	define(OpXorRR, "xor", FmtRR, ClassALU, nil)
	define(OpXorRI, "xori", FmtRI32, ClassALU, nil)
	define(OpShlRR, "shl", FmtRR, ClassALU, nil)
	define(OpShlRI8, "shli", FmtRI8, ClassALU, nil)
	define(OpShrRR, "shr", FmtRR, ClassALU, nil)
	define(OpShrRI8, "shri", FmtRI8, ClassALU, nil)
	define(OpSarRR, "sar", FmtRR, ClassALU, nil)
	define(OpSarRI8, "sari", FmtRI8, ClassALU, nil)
	define(OpMulRR, "mul", FmtRR, ClassALU, nil)
	define(OpDivRR, "div", FmtRR, ClassALU, nil)
	define(OpModRR, "mod", FmtRR, ClassALU, nil)
	define(OpNegR, "neg", FmtR, ClassALU, nil)
	define(OpNotR, "not", FmtR, ClassALU, nil)
	define(OpIncR, "inc", FmtR, ClassALU, nil)
	define(OpDecR, "dec", FmtR, ClassALU, nil)
	define(OpCmpRR, "cmp", FmtRR, ClassALU, nil)
	define(OpCmpRI, "cmpi", FmtRI32, ClassALU, nil)
	define(OpTestRR, "test", FmtRR, ClassALU, nil)
	define(OpLea, "lea", FmtRM, ClassALU, nil)
	define(OpLdW, "ldw", FmtRM, ClassLoad, nil)
	define(OpLdH, "ldh", FmtRM, ClassLoad, nil)
	define(OpLdB, "ldb", FmtRM, ClassLoad, nil)
	define(OpStW, "stw", FmtRM, ClassStore, nil)
	define(OpStH, "sth", FmtRM, ClassStore, nil)
	define(OpStB, "stb", FmtRM, ClassStore, nil)
	define(OpPush, "push", FmtR, ClassStore, nil)
	define(OpPop, "pop", FmtR, ClassLoad, nil)
	define(OpJmp, "jmp", FmtRel16, ClassBranch, br)
	define(OpJz, "jz", FmtRel16, ClassBranch, brc)
	define(OpJnz, "jnz", FmtRel16, ClassBranch, brc)
	define(OpJl, "jl", FmtRel16, ClassBranch, brc)
	define(OpJge, "jge", FmtRel16, ClassBranch, brc)
	define(OpJg, "jg", FmtRel16, ClassBranch, brc)
	define(OpJle, "jle", FmtRel16, ClassBranch, brc)
	define(OpJc, "jc", FmtRel16, ClassBranch, brc)
	define(OpJnc, "jnc", FmtRel16, ClassBranch, brc)
	define(OpJmpR, "jmpr", FmtR, ClassBranch, br)
	define(OpCall, "call", FmtRel16, ClassBranch, br)
	define(OpCallR, "callr", FmtR, ClassBranch, br)
	define(OpRet, "ret", FmtNone, ClassBranch, br)
	define(OpLoop, "loop", FmtRel16, ClassBranch, func(i *Info) {
		i.Branch = true
		i.Cond = true // condition comes from the counter register, not CC
	})
	define(OpMovs, "movs", FmtNone, ClassString, nil)
	define(OpStos, "stos", FmtNone, ClassString, nil)
	define(OpLods, "lods", FmtNone, ClassString, nil)
	define(OpCmps, "cmps", FmtNone, ClassString, nil)
	define(OpScas, "scas", FmtNone, ClassString, nil)
	define(OpSyscall, "syscall", FmtNone, ClassSystem, br)
	define(OpIret, "iret", FmtNone, ClassSystem, func(i *Info) {
		i.Branch = true
		i.Priv = true
	})
	define(OpCli, "cli", FmtNone, ClassSystem, priv)
	define(OpSti, "sti", FmtNone, ClassSystem, priv)
	define(OpTlbWr, "tlbwr", FmtRR, ClassSystem, priv)
	define(OpTlbFl, "tlbfl", FmtNone, ClassSystem, priv)
	define(OpMovCR, "movcr", FmtI8R, ClassSystem, priv)
	define(OpMovRC, "movrc", FmtI8R, ClassSystem, priv)
	define(OpIn, "in", FmtI16R, ClassSystem, priv)
	define(OpOut, "out", FmtI16R, ClassSystem, priv)
	define(OpBreak, "break", FmtNone, ClassSystem, br)
	define(OpCpuid, "cpuid", FmtR, ClassALU, nil)
	define(OpPause, "pause", FmtNone, ClassALU, nil)
	define(OpLl, "ll", FmtRM, ClassLoad, nil)
	define(OpSc, "sc", FmtRM, ClassStore, nil)

	define(OpFAdd, "fadd", FmtRR, ClassFPU, fp)
	define(OpFSub, "fsub", FmtRR, ClassFPU, fp)
	define(OpFMul, "fmul", FmtRR, ClassFPU, fp)
	define(OpFDiv, "fdiv", FmtRR, ClassFPU, fp)
	define(OpFSqrt, "fsqrt", FmtRR, ClassFPU, fp)
	define(OpFAbs, "fabs", FmtRR, ClassFPU, fp)
	define(OpFNeg, "fneg", FmtRR, ClassFPU, fp)
	define(OpFMov, "fmov", FmtRR, ClassFPU, fp)
	define(OpFCmp, "fcmp", FmtRR, ClassFPU, fp)
	define(OpFLd, "fld", FmtRM, ClassLoad, fp)
	define(OpFSt, "fst", FmtRM, ClassStore, fp)
	define(OpFLdI, "fldi", FmtFI64, ClassFPU, fp)
	define(OpI2F, "i2f", FmtRR, ClassFPU, fp)
	define(OpF2I, "f2i", FmtRR, ClassFPU, fp)
	define(OpJmpFar, "jmpf", FmtI32, ClassBranch, br)
	define(OpCallFar, "callf", FmtI32, ClassBranch, br)

	for op := opReserved + 1; op < numPrimary; op++ {
		if infoTable[op].Name == "" {
			panic(fmt.Sprintf("isa: opcode %d has no definition", op))
		}
	}
	for _, op := range Opcodes() {
		nameIndex[infoTable[op].Name] = op
	}
}

// Lookup returns the static description of op. It panics on an opcode
// outside both maps; use Valid to probe.
func Lookup(op Op) Info {
	if !Valid(op) {
		panic(fmt.Sprintf("isa: invalid opcode %#x", uint16(op)))
	}
	return infoTable[op]
}

// Valid reports whether op is a defined opcode in either map.
func Valid(op Op) bool {
	if op < numPrimary {
		return infoTable[op].Name != ""
	}
	return op >= opSecondaryBase && op < numSecondaryEnd && infoTable[op].Name != ""
}

// Opcodes returns every defined opcode, primary map first.
func Opcodes() []Op {
	ops := make([]Op, 0, NumOpcodes)
	for op := opReserved + 1; op < numPrimary; op++ {
		ops = append(ops, op)
	}
	for op := opSecondaryBase; op < numSecondaryEnd; op++ {
		if infoTable[op].Name != "" {
			ops = append(ops, op)
		}
	}
	return ops
}

// ByName resolves an assembler mnemonic to its opcode.
func ByName(name string) (Op, bool) {
	op, ok := nameIndex[name]
	return op, ok
}

// nameIndex is populated by init after the opcode table is defined (package
// variable initializers run before init functions, so it cannot be built
// inline).
var nameIndex = make(map[string]Op, NumOpcodes)
