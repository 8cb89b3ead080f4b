// Package trace defines the functional-path instruction trace that flows
// from the functional model to the timing model, and the trace buffer (TB)
// that couples them.
//
// §2 of the paper: "The functional model sequentially executes the program,
// generating a functional path instruction trace, and pipes that stream to
// the timing model. ... Each instruction entry in the trace includes
// everything needed by the timing model that the functional model can
// conveniently provide, such as a fixed-length opcode, instruction size,
// source, destination and condition code architectural register names,
// instruction and data virtual addresses and data written to special
// registers, such as software-filled TLB entries."
//
// The architectural register names travel in the entry's instantiated µops
// (Entry.UOps: each µop's sources and destination, and whether it writes the
// condition codes), which the timing model renames from; Entry itself holds
// only what some consumer reads.
package trace

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/microcode"
)

// Entry is one dynamic instruction in the functional-path trace.
type Entry struct {
	IN   uint64   // dynamic instruction number assigned by the FM
	PC   isa.Word // virtual PC
	PPC  isa.Word // physical PC (redundant info that simplifies the TM, §2)
	Op   isa.Op   // compressed 11-bit opcode
	Size uint8    // encoded instruction length in bytes

	// ReadsCC marks a branch that reads the condition codes; the register
	// names themselves ride in UOps.
	ReadsCC bool

	// Control flow.
	Branch bool
	Cond   bool
	Taken  bool
	NextPC isa.Word // PC the functional path followed after this instruction

	// Data memory access, if any.
	MemVA   isa.Word
	MemPA   isa.Word
	MemSize uint8 // 0 = no access
	IsStore bool

	// String-instruction dynamics.
	RepIterations uint32

	// UOps holds one iteration's instantiated µops, carrying the
	// architectural source, destination and condition-code register names;
	// on the FPGA these come from the microcode table indexed by the 11-bit
	// opcode, so they are NOT extra trace bandwidth — carrying them here
	// just saves the TM a re-crack.
	UOps []microcode.UOp

	// Interrupt marks that an external interrupt was delivered immediately
	// before this instruction (it is the first handler instruction).
	Interrupt bool

	// Exceptions discovered by the functional model ("If the functional
	// model discovers an exception, it indicates that in the instruction
	// trace", §3.4).
	Exception bool
	ExcVector uint8

	// Data written to special registers: software-filled TLB entries ride
	// in the trace so the TM's TLB timing models can mirror them.
	TLBWrite bool
	TLBVPN   isa.Word

	// Kernel-mode marker (lets statistics separate OS from user code).
	Kernel bool
}

func (e Entry) String() string {
	s := fmt.Sprintf("#%d pc=%#x %s", e.IN, e.PC, isa.Lookup(e.Op).Name)
	if e.Branch {
		t := "not-taken"
		if e.Taken {
			t = "taken"
		}
		s += fmt.Sprintf(" %s->%#x", t, e.NextPC)
	}
	if e.MemSize != 0 {
		k := "ld"
		if e.IsStore {
			k = "st"
		}
		s += fmt.Sprintf(" %s%d@%#x", k, e.MemSize, e.MemVA)
	}
	return s
}

// Encoding model for link-bandwidth accounting (§4: "We have compressed
// opcodes to 11bits and instructions down to an average of about four 32bit
// words per x86 instruction").
//
// Word layout of the compressed encoding:
//
//	word 0: opcode(11) | size(4) | flags(9) | dst(6) | memsize hint(2)
//	word 1: srcA(6) | srcB(6) | rep-iteration count or 0 (20)
//	word 2: PC (always sent; the TM needs it for fetch modeling)
//	word 3: next-PC (branches only)
//	word 4: data virtual address (memory ops only)
//	word 5: data physical address (memory ops only; redundant info, §2)
//	word 6,7: TLB fill data (TLB writes only)
//
// Branch-free ALU instructions therefore cost 3 words, memory operations 5,
// and the dynamic mix lands near the paper's four words per instruction.

// EncodeOptions selects the trace compression level (ablation A5). The zero
// value is the prototype's compressed encoding, physical addresses included
// (redundant information that simplifies the TM, §2).
type EncodeOptions struct {
	// Uncompressed models the naive encoding: the raw instruction bytes
	// plus full 32-bit fields, as if no opcode/field compression had been
	// implemented.
	Uncompressed bool
}

// Words returns how many 32-bit words e occupies on the host link under o.
func (o EncodeOptions) Words(e *Entry) int {
	if o.Uncompressed {
		// One word per instruction byte region (padded), plus every field
		// uncompacted: opcode, size, 3 regs, flags, PC, next PC, VA, PA,
		// TLB data.
		n := (int(e.Size) + 3) / 4
		return n + 11
	}
	n := 3 // words 0,1,2
	if e.Branch || e.Exception {
		n++
	}
	if e.MemSize != 0 {
		n += 2 // virtual and physical address
	}
	if e.TLBWrite {
		n += 2
	}
	return n
}
