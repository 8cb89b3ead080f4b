package fm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fullsys"
	"repro/internal/isa"
	"repro/internal/microcode"
	"repro/internal/trace"
)

// Step executes one dynamic instruction (delivering a pending interrupt
// first when enabled) and returns its trace entry. ok is false when the
// target is halted or has hit a fatal condition (see Fatal) — no entry is
// produced then.
func (m *Model) Step() (trace.Entry, bool) {
	if !m.step() {
		return trace.Entry{}, false
	}
	return m.ent, true
}

// step is Step leaving the entry in the Model's scratch entry, where it
// stays valid until the next instruction.
func (m *Model) step() bool {
	m.cut.left = 0
	if m.halted || m.fatal != nil {
		return false
	}
	m.journal.begin(m)
	now := m.Now()
	if m.Bus.NextDue() <= now {
		m.journal.noteBus(m)
	}
	m.Bus.Tick(now)

	// Interrupt delivery at the instruction boundary. The prototype "does
	// not model interrupts ... accurately (though they are handled
	// functionally correctly)" — the same holds here: the FM delivers at
	// its own boundary; the TM replays the resulting trace.
	interrupted := false
	if !m.cfg.DisableInterrupts && m.Flags&isa.FlagI != 0 {
		if line := m.Bus.Pending(); line >= 0 {
			if !m.replay {
				m.Interrupts++
			}
			if !m.deliverTrap(uint8(isa.VecIRQBase+line), m.PC, 0) {
				m.journal.abort(m)
				return false
			}
			interrupted = true
		}
	}

	e := &m.ent
	p, ppc, f := m.fetchDecode(m.PC)
	if f == nil {
		f = m.issue(p, m.PC, ppc)
	} else {
		// Fetch fault: nothing was decoded, the entry is a placeholder.
		p = &undecoded
		*e = trace.Entry{}
		e.IN, e.PC, e.Kernel = m.in, m.PC, m.Kernel()
	}
	e.Interrupt = interrupted
	if f != nil {
		m.faultEntry(e, p, f)
	}
	if m.fatal != nil {
		// An unhandled trap, raised by the instruction or for its fault.
		m.journal.abort(m)
		return false
	}
	m.finishEntry(e, p)
	return true
}

// issue is the per-instruction body Step and Produce share: it starts the
// Model's scratch entry for the predecoded instruction p fetched from virtual
// address pc / physical address ppc — cleared, then filled by field stores,
// never built as a value and copied in — and executes it. The caller finishes
// the entry in place (faultEntry on the returned fault, then finishEntry).
func (m *Model) issue(p *predecoded, pc, ppc isa.Word) *fault {
	e := &m.ent
	*e = trace.Entry{}
	e.IN, e.PC, e.PPC, e.Kernel = m.in, pc, ppc, m.Kernel()
	e.Op, e.Size = p.inst.Op, uint8(p.inst.Size)
	e.ReadsCC = p.readsCC
	return m.execute(p, pc+isa.Word(p.inst.Size), e)
}

// Fatal returns the unrecoverable condition that stopped the model, if any
// (an unhandled trap with no vector table installed).
func (m *Model) Fatal() error { return m.fatal }

// fetchDecode fetches and decodes the instruction at virtual address pc and
// returns its predecoded record and physical address. With the predecode
// cache enabled (icache.go) the steady-state path is translate → probe →
// done, with no byte copies and no isa.Decode call; a miss decodes and fills
// the cache, unless the instruction spans two pages. The record lives in the
// cache slot — or, with the cache off or for a spanning instruction, in the
// Model's scratch — so it is only valid until the next fetch: the caller
// consumes it within the same instruction.
func (m *Model) fetchDecode(pc isa.Word) (*predecoded, isa.Word, *fault) {
	pa, f := m.translate(pc, false)
	if f != nil {
		return nil, 0, f
	}
	if !m.Mem.InRange(pa, 1) {
		return nil, 0, &fault{vector: isa.VecProt, faultVA: pc, retry: true}
	}
	if e, ok := m.icache.probe(pa); ok {
		return &e.predecoded, pa, nil
	}
	inst, spans, f := m.decode(pc, pa)
	if f != nil {
		return nil, 0, f
	}
	if m.icache == nil || spans {
		m.decoded = predecode(inst)
		return &m.decoded, pa, nil
	}
	return &m.icache.fill(pa, inst).predecoded, pa, nil
}

// decode runs the variable-length decoder over the instruction at virtual
// address pc, physical address pa: first over the bytes up to pa's page end,
// then — only if those do not decode and the next page translates — over
// them followed by the next page's, in which case the instruction spans the
// two pages. A fault translating the next page is the architectural outcome
// of a fetch whose first page does not decode.
func (m *Model) decode(pc, pa isa.Word) (isa.Inst, bool, *fault) {
	var buf [isa.MaxInstLen]byte
	n := min(isa.MaxInstLen, int(fullsys.PageSize-pa&(fullsys.PageSize-1)), m.Mem.Size()-int(pa))
	m.Mem.CopyOut(buf[:n], pa)
	if inst, derr := isa.Decode(buf[:n], pc); derr == nil {
		return inst, false, nil
	}
	if n < isa.MaxInstLen {
		pa2, f := m.translate(pc+isa.Word(n), false)
		if f != nil {
			return isa.Inst{}, false, f
		}
		if m.Mem.InRange(pa2, 1) {
			n2 := min(isa.MaxInstLen-n, m.Mem.Size()-int(pa2))
			m.Mem.CopyOut(buf[n:n+n2], pa2)
			if inst, derr := isa.Decode(buf[:n+n2], pc); derr == nil {
				return inst, true, nil
			}
		}
	}
	return isa.Inst{}, false, &fault{vector: isa.VecIllegal, faultVA: pc}
}

// faultEntry marks, in place, the trace entry of an instruction that raised
// an exception: the FM indicates the exception in the trace (§3.4) and steers
// to the handler. A trap with no handler leaves the entry alone and the fatal
// condition set; the caller aborts the instruction.
func (m *Model) faultEntry(e *trace.Entry, p *predecoded, f *fault) {
	if !m.replay {
		m.Exceptions++
	}
	epc := m.PC
	if !f.retry {
		epc = m.PC + isa.Word(p.inst.Size)
	}
	if !m.deliverTrap(f.vector, epc, f.faultVA) {
		return
	}
	e.Exception = true
	e.ExcVector = f.vector
	e.Branch = true
	e.Taken = true
	e.NextPC = m.PC // handler address
	if p.inst.Size == 0 {
		e.Op = isa.OpNop // fetch fault: no opcode was decoded
		e.Size = 0
	}
}

// finishEntry completes the entry in place: it cracks the instruction from
// its predecoded µop instantiation, accounts trace bandwidth and advances
// the instruction number.
func (m *Model) finishEntry(e *trace.Entry, p *predecoded) {
	iters := int(e.RepIterations)
	if !p.inst.Rep {
		iters = 1
	}
	if p.inst.Size != 0 {
		// A decoded instruction: the decoder admits only valid opcodes, so
		// only the fetch-fault placeholder (undecoded) takes the else arm.
		c := p.pre.Crack(iters)
		if !m.replay {
			m.Coverage.Add(c)
		}
		e.UOps = c.UOps
	} else if !m.replay {
		// Fetch fault placeholder: one µop, valid.
		m.Coverage.Instructions++
		m.Coverage.Covered++
		m.Coverage.UOps++
	}
	if !m.replay {
		m.TraceWords += uint64(m.cfg.Encoding.Words(e))
	}
	m.in++
}

// deliverTrap enters the kernel through the IVT. Returns false (and sets
// the fatal condition) when no handler is installed.
func (m *Model) deliverTrap(vec uint8, epc isa.Word, faultVA isa.Word) bool {
	vecAddr := m.CR[isa.CRIVT] + isa.Word(vec)*isa.VectorStride
	if !m.Mem.InRange(vecAddr, 4) {
		m.fatal = fmt.Errorf("fm: trap vector %d: IVT slot %#x outside memory", vec, vecAddr)
		return false
	}
	handler := isa.Word(m.Mem.Read(vecAddr, 4))
	if handler == 0 {
		m.fatal = fmt.Errorf("fm: unhandled trap vector %d at pc %#x", vec, m.PC)
		return false
	}
	m.CR[isa.CREPC] = epc
	m.CR[isa.CREFLAGS] = m.Flags
	m.CR[isa.CRECause] = isa.Word(vec)
	m.CR[isa.CRFaultVA] = faultVA
	m.Flags &^= isa.FlagI | isa.FlagU
	m.PC = handler
	return true
}

// setFlagsZN sets Z and N from v, clearing C and V.
func (m *Model) setFlagsZN(v isa.Word) {
	m.Flags &^= isa.FlagZ | isa.FlagN | isa.FlagC | isa.FlagV
	if v == 0 {
		m.Flags |= isa.FlagZ
	}
	if int32(v) < 0 {
		m.Flags |= isa.FlagN
	}
}

// setFlagsAdd sets all four flags for r = a + b.
func (m *Model) setFlagsAdd(a, b, r isa.Word) {
	m.setFlagsZN(r)
	if r < a {
		m.Flags |= isa.FlagC
	}
	if (^(a ^ b) & (a ^ r) >> 31) != 0 {
		m.Flags |= isa.FlagV
	}
}

// setFlagsSub sets all four flags for r = a - b.
func (m *Model) setFlagsSub(a, b, r isa.Word) {
	m.setFlagsZN(r)
	if a < b {
		m.Flags |= isa.FlagC
	}
	if ((a ^ b) & (a ^ r) >> 31) != 0 {
		m.Flags |= isa.FlagV
	}
}

// setFlagsFloat sets Z/N from a float compare a-b.
func (m *Model) setFlagsFloat(a, b float64) {
	m.Flags &^= isa.FlagZ | isa.FlagN | isa.FlagC | isa.FlagV
	switch {
	case a == b:
		m.Flags |= isa.FlagZ
	case a < b:
		m.Flags |= isa.FlagN | isa.FlagC
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		m.Flags |= isa.FlagV
	}
}

// cond evaluates a conditional branch predicate from FLAGS.
func (m *Model) cond(op isa.Op) bool {
	z := m.Flags&isa.FlagZ != 0
	n := m.Flags&isa.FlagN != 0
	c := m.Flags&isa.FlagC != 0
	v := m.Flags&isa.FlagV != 0
	switch op {
	case isa.OpJz:
		return z
	case isa.OpJnz:
		return !z
	case isa.OpJl:
		return n != v
	case isa.OpJge:
		return n == v
	case isa.OpJg:
		return !z && n == v
	case isa.OpJle:
		return z || n != v
	case isa.OpJc:
		return c
	case isa.OpJnc:
		return !c
	}
	panic(fmt.Sprintf("fm: cond on %v", op))
}

// fpRegOf extracts the FPR index from a register name known to be FP.
func fpRegOf(r isa.Reg) int { return int(r - isa.FPRBase) }

// execute runs one predecoded instruction. nextPC is the fall-through PC. It
// fills the dynamic fields of the trace entry and updates m.PC. A
// kernel-only instruction in user mode raises a protection fault.
func (m *Model) execute(p *predecoded, nextPC isa.Word, e *trace.Entry) *fault {
	if p.priv && !m.Kernel() {
		return &fault{vector: isa.VecProt, faultVA: m.PC, retry: false}
	}
	inst := &p.inst
	// branchTo marks the entry a control transfer to target, taken or not,
	// and moves nextPC to it when taken.
	branchTo := func(target isa.Word, taken bool) {
		e.Branch, e.Cond, e.Taken = true, p.cond, taken
		if taken {
			nextPC = target
		}
		e.NextPC = nextPC
	}

	switch inst.Op {
	case isa.OpNop, isa.OpPause:
	case isa.OpHalt:
		m.halted = true
	case isa.OpMovRR:
		m.GPR[inst.Rd] = m.GPR[inst.Rs]
	case isa.OpMovRI, isa.OpMovRI8:
		m.GPR[inst.Rd] = isa.Word(inst.Imm)
	case isa.OpAddRR, isa.OpAddRI:
		a := m.GPR[inst.Rd]
		b := m.aluOperand(inst)
		r := a + b
		m.GPR[inst.Rd] = r
		m.setFlagsAdd(a, b, r)
	case isa.OpSubRR, isa.OpSubRI:
		a := m.GPR[inst.Rd]
		b := m.aluOperand(inst)
		r := a - b
		m.GPR[inst.Rd] = r
		m.setFlagsSub(a, b, r)
	case isa.OpAndRR, isa.OpAndRI:
		m.GPR[inst.Rd] &= m.aluOperand(inst)
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpOrRR, isa.OpOrRI:
		m.GPR[inst.Rd] |= m.aluOperand(inst)
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpXorRR, isa.OpXorRI:
		m.GPR[inst.Rd] ^= m.aluOperand(inst)
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpShlRR, isa.OpShlRI8:
		m.GPR[inst.Rd] <<= m.aluOperand(inst) & 31
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpShrRR, isa.OpShrRI8:
		m.GPR[inst.Rd] >>= m.aluOperand(inst) & 31
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpSarRR, isa.OpSarRI8:
		m.GPR[inst.Rd] = isa.Word(int32(m.GPR[inst.Rd]) >> (m.aluOperand(inst) & 31))
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpMulRR:
		m.GPR[inst.Rd] *= m.GPR[inst.Rs]
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpDivRR, isa.OpModRR:
		d := int32(m.GPR[inst.Rs])
		if d == 0 {
			return &fault{vector: isa.VecDivZero, faultVA: m.PC, retry: true}
		}
		a := int32(m.GPR[inst.Rd])
		if a == math.MinInt32 && d == -1 {
			// Wrap instead of faulting (documented ISA choice).
			if inst.Op == isa.OpDivRR {
				m.GPR[inst.Rd] = isa.Word(1) << 31
			} else {
				m.GPR[inst.Rd] = 0
			}
		} else if inst.Op == isa.OpDivRR {
			m.GPR[inst.Rd] = isa.Word(a / d)
		} else {
			m.GPR[inst.Rd] = isa.Word(a % d)
		}
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpNegR:
		m.GPR[inst.Rd] = -m.GPR[inst.Rd]
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpNotR:
		m.GPR[inst.Rd] = ^m.GPR[inst.Rd]
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpIncR:
		m.GPR[inst.Rd]++
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpDecR:
		m.GPR[inst.Rd]--
		m.setFlagsZN(m.GPR[inst.Rd])
	case isa.OpCmpRR, isa.OpCmpRI:
		a := m.GPR[inst.Rd]
		b := m.aluOperand(inst)
		m.setFlagsSub(a, b, a-b)
	case isa.OpTestRR:
		m.setFlagsZN(m.GPR[inst.Rd] & m.GPR[inst.Rs])
	case isa.OpLea:
		m.GPR[inst.Rd] = m.GPR[inst.Rs] + isa.Word(inst.Disp)
	case isa.OpLdW, isa.OpLdH, isa.OpLdB:
		size := memAccessSize(inst.Op)
		va := m.GPR[inst.Rs] + isa.Word(inst.Disp)
		v, pa, f := m.load(va, size)
		if f != nil {
			return f
		}
		m.GPR[inst.Rd] = isa.Word(v)
		e.MemVA, e.MemPA, e.MemSize = va, pa, uint8(size)
	case isa.OpStW, isa.OpStH, isa.OpStB:
		size := memAccessSize(inst.Op)
		va := m.GPR[inst.Rs] + isa.Word(inst.Disp)
		pa, f := m.store(va, uint64(m.GPR[inst.Rd]), size)
		if f != nil {
			return f
		}
		e.MemVA, e.MemPA, e.MemSize, e.IsStore = va, pa, uint8(size), true
	case isa.OpPush:
		va := m.GPR[isa.RegSP] - 4
		pa, f := m.store(va, uint64(m.GPR[inst.Rd]), 4)
		if f != nil {
			return f
		}
		m.GPR[isa.RegSP] = va
		e.MemVA, e.MemPA, e.MemSize, e.IsStore = va, pa, 4, true
	case isa.OpPop:
		va := m.GPR[isa.RegSP]
		v, pa, f := m.load(va, 4)
		if f != nil {
			return f
		}
		m.GPR[inst.Rd] = isa.Word(v)
		m.GPR[isa.RegSP] = va + 4
		e.MemVA, e.MemPA, e.MemSize = va, pa, 4
	case isa.OpLl:
		// Load-linked: an ordinary word load that also records the link
		// (address + loaded value) in the architectural link register. The
		// link lives in Scalars, so rollback restores it exactly and a
		// checkpoint replay reproduces the original ll/sc outcomes.
		va := m.GPR[inst.Rs] + isa.Word(inst.Disp)
		v, pa, f := m.load(va, 4)
		if f != nil {
			return f
		}
		m.GPR[inst.Rd] = isa.Word(v)
		m.LLValid, m.LLAddr, m.LLVal = true, va, isa.Word(v)
		e.MemVA, e.MemPA, e.MemSize = va, pa, 4
	case isa.OpSc:
		// Store-conditional: succeeds iff the link is live, names this
		// address, and the word in memory still holds the linked value —
		// an intervening store (own or remote core, committed or undone)
		// that changed the value fails the sc. Because success is a pure
		// function of (Scalars, memory), it needs no hidden reservation
		// state and is stable under rollback re-execution.
		va := m.GPR[inst.Rs] + isa.Word(inst.Disp)
		pa, f := m.translate(va, true)
		if f != nil {
			return f
		}
		if !m.Mem.InRange(pa, 4) {
			return &fault{vector: isa.VecProt, faultVA: va, retry: true}
		}
		ok := m.LLValid && va == m.LLAddr && isa.Word(m.Mem.Read(pa, 4)) == m.LLVal
		m.LLValid = false // the link is consumed either way
		if ok {
			m.journal.noteMem(m, pa, 4)
			m.icache.noteStore(pa, 4)
			m.Mem.Write(pa, uint64(m.GPR[inst.Rd]), 4)
			m.GPR[inst.Rd] = 1
		} else {
			m.GPR[inst.Rd] = 0
		}
		m.setFlagsZN(m.GPR[inst.Rd]) // Z set on failure: `jz retry`
		e.MemVA, e.MemPA, e.MemSize, e.IsStore = va, pa, 4, ok
	case isa.OpJmp:
		branchTo(nextPC+isa.Word(int32(inst.Imm)), true)
	case isa.OpJz, isa.OpJnz, isa.OpJl, isa.OpJge, isa.OpJg, isa.OpJle, isa.OpJc, isa.OpJnc:
		branchTo(nextPC+isa.Word(int32(inst.Imm)), m.cond(inst.Op))
	case isa.OpJmpR:
		branchTo(m.GPR[inst.Rd], true)
	case isa.OpCall:
		m.GPR[isa.RegLR] = nextPC
		branchTo(nextPC+isa.Word(int32(inst.Imm)), true)
	case isa.OpCallR:
		target := m.GPR[inst.Rd]
		m.GPR[isa.RegLR] = nextPC
		branchTo(target, true)
	case isa.OpRet:
		branchTo(m.GPR[isa.RegLR], true)
	case isa.OpLoop:
		// x86-style LOOP: the count register is implicit (R2, the string
		// count register).
		m.GPR[2]--
		m.setFlagsZN(m.GPR[2])
		branchTo(nextPC+isa.Word(int32(inst.Imm)), m.GPR[2] != 0)
	case isa.OpMovs, isa.OpStos, isa.OpLods, isa.OpCmps, isa.OpScas:
		if f := m.execString(*inst, e); f != nil {
			return f
		}
	case isa.OpSyscall:
		// A trap by design, not an exception: EPC is the next instruction
		// and the trace records an ordinary taken branch to the handler.
		if !m.deliverTrap(isa.VecSyscall, nextPC, 0) {
			return nil // fatal set; Step aborts
		}
		branchTo(m.PC, true)
	case isa.OpBreak:
		if !m.deliverTrap(isa.VecBreak, nextPC, 0) {
			return nil
		}
		branchTo(m.PC, true)
	case isa.OpIret:
		m.Flags = m.CR[isa.CREFLAGS]
		branchTo(m.CR[isa.CREPC], true)
	case isa.OpCli:
		m.Flags &^= isa.FlagI
	case isa.OpSti:
		m.Flags |= isa.FlagI
	case isa.OpTlbWr:
		m.journal.noteTLB(m)
		vpn := m.GPR[inst.Rd]
		val := m.GPR[inst.Rs]
		entry := fullsys.TLBEntry{
			VPN:   vpn,
			PFN:   val >> fullsys.PageShift,
			Valid: true,
			User:  val&fullsys.TLBFlagUser != 0,
			Write: val&fullsys.TLBFlagWrite != 0,
		}
		m.TLB.Insert(entry)
		e.TLBWrite, e.TLBVPN = true, vpn
	case isa.OpTlbFl:
		m.journal.noteTLB(m)
		m.TLB.Reset()
	case isa.OpMovCR:
		if int(inst.Imm) < isa.NumCR {
			m.CR[inst.Imm] = m.GPR[inst.Rd]
		}
	case isa.OpMovRC:
		switch inst.Imm {
		case isa.CRCycles:
			m.GPR[inst.Rd] = isa.Word(m.Now())
		case isa.CRCpuID:
			m.GPR[inst.Rd] = isa.Word(m.cfg.CoreID)
		default:
			if int(inst.Imm) < isa.NumCR {
				m.GPR[inst.Rd] = m.CR[inst.Imm]
			}
		}
	case isa.OpIn:
		m.journal.noteBus(m)
		m.GPR[inst.Rd] = m.Bus.In(uint16(inst.Imm), m.Now())
	case isa.OpOut:
		m.journal.noteBus(m)
		m.Bus.Out(uint16(inst.Imm), m.GPR[inst.Rd], m.Now())
	case isa.OpCpuid:
		m.GPR[inst.Rd] = 0x46495341 // "FISA"
	case isa.OpFMov:
		m.FPR[fpRegOf(inst.Rd)] = m.FPR[fpRegOf(inst.Rs)]
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
		a := m.FPR[fpRegOf(inst.Rd)]
		b := m.FPR[fpRegOf(inst.Rs)]
		var r float64
		switch inst.Op {
		case isa.OpFAdd:
			r = a + b
		case isa.OpFSub:
			r = a - b
		case isa.OpFMul:
			r = a * b
		case isa.OpFDiv:
			if b == 0 {
				return &fault{vector: isa.VecFPError, faultVA: m.PC, retry: true}
			}
			r = a / b
		}
		m.FPR[fpRegOf(inst.Rd)] = r
		m.setFlagsFloat(r, 0)
	case isa.OpFSqrt:
		m.FPR[fpRegOf(inst.Rd)] = math.Sqrt(m.FPR[fpRegOf(inst.Rs)])
	case isa.OpFAbs:
		m.FPR[fpRegOf(inst.Rd)] = math.Abs(m.FPR[fpRegOf(inst.Rs)])
	case isa.OpFNeg:
		m.FPR[fpRegOf(inst.Rd)] = -m.FPR[fpRegOf(inst.Rs)]
	case isa.OpFCmp:
		m.setFlagsFloat(m.FPR[fpRegOf(inst.Rd)], m.FPR[fpRegOf(inst.Rs)])
	case isa.OpFLd:
		va := m.GPR[inst.Rs] + isa.Word(inst.Disp)
		v, pa, f := m.load(va, 8)
		if f != nil {
			return f
		}
		m.FPR[fpRegOf(inst.Rd)] = math.Float64frombits(v)
		e.MemVA, e.MemPA, e.MemSize = va, pa, 8
	case isa.OpFSt:
		va := m.GPR[inst.Rs] + isa.Word(inst.Disp)
		pa, f := m.store(va, math.Float64bits(m.FPR[fpRegOf(inst.Rd)]), 8)
		if f != nil {
			return f
		}
		e.MemVA, e.MemPA, e.MemSize, e.IsStore = va, pa, 8, true
	case isa.OpFLdI:
		m.FPR[fpRegOf(inst.Rd)] = inst.Float()
	case isa.OpI2F:
		m.FPR[fpRegOf(inst.Rd)] = float64(int32(m.GPR[inst.Rs]))
	case isa.OpF2I:
		f := m.FPR[fpRegOf(inst.Rs)]
		switch {
		case math.IsNaN(f):
			m.GPR[inst.Rd] = 0
		case f >= math.MaxInt32:
			m.GPR[inst.Rd] = isa.Word(math.MaxInt32)
		case f <= math.MinInt32:
			m.GPR[inst.Rd] = isa.Word(1) << 31
		default:
			m.GPR[inst.Rd] = isa.Word(int32(f))
		}
	case isa.OpJmpFar:
		branchTo(isa.Word(inst.Imm), true)
	case isa.OpCallFar:
		m.GPR[isa.RegLR] = nextPC
		branchTo(isa.Word(inst.Imm), true)
	default:
		return &fault{vector: isa.VecIllegal, faultVA: m.PC}
	}
	m.PC = nextPC
	return nil
}

// memAccessSize maps a scalar load/store opcode to its access width.
func memAccessSize(op isa.Op) int {
	switch op {
	case isa.OpLdW, isa.OpStW:
		return 4
	case isa.OpLdH, isa.OpStH:
		return 2
	}
	return 1
}

// aluOperand returns the second ALU operand: the Rs register for RR forms,
// the immediate otherwise.
func (m *Model) aluOperand(inst *isa.Inst) isa.Word {
	if inst.Rs != isa.RegNone {
		return m.GPR[inst.Rs]
	}
	return isa.Word(inst.Imm)
}

// execString runs one string instruction, including REP loops, updating the
// fixed registers R0 (source), R1 (destination), R2 (count) and R3 (value).
func (m *Model) execString(inst isa.Inst, e *trace.Entry) *fault {
	iters := 1
	if inst.Rep {
		iters = int(m.GPR[2])
		if iters > m.cfg.RepCap {
			iters = m.cfg.RepCap
		}
		if iters <= 0 {
			e.RepIterations = 0
			return nil
		}
	}
	var done int
	var f *fault
	if inst.Op == isa.OpMovs || inst.Op == isa.OpStos {
		done, f = m.execStringStore(inst.Op == isa.OpMovs, iters, e)
	} else {
		done, f = m.execStringLoad(inst, iters, e)
	}
	if inst.Rep {
		// Partial progress is architectural (x86 REP semantics): on a fault
		// the count register reflects completed iterations and the trap
		// retries the instruction.
		m.GPR[2] -= isa.Word(done)
		e.RepIterations = uint32(done)
	}
	return f
}

// stringRun translates va and returns the physical address plus the length
// of the longest run of at most limit bytes from va that stays inside va's
// page and inside physical memory. Within such a run a byte-at-a-time loop
// would translate to consecutive physical addresses and could not fault.
func (m *Model) stringRun(va isa.Word, limit int, wr bool) (isa.Word, int, *fault) {
	pa, f := m.translate(va, wr)
	if f != nil {
		return 0, 0, f
	}
	if !m.Mem.InRange(pa, 1) {
		return 0, 0, &fault{vector: isa.VecProt, faultVA: va, retry: true}
	}
	return pa, min(limit, int(fullsys.PageSize-va&(fullsys.PageSize-1)), m.Mem.Size()-int(pa)), nil
}

// execStringStore runs movs/stos a run at a time instead of a byte at a
// time: each run is one physically contiguous span inside one page, so it
// costs one translation per side, ONE journal entry holding the old
// destination bytes, one predecode-cache notification and one bulk copy or
// fill. The architectural outcome — memory, registers, the faulting
// address and the iterations completed before it — is that of the byte loop.
// It returns the completed iterations.
func (m *Model) execStringStore(movs bool, iters int, e *trace.Entry) (int, *fault) {
	for done := 0; done < iters; {
		n := iters - done
		va, store := m.GPR[0], false
		var spa, dpa isa.Word
		var f *fault
		if movs {
			spa, n, f = m.stringRun(va, n, false)
		}
		if f == nil {
			va, store = m.GPR[1], true
			dpa, n, f = m.stringRun(va, n, true)
		}
		if done == 0 {
			// The trace records the first access: the destination, or the
			// source when its load faulted before any store was attempted.
			pa, _ := m.translate(va, store)
			e.MemVA, e.MemPA, e.MemSize, e.IsStore = va, pa, 1, store
		}
		if f != nil {
			return done, f
		}
		m.journal.noteMem(m, dpa, n)
		m.icache.noteStore(dpa, n)
		if movs {
			m.Mem.CopyForward(dpa, spa, n)
			m.GPR[0] += isa.Word(n)
		} else {
			m.Mem.Fill(dpa, n, byte(m.GPR[3]))
		}
		m.GPR[1] += isa.Word(n)
		done += n
	}
	return iters, nil
}

// execStringLoad runs lods/cmps/scas: loads only, nothing to journal. It
// returns the completed iterations.
func (m *Model) execStringLoad(inst isa.Inst, iters int, e *trace.Entry) (int, *fault) {
	for done := 0; done < iters; done++ {
		var f *fault
		var va isa.Word
		switch inst.Op {
		case isa.OpLods:
			va = m.GPR[0]
			var v uint64
			v, _, f = m.load(va, 1)
			if f == nil {
				m.GPR[3] = isa.Word(v)
				m.GPR[0]++
			}
		case isa.OpCmps:
			va = m.GPR[0]
			var a, b uint64
			a, _, f = m.load(m.GPR[0], 1)
			if f == nil {
				b, _, f = m.load(m.GPR[1], 1)
			}
			if f == nil {
				m.setFlagsSub(isa.Word(a), isa.Word(b), isa.Word(a)-isa.Word(b))
				m.GPR[0]++
				m.GPR[1]++
			}
		case isa.OpScas:
			va = m.GPR[1]
			var b uint64
			b, _, f = m.load(va, 1)
			if f == nil {
				a := m.GPR[3] & 0xFF
				m.setFlagsSub(a, isa.Word(b), a-isa.Word(b))
				m.GPR[1]++
			}
		}
		if done == 0 {
			pa, _ := m.translate(va, false)
			e.MemVA, e.MemPA, e.MemSize, e.IsStore = va, pa, 1, false
		}
		if f != nil {
			return done, f
		}
		// REPE termination for the compare forms: stop when not equal.
		if inst.Rep && (inst.Op == isa.OpCmps || inst.Op == isa.OpScas) && m.Flags&isa.FlagZ == 0 {
			return done + 1, nil
		}
	}
	return iters, nil
}

// predecoded is everything the FM derives from an instruction's bytes alone:
// the decoded instruction, its µop instantiation (which carries the
// architectural register names the TM renames from) and the opcode-table
// bits issue and execute read (so neither copies the table row). It is
// computed once per static instruction by predecode and is the one record
// the whole front end passes around — a predecode-cache slot embeds it, a
// superblock walks the slots, and the cache-off fetch returns the Model's
// scratch copy.
type predecoded struct {
	inst isa.Inst
	pre  microcode.Precracked

	readsCC    bool
	priv, cond bool // kernel-only; conditional control transfer
	ends       bool // blockTerminator: the instruction ends a superblock
}

// undecoded stands in for the instruction of a fetch fault: nothing was
// decoded, so the entry is finished as a one-µop placeholder.
var undecoded predecoded

// table is the one process-wide microcode table: immutable once compiled
// (Precrack only reads it), so every model and every core shares it.
var table = sync.OnceValue(microcode.NewTable)

// predecode derives inst's static record.
func predecode(inst isa.Inst) predecoded {
	in := inst.Info()
	return predecoded{
		inst: inst, pre: table().Precrack(inst),
		readsCC: in.ReadsCC, priv: in.Priv, cond: in.Cond,
		ends: blockTerminator(inst.Op),
	}
}
