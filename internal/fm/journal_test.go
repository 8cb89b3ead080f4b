package fm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/fullsys"
	"repro/internal/isa"
	"repro/internal/snap"
	"repro/internal/trace"
)

// memCopy copies n bytes of m's memory at pa out for comparison.
func memCopy(m *Model, pa isa.Word, n int) []byte {
	b := make([]byte, n)
	m.Mem.CopyOut(b, pa)
	return b
}

// byteLoopString is the reference semantics of movs/stos: one translated
// load and one journaled store per byte, exactly the loop execStringStore
// replaced. It exists only so the run-granular executor has something
// independent to be compared against.
func byteLoopString(m *Model, inst isa.Inst, e *trace.Entry) *fault {
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
	done := uint32(0)
	for i := 0; i < iters; i++ {
		var f *fault
		var va isa.Word
		store := false
		if inst.Op == isa.OpMovs {
			var v uint64
			v, _, f = m.load(m.GPR[0], 1)
			if f == nil {
				va, store = m.GPR[1], true
				_, f = m.store(va, v, 1)
			} else {
				va = m.GPR[0]
			}
			if f == nil {
				m.GPR[0]++
				m.GPR[1]++
			}
		} else {
			va, store = m.GPR[1], true
			_, f = m.store(va, uint64(m.GPR[3]&0xFF), 1)
			if f == nil {
				m.GPR[1]++
			}
		}
		if i == 0 {
			pa, _ := m.translate(va, store)
			e.MemVA, e.MemPA, e.MemSize, e.IsStore = va, pa, 1, store
		}
		if f != nil {
			if inst.Rep {
				m.GPR[2] -= done
				e.RepIterations = done
			}
			return f
		}
		done++
	}
	if inst.Rep {
		m.GPR[2] -= done
		e.RepIterations = done
	}
	return nil
}

// repTestModel builds a 16-page model filled with seeded noise. When paged
// it runs in user mode behind a TLB that scatters virtual pages over
// physical ones: neighbours are physically discontiguous, two virtual
// pages alias one frame, some pages are read-only, unmapped, or map past
// the end of memory, and the top virtual page maps so runs can wrap.
func repTestModel(seed int64, paged bool, repCap int) *Model {
	m := New(Config{MemBytes: 16 * fullsys.PageSize, DisableInterrupts: true, RepCap: repCap, ICacheEntries: 64})
	rng := rand.New(rand.NewSource(seed))
	mem := make([]byte, m.Mem.Size())
	rng.Read(mem)
	m.Mem.Load(0, mem)
	if !paged {
		return m
	}
	m.Flags |= isa.FlagU
	m.CR[isa.CRPaging] = 1
	for vpn, pfn := range map[isa.Word]isa.Word{
		0: 5, 1: 3, 2: 4, 3: 9, 4: 9, 5: 1, 6: 15, 7: 16, 9: 2, 10: 6, 0xFFFFF: 7,
	} {
		m.TLB.Insert(fullsys.TLBEntry{VPN: vpn, PFN: pfn, Valid: true, User: true, Write: vpn != 5})
	}
	return m
}

// TestRepStoreMatchesByteLoop: on identical machines, one rep movs/stos run
// through execString and one through the byte loop must agree on memory,
// registers, the trace entry and the fault — and undoing either must
// restore the original memory. Cases mix overlap distances (0, 1, inside
// and beyond the count, both directions), page-crossing runs, faults
// mid-rep (TLB miss, read-only page, frame past MemBytes), RepCap clamping
// and address wrap.
func TestRepStoreMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const page = fullsys.PageSize
	bases := []isa.Word{0, 1, page - 3, page, 2*page - 1, 3*page + 100, 4*page - 40,
		5*page - 7, 6*page + 4000, 7*page - 9, 8*page - 5, 9*page + 17, 10*page - 1,
		11*page - 60, 15*page + 4000, 16*page - 3, 16 * page, 0xFFFFF000 + 4000, 0xFFFFFFFF}
	counts := []int{0, 1, 2, 7, 64, 300, 4096, 5000, 9000, 70000}
	for trial := 0; trial < 600; trial++ {
		paged := trial%2 == 0
		repCap := []int{0, 100, 6000}[rng.Intn(3)]
		inst := isa.Inst{Op: isa.OpStos, Rep: rng.Intn(8) != 0}
		if rng.Intn(2) == 0 {
			inst.Op = isa.OpMovs
		}
		count := counts[rng.Intn(len(counts))]
		dst := bases[rng.Intn(len(bases))]
		src := bases[rng.Intn(len(bases))]
		switch rng.Intn(4) { // overlap: distance 0, 1, inside the count, or unrelated
		case 0:
			src = dst
		case 1:
			src = dst + isa.Word(rng.Intn(3)-1)
		case 2:
			src = dst + isa.Word(rng.Intn(2*count+1)-count)
		}
		name := fmt.Sprintf("trial %d (paged=%v cap=%d %v rep=%v src=%#x dst=%#x n=%d)",
			trial, paged, repCap, inst.Op, inst.Rep, src, dst, count)

		run := func(exec func(*Model, isa.Inst, *trace.Entry) *fault) (*Model, trace.Entry, *fault, []byte) {
			m := repTestModel(int64(trial), paged, repCap)
			before := memCopy(m, 0, m.Mem.Size())
			m.GPR[0], m.GPR[1], m.GPR[2], m.GPR[3] = src, dst, isa.Word(count), isa.Word(trial)
			m.journal.begin(m)
			var e trace.Entry
			f := exec(m, inst, &e)
			return m, e, f, before
		}
		got, gotE, gotF, before := run((*Model).execString)
		want, wantE, wantF, _ := run(byteLoopString)

		if (gotF == nil) != (wantF == nil) || gotF != nil && *gotF != *wantF {
			t.Fatalf("%s: fault %+v, byte loop %+v", name, gotF, wantF)
		}
		if !entriesEqual(gotE, wantE) {
			t.Fatalf("%s: entry\n got %+v\nwant %+v", name, gotE, wantE)
		}
		if got.Scalars != want.Scalars {
			t.Fatalf("%s: registers\n got %+v\nwant %+v", name, got.GPR, want.GPR)
		}
		if !bytes.Equal(memCopy(got, 0, got.Mem.Size()), memCopy(want, 0, want.Mem.Size())) {
			t.Fatalf("%s: memory differs from the byte loop", name)
		}
		for _, m := range []*Model{got, want} {
			m.journal.undoTop(m)
			if !bytes.Equal(memCopy(m, 0, m.Mem.Size()), before) {
				t.Fatalf("%s: undo did not restore memory", name)
			}
		}
	}
}

// repOS is a minimal paged kernel plus a user-mode interpreter of a
// descriptor table at 0x10000 ({op, src, dst, count, value} words; op 1 =
// rep movs, 2 = rep stos, 0 = end). The TLB-miss handler maps code and
// table pages 1:1 and data pages (VPN 0x20..0x5F) to their odd/even
// neighbour frame, every fourth one read-only until the protection handler
// upgrades it; VPNs from 0x60 map past physical memory, where the
// protection handler abandons the rep by zeroing its count. With 64 data
// pages behind a 32-entry TLB, misses and read-only faults recur mid-rep
// throughout a run, and every miss writes the console, so device state is
// journaled too. Descriptors may target `target`, the immediate of an
// instruction the loop executes, so rep stos also patches live code.
const repOS = `
	.org 0
	.space 256
	.org 0x400
tlbmiss:
	movrc r11, cr2
	shri  r11, 12
	out   r11, 0x10
	mov   r12, r11
	cmpi  r11, 0x20
	jl    rw
	cmpi  r11, 0x60
	jge   beyond
	xori  r12, 1
	mov   r13, r11
	andi  r13, 3
	cmpi  r13, 3
	jnz   rw
	shli  r12, 12
	ori   r12, 1
	tlbwr r11, r12
	iret
beyond:
	addi  r12, 0x100
rw:
	shli  r12, 12
	ori   r12, 3
	tlbwr r11, r12
	iret
prot:
	movrc r11, cr2
	shri  r11, 12
	cmpi  r11, 0x60
	jge   giveup
	mov   r12, r11
	xori  r12, 1
	shli  r12, 12
	ori   r12, 3
	tlbwr r11, r12
	iret
giveup:
	movi  r2, 0
	iret
sys:
	halt
	.org 0x1000
entry:
	movi  r8, tlbmiss
	movi  r9, 12
	stw   r8, [r9]
	movi  r8, prot
	movi  r9, 16
	stw   r8, [r9]
	movi  r8, sys
	movi  r9, 20
	stw   r8, [r9]
	movi  r8, 1
	movcr r8, cr1
	movi  r8, user
	movcr r8, cr5
	movi  r8, 0x20
	movcr r8, cr6
	iret
	.org 0x8000
user:
	movi  r8, 0x10000
	movi  r10, 0x20000
next:
	ldw   r9, [r8]
	cmpi  r9, 0
	jz    fin
	ldw   r0, [r8+4]
	ldw   r1, [r8+8]
	ldw   r2, [r8+12]
	ldw   r3, [r8+16]
	addi  r8, 20
	cmpi  r9, 1
	jnz   stos
	rep movs
	jmp   after
stos:
	rep stos
after:
target:
	movi  r7, 0x11111111
	add   r6, r7
	add   r6, r2
	stw   r6, [r10]
	addi  r10, 4
	andi  r10, 0x2FFFF
	jmp   next
fin:
	syscall
.entry entry
`

// TestRepRollbackDifferential runs random descriptor tables on repOS three
// ways — straight-line with no host caches (the reference), on the journal
// with superblocks under random SetPC rollbacks and Commit frontiers, and
// with checkpoints 24 instructions apart under the same kind of schedule —
// and requires identical traces, registers, memory, TLB and device state.
func TestRepRollbackDifferential(t *testing.T) {
	prog := isa.MustAssemble(repOS, 0)
	const memBytes = 0x60000
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var table []byte
		word := func(v isa.Word) { table = append(table, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
		dataVA := func() isa.Word {
			if rng.Intn(6) == 0 { // hug the end of mapped memory
				return 0x60000 - isa.Word(rng.Intn(3000))
			}
			return 0x20000 + isa.Word(rng.Intn(0x40000))
		}
		for i := 0; i < 120; i++ {
			op, src, dst := isa.Word(1+rng.Intn(2)), dataVA(), dataVA()
			count := isa.Word([]int{1, 5, 300, 4100, 9000, 20000}[rng.Intn(6)])
			switch rng.Intn(6) {
			case 0:
				src = dst
			case 1:
				src = dst - 1
			case 2:
				src = dst - isa.Word(rng.Intn(int(count)+1))
			case 3:
				src = dst + isa.Word(rng.Intn(int(count)+1))
			}
			if rng.Intn(5) == 0 { // patch the immediate of the live `movi r7`
				op, dst, count = 2, prog.Symbols["target"]+2, isa.Word(1+rng.Intn(4))
			}
			word(op)
			word(src)
			word(dst)
			word(count)
			word(isa.Word(rng.Intn(256)))
		}
		word(0)

		type result struct {
			m       *Model
			entries []trace.Entry
		}
		run := func(cfg Config, schedule bool) result {
			cfg.MemBytes, cfg.DisableInterrupts, cfg.RepCap = memBytes, true, 12000
			m := New(cfg)
			m.LoadProgram(prog)
			m.Mem.Load(0x10000, table)
			r := result{m: m}
			srng := rand.New(rand.NewSource(seed * 77))
			sink := func(e trace.Entry) bool {
				if int(e.IN) >= len(r.entries) {
					r.entries = append(r.entries, e)
				} else {
					r.entries[e.IN] = e
				}
				return true
			}
			for m.StepBlock(sink) > 0 {
				if !schedule {
					continue
				}
				if srng.Intn(5) == 0 && m.JournalLen() > 1 {
					target := m.IN() - uint64(srng.Intn(min(30, m.JournalLen()-1))+1)
					if err := m.SetPC(target, r.entries[target].PC); err != nil {
						t.Fatalf("seed %d: SetPC(%d): %v", seed, target, err)
					}
				}
				if srng.Intn(9) == 0 {
					m.Commit(m.IN() - uint64(srng.Intn(min(40, int(m.IN())))) - 1)
				}
			}
			if m.Fatal() != nil {
				t.Fatalf("seed %d: fatal: %v", seed, m.Fatal())
			}
			return r
		}
		ref := run(Config{}, false)
		if ref.m.Exceptions < 50 || ref.m.GPR[7] == 0x11111111 {
			t.Fatalf("seed %d: reference run took %d exceptions, r7=%#x: table exercises too little",
				seed, ref.m.Exceptions, ref.m.GPR[7])
		}
		for name, cfg := range map[string]Config{
			"journal+superblocks": {ICacheEntries: 256, SuperblockLen: 16},
			"journal":             {ICacheEntries: 256},
			"checkpoint":          {ICacheEntries: 256, CheckpointInterval: 24},
		} {
			got := run(cfg, true)
			sbCompare(t, fmt.Sprintf("seed %d %s", seed, name), got.entries, ref.entries, got.m, ref.m)
			if !bytes.Equal(memCopy(got.m, 0, memBytes), memCopy(ref.m, 0, memBytes)) {
				t.Fatalf("seed %d %s: memory differs from the straight-line run", seed, name)
			}
			if got.m.TLB != ref.m.TLB {
				t.Fatalf("seed %d %s: TLB differs", seed, name)
			}
			if !bytes.Equal(snap.Marshal(got.m.Bus), snap.Marshal(ref.m.Bus)) {
				t.Fatalf("seed %d %s: device state differs", seed, name)
			}
			if got.m.Rollbacks < 20 {
				t.Fatalf("seed %d %s: only %d rollbacks exercised", seed, name, got.m.Rollbacks)
			}
		}
	}
}

// storeLoop is a plain ALU + store loop: one journal record with one memory
// entry every few instructions, and a console write per iteration so side
// entries flow through the ring too.
const storeLoop = `
	movi r4, 0x4000
loop:
	addi r0, 3
	stw  r0, [r4]
	addi r4, 4
	andi r4, 0x7FFF
	movi r5, 'x'
	out  r5, 0x10
	inc  r1
	cmpi r1, 700
	jl   loop
	halt
`

// TestJournalRingWindows holds the commit frontier a fixed distance behind
// the FM — 1, the ring's initial capacity, the TM's full window, and one
// that forces the ring to grow while wrapped — and rolls back to the
// frontier at intervals. The ring must wrap, grow and drain without ever
// losing or resurrecting a record: the trace and final state match a plain
// run, and the window never exceeds what was left uncommitted.
func TestJournalRingWindows(t *testing.T) {
	prog := isa.MustAssemble(storeLoop, 0x1000)
	ref, want := sbReference(t, prog, 100_000)
	for _, window := range []int{1, 64, 512, 1500} {
		m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
		m.LoadProgram(prog)
		got := make([]trace.Entry, len(want))
		lastRewind := uint64(0)
		for {
			e, ok := m.Step()
			if !ok {
				break
			}
			got[e.IN] = e
			if in := int(m.IN()); in > window {
				m.Commit(uint64(in - window - 1))
			}
			if w := m.JournalLen(); w > window {
				t.Fatalf("window %d: %d instructions uncommitted", window, w)
			}
			// Every 97 instructions (coprime to every ring size) rewind the
			// whole window once and replay it.
			if e.IN%97 == 96 && e.IN > lastRewind {
				lastRewind = e.IN
				target := m.IN() - uint64(m.JournalLen())
				if err := m.SetPC(target, got[target].PC); err != nil {
					t.Fatalf("window %d: SetPC(%d): %v", window, target, err)
				}
				if m.JournalLen() != 0 {
					t.Fatalf("window %d: %d uncommitted after a full rewind", window, m.JournalLen())
				}
				if target > 0 {
					if err := m.SetPC(target-1, got[target-1].PC); err == nil {
						t.Fatalf("window %d: set_pc below the committed base succeeded", window)
					}
				}
			}
		}
		sbCompare(t, fmt.Sprintf("window %d", window), got, want, m, ref)
		if !bytes.Equal(snap.Marshal(m.Bus), snap.Marshal(ref.Bus)) {
			t.Fatalf("window %d: console state differs", window)
		}

		// Commit to empty, then keep going: nothing below the frontier is
		// reachable, everything after it is.
		m.Commit(m.IN() - 1)
		if m.JournalLen() != 0 {
			t.Fatalf("window %d: %d uncommitted after Commit(all)", window, m.JournalLen())
		}
		if err := m.SetPC(m.IN()-1, 0x1000); err == nil {
			t.Fatalf("window %d: rollback into a fully committed journal succeeded", window)
		}
		base := m.IN()
		if err := m.SetPC(base, prog.Symbols["loop"]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			m.Step()
		}
		if err := m.SetPC(base, prog.Symbols["loop"]); err != nil || m.IN() != base {
			t.Fatalf("window %d: rollback after commit-to-empty: IN=%d err=%v", window, m.IN(), err)
		}
	}
}

// TestJournalAbortAtWrap aborts an instruction whose record is the first of
// a new lap of the ring and already holds log bytes: a rep movs that runs
// off the end of memory with no IVT, so the trap is fatal and abort undoes
// the partial copy. The model is redirected past it, runs on, rolls back
// across the aborted slot (replaying into the same abort) and finishes;
// everything must match a model that never committed, never wrapped and
// never rolled back.
func TestJournalAbortAtWrap(t *testing.T) {
	src := "movi r4, 0x4000\nmovi r0, 0x1000\nmovi r1, 0xFFE0\nmovi r2, 64\n"
	for i := 0; i < 30; i++ {
		src += "addi r5, 5\nstw r5, [r4]\n"
	}
	src += "rep movs\n" // IN 64: 32 bytes fit, then a protection fault
	src += "resume:\n"
	for i := 0; i < 40; i++ {
		src += "addi r6, 7\nstw r6, [r4+4]\n"
	}
	src += "halt\n"
	prog := isa.MustAssemble(src, 0x1000)

	drive := func(wrap bool) *Model {
		m := New(Config{MemBytes: 1 << 16, DisableInterrupts: true})
		m.LoadProgram(prog)
		var pcs []isa.Word
		for i := 0; i < 64; i++ {
			e, ok := m.Step()
			if !ok {
				t.Fatalf("stopped early at %d", i)
			}
			pcs = append(pcs, e.PC)
			if wrap && i >= 8 {
				m.Commit(uint64(i - 8))
			}
		}
		if j := &m.journal; wrap && (len(j.recs.buf) != 64 || j.recs.tail != 64) {
			t.Fatalf("ring not at its wrap point: cap %d tail %d", len(j.recs.buf), j.recs.tail)
		}
		abort := func() {
			window := m.JournalLen()
			if _, ok := m.Step(); ok || m.Fatal() == nil {
				t.Fatal("rep movs past the end of memory without an IVT did not stop the model")
			}
			if m.JournalLen() != window || m.GPR[2] != 64 {
				t.Fatalf("abort: window %d (was %d), count register %d", m.JournalLen(), window, m.GPR[2])
			}
			if err := m.SetPC(64, prog.Symbols["resume"]); err != nil {
				t.Fatal(err)
			}
		}
		abort()
		if wrap {
			for i := 0; i < 30; i++ {
				m.Step()
			}
			if err := m.SetPC(61, pcs[61]); err != nil {
				t.Fatal(err)
			}
			// IN 61 is the 29th `stw r5`: the 28th's value must be back.
			if got := m.Mem.Read(0x4000, 4); got != 5*28 {
				t.Fatalf("rollback across the aborted slot left [0x4000] = %d, want %d", got, 5*28)
			}
			for i := 61; i < 64; i++ {
				m.Step()
			}
			abort()
		}
		for {
			if _, ok := m.Step(); !ok {
				break
			}
		}
		return m
	}
	wrapped, plain := drive(true), drive(false)
	if wrapped.Scalars != plain.Scalars || wrapped.IN() != plain.IN() {
		t.Fatalf("state after abort at the wrap point differs:\n got %+v\nwant %+v", wrapped.Scalars, plain.Scalars)
	}
	if !bytes.Equal(memCopy(wrapped, 0, 1<<16), memCopy(plain, 0, 1<<16)) {
		t.Fatal("memory after abort at the wrap point differs")
	}
	if !bytes.Equal(memCopy(plain, 0xFFE0, 32), make([]byte, 32)) {
		t.Fatal("the aborted rep's partial copy was left in place")
	}
}

// TestFatalStopUndoesPartialEffects: a rep stos that runs off the end of
// memory with no IVT stops the model fatally after storing part of its run.
// The stop must leave the model exactly as it was before the instruction —
// registers and memory — at every checkpoint interval, so that neither a
// pure redirect at its IN nor a rollback below it inherits the partial
// stores; and the re-execution a checkpoint abort needs is not charged.
func TestFatalStopUndoesPartialEffects(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r4, 0x4000
		movi r5, 7
		stw  r5, [r4]
		movi r1, 0xFFF0
		movi r2, 64
		movi r3, 0xAA
		rep stos         ; IN 6: 16 bytes fit, then an unhandled protection fault
		halt
	other:
		halt
	`, 0x1000)
	for _, interval := range []int{0, 4, DefaultCheckpointInterval} {
		for _, rollback := range []bool{false, true} {
			name := fmt.Sprintf("interval %d rollback %v", interval, rollback)
			m := New(Config{MemBytes: 1 << 16, DisableInterrupts: true, CheckpointInterval: interval})
			m.LoadProgram(prog)
			var pcs []isa.Word
			var pre []Scalars
			for i := 0; i < 6; i++ {
				pre = append(pre, m.Scalars)
				e, ok := m.Step()
				if !ok {
					t.Fatalf("%s: stopped at IN %d", name, i)
				}
				pcs = append(pcs, e.PC)
			}
			pre = append(pre, m.Scalars)
			clean := memCopy(m, 0, 1<<16)
			if _, ok := m.Step(); ok || m.Fatal() == nil {
				t.Fatalf("%s: rep stos past the end of memory without an IVT did not stop the model", name)
			}
			if m.IN() != 6 || m.Scalars != pre[6] || !bytes.Equal(memCopy(m, 0, 1<<16), clean) {
				t.Fatalf("%s: fatal stop at IN %d left r1 %#x r2 %d and stored bytes behind",
					name, m.IN(), m.GPR[1], m.GPR[2])
			}
			if m.ReExecuted() != 0 {
				t.Errorf("%s: the abort charged %d re-executed instructions", name, m.ReExecuted())
			}
			in, pc := m.IN(), prog.Symbols["other"]
			if rollback {
				in, pc = 2, pcs[2]
			}
			if err := m.SetPC(in, pc); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			stored := uint64(7) // by the stw at IN 2
			if in <= 2 {
				stored = 0
			}
			if m.Scalars.GPR != pre[in].GPR || m.Mem.Read(0xFFF0, 4) != 0 || m.Mem.Read(0x4000, 4) != stored {
				t.Fatalf("%s: after SetPC(%d): r1 %#x r2 %d, [0xFFF0] %#x, [0x4000] %d",
					name, in, m.GPR[1], m.GPR[2], m.Mem.Read(0xFFF0, 4), m.Mem.Read(0x4000, 4))
			}
			if _, ok := m.Step(); !ok || m.Fatal() != nil {
				t.Fatalf("%s: no instruction after SetPC(%d): %v", name, in, m.Fatal())
			}
		}
	}
}

// TestWrongPathTLBRollback: a wrong path that rewrites or flushes the TLB,
// writes FP registers (+0 over -0, a NaN) and writes control registers,
// rolled back, leaves the TLB, FPRs and CRs bit-identical to their state
// before it, at a record per instruction and at checkpoints 64 apart.
func TestWrongPathTLBRollback(t *testing.T) {
	for _, op := range []string{"tlbwr r9, r10", "tlbfl"} {
		prog := isa.MustAssemble(`
			movi  r9, 0x20
			movi  r10, 0x21003
			tlbwr r9, r10
			movi  r9, 0x30
			tlbwr r9, r10
			fldi  f1, 1.5
			fneg  f5, f5     ; -0
			movi  r8, 0x77
			movcr r8, cr3
		fork:
			fldi  f1, 2.5
			fneg  f5, f5     ; +0: equal to -0, but not bit for bit
			movi  r8, -1
			i2f   f4, r8
			fsqrt f3, f4     ; NaN
			movcr r8, cr3
			movcr r8, cr7
			movi  r9, 0x40
			`+op+`
			tlbwr r9, r10
			halt
		`, 0x1000)
		fork := prog.Symbols["fork"]
		for _, interval := range []int{0, DefaultCheckpointInterval} {
			name := fmt.Sprintf("%s, interval %d", op, interval)
			m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true, CheckpointInterval: interval})
			m.LoadProgram(prog)
			for m.PC != fork {
				if _, ok := m.Step(); !ok {
					t.Fatalf("%s: stopped before the fork", name)
				}
			}
			in, tlb, regs := m.IN(), m.TLB, m.Scalars
			for {
				if _, ok := m.Step(); !ok {
					break
				}
			}
			if m.TLB == tlb || m.FPR[3] == m.FPR[3] || m.CR == regs.CR {
				t.Fatalf("%s: the wrong path left the TLB, f3 or the CRs as they were", name)
			}
			if err := m.SetPC(in, fork); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if m.TLB != tlb {
				t.Errorf("%s: TLB differs after the rollback", name)
			}
			if !sameScalars(m.Scalars, regs) {
				t.Errorf("%s: registers after the rollback\n got %+v\nwant %+v", name, m.Scalars, regs)
			}
		}
	}
}

// TestUndoRecordSize: a record holds bookkeeping only — its pre-images are
// in the log, sized to what changed — so a long uncommitted window costs
// 32 bytes a record.
func TestUndoRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(undoRecord{}); n > 32 {
		t.Errorf("undoRecord is %d bytes, want at most 32", n)
	}
}

// TestJournalReleaseDropsReferences: index-only release must not leave a
// committed, popped or aborted record's device capture reachable from a
// dead ring slot.
func TestJournalReleaseDropsReferences(t *testing.T) {
	m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	m.LoadProgram(isa.MustAssemble(storeLoop, 0x1000))
	live := func() int {
		n := 0
		for i := range m.journal.bus.buf {
			if !reflect.ValueOf(m.journal.bus.buf[i]).IsZero() {
				n++
			}
		}
		return n
	}
	for i := 0; i < 300; i++ {
		m.Step()
	}
	if live() == 0 {
		t.Fatal("no device captures journaled: test exercises nothing")
	}
	m.Commit(199)
	if err := m.SetPC(250, 0x1000); err != nil {
		t.Fatal(err)
	}
	if got, want := live(), m.journal.bus.len(); got != want {
		t.Fatalf("%d captures reachable, %d bus entries live", got, want)
	}
	m.Commit(m.IN() - 1)
	if live() != 0 || m.journal.bus.len() != 0 || m.journal.mem.head != 0 || m.journal.mem.tail != 0 {
		t.Fatalf("drained journal still holds %d captures, %d bus entries, %d log bytes",
			live(), m.journal.bus.len(), m.journal.mem.tail)
	}
}

// TestRestoreOverRolledBackWindow restores a snapshot into a model that has
// an uncommitted, partly rolled-back window — stale records, bus captures
// and log bytes in every store — and requires the continuation to be
// bit-identical to one from a fresh model.
func TestRestoreOverRolledBackWindow(t *testing.T) {
	prog := isa.MustAssemble(storeLoop, 0x1000)
	for _, cfg := range []Config{
		{ICacheEntries: 64, SuperblockLen: 8},
		{CheckpointInterval: 16},
	} {
		cfg.MemBytes, cfg.DisableInterrupts = 1<<20, true
		fresh := func() *Model {
			m := New(cfg)
			m.LoadProgram(prog)
			return m
		}
		src := fresh()
		for i := 0; i < 400; i++ {
			src.Step()
		}
		src.Commit(src.IN() - 1)
		blob := snap.Marshal(src)

		dirty := fresh()
		for i := 0; i < 900; i++ {
			dirty.Step()
		}
		dirty.Commit(299)
		if err := dirty.SetPC(700, prog.Symbols["loop"]); err != nil {
			t.Fatal(err)
		}
		clean := fresh()
		for _, m := range []*Model{dirty, clean} {
			if err := snap.Unmarshal(blob, m); err != nil {
				t.Fatal(err)
			}
			if m.journal.interval == 0 && m.JournalLen() != 0 {
				t.Fatalf("window %d after restore, want 0", m.JournalLen())
			}
			if err := m.SetPC(m.IN()-1, 0x1000); err == nil {
				t.Fatal("rollback below the restored boundary succeeded")
			}
		}
		var entries [2][]trace.Entry
		for k, m := range []*Model{dirty, clean} {
			for i := 0; ; i++ {
				e, ok := m.Step()
				if !ok {
					break
				}
				entries[k] = append(entries[k], e)
				if i == 50 { // the restored journal must still roll back
					back := m.IN() - 20
					if err := m.SetPC(back, entries[k][len(entries[k])-20].PC); err != nil {
						t.Fatal(err)
					}
					entries[k] = entries[k][:len(entries[k])-20]
				}
			}
		}
		sbCompare(t, "restore over rolled-back window", entries[0], entries[1], dirty, clean)
		if !bytes.Equal(memCopy(dirty, 0, 1<<20), memCopy(clean, 0, 1<<20)) ||
			!bytes.Equal(snap.Marshal(dirty.Bus), snap.Marshal(clean.Bus)) {
			t.Fatal("memory or device state differs after restore over a rolled-back window")
		}
	}
}

// steadyLoop is the zero-allocation subject: ALU work, a scalar store and a
// 600-byte rep stos crossing a page boundary per iteration, forever.
const steadyLoop = `
	movi r4, 0x4000
loop:
	addi r0, 3
	stw  r0, [r4]
	addi r4, 4
	andi r4, 0x7FFF
	movi r1, 0x8E00
	movi r2, 600
	mov  r3, r0
	rep stos
	jmp  loop
`

// ioLoop is the I/O subject: each iteration programs and acknowledges the
// timer, then reads one of four disk sectors, polling until the read
// completes. Console and NIC output stay out: they are append-only by
// design, so a run that keeps writing them keeps growing them.
const ioLoop = `
	movi r4, 0
loop:
	movi r1, 15
	out  r1, 0x20    ; timer interval
	andi r4, 3
	out  r4, 0x30    ; sector
	movi r1, 1
	out  r1, 0x31    ; read
poll:
	in   r2, 0x33
	andi r2, 1
	jnz  poll        ; busy
	in   r3, 0x32
	in   r3, 0x32
	out  r1, 0x34    ; disk ack
	out  r1, 0x22    ; timer ack
	inc  r4
	jmp  loop
`

// TestSteadyStateZeroAllocs: once the stores have reached their working
// size, the FM loop with commits on allocates nothing — per-instruction and
// block-at-a-time, with and without checkpoints, rollbacks included, driven
// by hand or through Run, and with device I/O on every few instructions. The
// cut rows' sink stops every block after one instruction, so each block is
// resumed op by op.
func TestSteadyStateZeroAllocs(t *testing.T) {
	type subject struct {
		name, src string
		devices   func() []fullsys.Device
	}
	for _, sub := range []subject{
		{"store", steadyLoop, func() []fullsys.Device { return nil }},
		{"io", ioLoop, func() []fullsys.Device {
			disk := fullsys.NewDisk(16, 20)
			for s := uint32(0); s < 4; s++ {
				disk.Preload(s, make([]uint32, disk.SectorWords))
			}
			return []fullsys.Device{fullsys.NewTimer(), disk}
		}},
	} {
		for _, interval := range []int{0, DefaultCheckpointInterval} {
			for _, row := range []struct {
				sblen int
				cut   bool
			}{{0, false}, {DefaultSuperblockLen, false}, {DefaultSuperblockLen, true}} {
				name := fmt.Sprintf("%s/checkpoint interval %d/superblock len %d", sub.name, interval, row.sblen)
				if row.cut {
					name += "/cut after every entry"
				}
				m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true, Devices: sub.devices(),
					CheckpointInterval: interval, ICacheEntries: DefaultICacheEntries, SuperblockLen: row.sblen})
				m.LoadProgram(isa.MustAssemble(sub.src, 0x1000))
				sink := func(trace.Entry) bool { return !row.cut }
				chunk := func() {
					start := m.IN()
					for m.IN() < start+64 {
						if m.StepBlock(sink) == 0 {
							t.Fatal("halted")
						}
					}
					if err := m.SetPC(start+40, 0x1000); err != nil {
						t.Fatal(err)
					}
					m.Commit(m.IN() - 1)
				}
				for i := 0; i < 100; i++ {
					chunk()
				}
				if allocs := testing.AllocsPerRun(200, chunk); allocs != 0 {
					t.Errorf("%s: %v allocs per 64-instruction chunk, want 0", name, allocs)
				}
				left := 0
				until := func(*trace.Entry) bool { left--; return left > 0 }
				driven := func() {
					left = 64
					if err := m.Run(until); err != nil {
						t.Fatal(err)
					}
					m.Commit(m.IN() - 1)
				}
				if allocs := testing.AllocsPerRun(200, driven); allocs != 0 {
					t.Errorf("%s: %v allocs per 64 instructions through Run, want 0", name, allocs)
				}
				if row.cut && m.sb != nil && m.sb.resumes == 0 {
					t.Errorf("%s: no block was resumed", name)
				}
			}
		}
	}
}

// TestMemLogZeroRun: a rep stos over memory the target never wrote logs
// only its entries' headers, and rolling back across it restores the bytes
// and the predecode cache's page generations exactly as rolling back over a
// written pre-image does. The stos starts in the line of a routine the
// program ran, so both the store and its undo bump the code page.
func TestMemLogZeroRun(t *testing.T) {
	prog := isa.MustAssemble(`
		movi sp, 0x9000
		call marker      ; caches marker, whose line the stos starts in
		movi r1, 0x17F8  ; marker's line, the code page's tail and half the next page
		movi r2, 0x1000  ; two runs, split at the page end
		movi r3, 0xAB
		rep stos
		halt
		.org 0x17C0
	marker:
		ret
	`, 0x1000)
	var gens [2][]uint32
	for k, old := range []byte{0, 0x5A} {
		m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true, ICacheEntries: 64})
		m.LoadProgram(prog)
		if old != 0 {
			m.Mem.Fill(0x17F8, 0x1000, old)
		}
		for i := 0; i < 6; i++ {
			m.Step()
		}
		before := memCopy(m, 0x17F8, 0x1000)
		e, _ := m.Step()
		want := 2 * memLogHeader
		if old != 0 {
			want += 0x1000
		}
		// The stos's record is the tail: its registers are logged when the
		// next record opens, so what it has logged so far is its stores.
		if got := m.journal.recs.back().logLen; got != want {
			t.Errorf("old bytes %#x: rep stos logged %d bytes, want %d", old, got, want)
		}
		if err := m.SetPC(e.IN, e.PC); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(memCopy(m, 0x17F8, 0x1000), before) {
			t.Errorf("old bytes %#x: rollback did not restore the stored-over bytes", old)
		}
		for p := range isa.Word(1 << 20 >> fullsys.PageShift) {
			gens[k] = append(gens[k], m.icache.gen(p))
		}
	}
	if !slices.Equal(gens[0], gens[1]) {
		t.Error("page generations after rolling back over zero and non-zero old bytes differ")
	}
	if gens[0][1] != 2 {
		t.Errorf("code page generation %d after a store into its code and the undo, want 2", gens[0][1])
	}
}
