package fm

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fullsys"
	"repro/internal/isa"
	"repro/internal/trace"
)

// run assembles src at base 0x1000, loads it into a bare-mode model
// (kernel, no paging, interrupts off) and executes up to max steps or HALT.
func run(t *testing.T, src string, max int) (*Model, []trace.Entry) {
	t.Helper()
	return runAt(t, src, 0x1000, max)
}

// runAt is run with an explicit load base (tests that lay out an IVT at
// physical 0 use base 0).
func runAt(t *testing.T, src string, base isa.Word, max int) (*Model, []trace.Entry) {
	t.Helper()
	m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	m.LoadProgram(isa.MustAssemble(src, base))
	var out []trace.Entry
	for i := 0; i < max; i++ {
		e, ok := m.Step()
		if !ok {
			if m.Fatal() != nil {
				t.Fatalf("fatal after %d steps: %v", i, m.Fatal())
			}
			break
		}
		out = append(out, e)
	}
	return m, out
}

func TestArithmeticAndFlags(t *testing.T) {
	m, _ := run(t, `
		movi r0, 10
		movi r1, 3
		mov  r2, r0
		sub  r2, r1      ; r2 = 7
		mov  r3, r0
		mul  r3, r1      ; r3 = 30
		mov  r4, r0
		div  r4, r1      ; r4 = 3
		mov  r5, r0
		mod  r5, r1      ; r5 = 1
		movi r6, -8
		sari r6, 2       ; r6 = -2
		movi r7, -8
		shri r7, 28      ; r7 = 15
		halt
	`, 100)
	want := map[int]isa.Word{2: 7, 3: 30, 4: 3, 5: 1, 6: 0xFFFFFFFE, 7: 15}
	for r, v := range want {
		if m.GPR[r] != v {
			t.Errorf("R%d = %#x, want %#x", r, m.GPR[r], v)
		}
	}
	if !m.Halted() {
		t.Error("machine should have halted")
	}
}

func TestConditionalBranches(t *testing.T) {
	m, _ := run(t, `
		movi r0, 5
		cmpi r0, 5
		jz   eq          ; taken
		movi r1, 99
	eq:	cmpi r0, 10
		jl   lt          ; 5 < 10 taken
		movi r1, 98
	lt:	cmpi r0, 3
		jg   gt          ; 5 > 3 taken
		movi r1, 97
	gt:	movi r2, 1
		cmpi r0, 6
		jge  bad
		jmp  good
	bad:	movi r2, 0
	good:	halt
	`, 100)
	if m.GPR[1] != 0 {
		t.Errorf("R1 = %d, a not-taken path executed", m.GPR[1])
	}
	if m.GPR[2] != 1 {
		t.Errorf("R2 = %d, jge mis-evaluated", m.GPR[2])
	}
}

func TestUnsignedCarryAndOverflow(t *testing.T) {
	m, _ := run(t, `
		movi r0, 0xFFFFFFFF
		addi r0, 1       ; carry out, r0=0
		jc   c1
		movi r9, 1
	c1:	movi r1, 0x7FFFFFFF
		addi r1, 1       ; signed overflow
		movi r2, 0
		jl   neg         ; N=1,V=1 -> jl false (N==V)
		movi r2, 1
	neg:	halt
	`, 100)
	if m.GPR[9] != 0 {
		t.Error("carry flag not set by 0xFFFFFFFF+1")
	}
	if m.GPR[0] != 0 {
		t.Errorf("R0 = %#x, want 0", m.GPR[0])
	}
	if m.GPR[2] != 1 {
		t.Error("overflow semantics wrong: jl taken after 0x7FFFFFFF+1")
	}
}

func TestMemoryAndStack(t *testing.T) {
	m, _ := run(t, `
		movi sp, 0x8000
		movi r0, 0xDEAD
		movi r1, 0x2000
		stw  r0, [r1]
		ldw  r2, [r1]
		sth  r0, [r1+8]
		ldh  r3, [r1+8]
		stb  r0, [r1+12]
		ldb  r4, [r1+12]
		push r0
		push r1
		pop  r5
		pop  r6
		halt
	`, 100)
	if m.GPR[2] != 0xDEAD {
		t.Errorf("ldw = %#x", m.GPR[2])
	}
	if m.GPR[3] != 0xDEAD {
		t.Errorf("ldh = %#x", m.GPR[3])
	}
	if m.GPR[4] != 0xAD {
		t.Errorf("ldb = %#x", m.GPR[4])
	}
	if m.GPR[5] != 0x2000 || m.GPR[6] != 0xDEAD {
		t.Errorf("stack pops: %#x %#x", m.GPR[5], m.GPR[6])
	}
	if m.GPR[isa.RegSP] != 0x8000 {
		t.Errorf("SP = %#x, want 0x8000", m.GPR[isa.RegSP])
	}
}

func TestCallRet(t *testing.T) {
	m, _ := run(t, `
		movi r0, 0
		call fn
		addi r0, 100
		halt
	fn:	addi r0, 1
		ret
	`, 100)
	if m.GPR[0] != 101 {
		t.Errorf("R0 = %d, want 101", m.GPR[0])
	}
}

func TestStringInstructions(t *testing.T) {
	m, _ := run(t, `
		movi r0, src
		movi r1, 0x3000
		movi r2, 5
		rep movs         ; copy "hello"
		movi r1, 0x3100
		movi r2, 4
		movi r3, 'x'
		rep stos         ; xxxx
		movi r0, src
		movi r1, src
		movi r2, 5
		rep cmps         ; equal -> Z set
		jz   ok
		movi r9, 1
	ok:	halt
	src:	.ascii "hello"
	`, 100)
	got := make([]byte, 5)
	for i := range got {
		got[i] = byte(m.Mem.Read(isa.Word(0x3000+i), 1))
	}
	if string(got) != "hello" {
		t.Errorf("rep movs copied %q", got)
	}
	if m.Mem.Read(0x3100, 1) != 'x' || m.Mem.Read(0x3103, 1) != 'x' {
		t.Error("rep stos did not fill")
	}
	if m.GPR[9] != 0 {
		t.Error("rep cmps of identical buffers not equal")
	}
	if m.GPR[2] != 0 {
		t.Errorf("count register after rep = %d, want 0", m.GPR[2])
	}
}

func TestRepScasFindsMismatch(t *testing.T) {
	m, _ := run(t, `
		movi r1, data
		movi r2, 10
		movi r3, 'a'
		rep scas        ; scan while equal to 'a'
		halt
	data:	.ascii "aaab"
	`, 100)
	// Stops at the 'b': 4 iterations consumed.
	if m.GPR[2] != 6 {
		t.Errorf("remaining count = %d, want 6", m.GPR[2])
	}
	if m.Flags&isa.FlagZ != 0 {
		t.Error("Z set after mismatch")
	}
}

func TestFloatingPoint(t *testing.T) {
	m, _ := run(t, `
		fldi f0, 2.5
		fldi f1, 1.5
		fadd f0, f1      ; 4.0
		fldi f2, 9.0
		fsqrt f3, f2     ; 3.0
		movi r0, 7
		i2f  f4, r0
		f2i  r1, f3
		movi r2, 0x4000
		fst  f0, [r2]
		fld  f5, [r2]
		halt
	`, 100)
	if m.FPR[0] != 4.0 {
		t.Errorf("fadd = %g", m.FPR[0])
	}
	if m.FPR[3] != 3.0 {
		t.Errorf("fsqrt = %g", m.FPR[3])
	}
	if m.FPR[4] != 7.0 {
		t.Errorf("i2f = %g", m.FPR[4])
	}
	if m.GPR[1] != 3 {
		t.Errorf("f2i = %d", m.GPR[1])
	}
	if m.FPR[5] != 4.0 {
		t.Errorf("fld round trip = %g", m.FPR[5])
	}
}

func TestTraceEntries(t *testing.T) {
	_, es := run(t, `
		movi r0, 3
	loop:	dec r0
		jnz loop
		halt
	`, 100)
	if len(es) != 8 { // movi + 3×(dec,jnz) + halt
		t.Fatalf("%d trace entries, want 8", len(es))
	}
	for i, e := range es {
		if e.IN != uint64(i) {
			t.Errorf("entry %d has IN %d", i, e.IN)
		}
	}
	jnz := es[2]
	if !jnz.Branch || !jnz.Cond || !jnz.Taken {
		t.Errorf("first jnz entry: %+v", jnz)
	}
	if jnz.NextPC != es[1].PC {
		t.Errorf("taken jnz NextPC = %#x, want loop head %#x", jnz.NextPC, es[1].PC)
	}
	last := es[6]
	if !last.Branch || last.Taken {
		t.Errorf("final jnz should be not-taken: %+v", last)
	}
	if last.NextPC != last.PC+isa.Word(last.Size) {
		t.Errorf("not-taken NextPC = %#x", last.NextPC)
	}
}

func TestDivideByZeroFaultsWithoutIVT(t *testing.T) {
	m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	m.LoadProgram(isa.MustAssemble(`
		movi r0, 1
		movi r1, 0
		div  r0, r1
		halt
	`, 0x1000))
	steps := 0
	for {
		if _, ok := m.Step(); !ok {
			break
		}
		steps++
	}
	if m.Fatal() == nil {
		t.Fatal("expected fatal unhandled trap")
	}
	if steps != 2 {
		t.Errorf("executed %d instructions before fault, want 2", steps)
	}
}

func TestTrapAndIret(t *testing.T) {
	// Install an IVT and a divide-error handler that fixes up R1 and
	// returns; EPC for div faults points at the faulting instruction.
	m, es := runAt(t, `
		.org 0
		.space 256       ; IVT at physical 0
		.org 0x400
	handler:
		movi r1, 2       ; repair divisor
		iret
		.org 0x1000
	entry:
		movi r8, handler
		movi r9, ivtslot2
		stw  r8, [r9]    ; IVT[2] (divide error)
		movi r0, 8
		movi r1, 0
		div  r0, r1      ; faults, handler sets r1=2, retry divides 8/2
		halt
	.equ ivtslot2, 8
	.entry entry
	`, 0, 100)
	if m.GPR[0] != 4 {
		t.Errorf("after trap-retry division R0 = %d, want 4", m.GPR[0])
	}
	var sawExc bool
	for _, e := range es {
		if e.Exception && e.ExcVector == isa.VecDivZero {
			sawExc = true
			if !e.Branch || e.NextPC != 0x400 {
				t.Errorf("exception entry should branch to handler: %+v", e)
			}
		}
	}
	if !sawExc {
		t.Error("no exception entry in trace")
	}
}

func TestPortIO(t *testing.T) {
	con := fullsys.NewConsole()
	m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true,
		Devices: []fullsys.Device{con}})
	m.LoadProgram(isa.MustAssemble(`
		movi r0, 'h'
		out  r0, 0x10
		movi r0, 'i'
		out  r0, 0x10
		in   r1, 0x11
		halt
	`, 0x1000))
	for {
		if _, ok := m.Step(); !ok {
			break
		}
	}
	if string(con.Output()) != "hi" {
		t.Errorf("console output %q", con.Output())
	}
	if m.GPR[1]&1 == 0 {
		t.Error("console status not ready")
	}
}

func TestUserModeProtection(t *testing.T) {
	// Kernel installs the IVT, maps one user page, drops to user mode via
	// IRET; user executes a privileged instruction -> protection fault.
	m, es := runAt(t, `
		.org 0
		.space 256
		.org 0x400
	prot:	movi r10, 1
		halt
		.org 0x440
	tlbmiss: movi r10, 2
		halt
		.org 0x1000
	entry:
		movi r8, prot
		movi r9, 16      ; IVT[4] = prot
		stw  r8, [r9]
		movi r8, tlbmiss
		movi r9, 12      ; IVT[3] = tlbmiss
		stw  r8, [r9]
		movi r8, 1
		movcr r8, cr1    ; enable paging
		; map user VPN 8 -> PFN 2 (user, write)
		movi r0, 8
		movi r1, 0x2003  ; pfn 2 | user|write
		tlbwr r0, r1
		; copy a tiny user program to physical 0x2000
		movi r0, uprog
		movi r1, 0x2000
		movi r2, 8
		rep movs
		; return to user mode at VA 0x8000
		movi r8, 0x8000
		movcr r8, cr5    ; EPC
		movi r8, 0x20    ; FLAGS: user mode, interrupts off
		movcr r8, cr6
		iret
	uprog:
		cli              ; privileged in user mode -> fault
		halt
	.entry entry
	`, 0, 200)
	if m.GPR[10] != 1 {
		t.Errorf("R10 = %d, want 1 (protection handler ran)", m.GPR[10])
	}
	var userSeen bool
	for _, e := range es {
		if !e.Kernel {
			userSeen = true
		}
	}
	if !userSeen {
		t.Error("no user-mode instructions in trace")
	}
}

func TestTLBMissHandled(t *testing.T) {
	// Same setup, but the user program touches an unmapped page; the miss
	// handler maps it identity-style and returns for retry.
	m, _ := runAt(t, `
		.org 0
		.space 256
		.org 0x400
	tlbmiss:
		movrc r11, cr2   ; fault VA
		shri  r11, 12    ; VPN
		mov   r12, r11
		shli  r12, 12
		shri  r12, 12    ; identity PFN = VPN (already page number)
		mov   r12, r11
		shli  r12, 12
		ori   r12, 3     ; pfn<<12 | user|write
		tlbwr r11, r12
		iret             ; retry
		.org 0x480
	sys:	halt             ; syscall = exit for this test
		.org 0x1000
	entry:
		movi r8, tlbmiss
		movi r9, 12
		stw  r8, [r9]
		movi r8, sys
		movi r9, 20      ; IVT[5] = syscall
		stw  r8, [r9]
		movi r8, 1
		movcr r8, cr1
		movi r0, 8
		movi r1, 0x2003
		tlbwr r0, r1
		movi r0, uprog
		movi r1, 0x2000
		movi r2, 32
		rep movs
		movi r8, 0x8000
		movcr r8, cr5
		movi r8, 0x20
		movcr r8, cr6
		iret
	uprog:
		movi r5, 0x5000  ; unmapped VA -> TLB miss -> handler maps
		movi r6, 77
		stw  r6, [r5]
		ldw  r7, [r5]
		syscall          ; exit to kernel, which halts
	.entry entry
	`, 0, 300)
	if m.GPR[7] != 77 {
		t.Errorf("user load after TLB fill = %d, want 77", m.GPR[7])
	}
	if m.Exceptions == 0 {
		t.Error("no exceptions counted")
	}
}

// --- Rollback machinery ---

// TestSetPCEquivalence is the core speculative-FM property: executing with
// arbitrary rollbacks interleaved must leave the machine in exactly the
// state reached by straight-line execution.
func TestSetPCEquivalence(t *testing.T) {
	src := `
		movi sp, 0x9000
		movi r0, 0
		movi r1, 0
		movi r4, 0x4000
	loop:
		addi r0, 3
		stw  r0, [r4]
		ldw  r2, [r4]
		add  r1, r2
		push r1
		pop  r3
		inc  r1
		movi r5, 'c'
		out  r5, 0x10
		cmpi r1, 2000
		jl   loop
		halt
	`
	prog := isa.MustAssemble(src, 0x1000)

	newModel := func() *Model {
		m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
		m.LoadProgram(prog)
		return m
	}

	// Reference run.
	ref := newModel()
	var refEntries []trace.Entry
	for {
		e, ok := ref.Step()
		if !ok {
			break
		}
		refEntries = append(refEntries, e)
	}

	// Speculative run: random rollbacks to random uncommitted points; after
	// each rollback re-execution must reproduce the identical trace suffix.
	spec := newModel()
	rng := rand.New(rand.NewSource(42))
	var got []trace.Entry
	for {
		e, ok := spec.Step()
		if !ok {
			break
		}
		if int(e.IN) < len(refEntries) {
			if !entriesEqual(e, refEntries[e.IN]) {
				t.Fatalf("entry %d diverged:\n got %+v\nwant %+v", e.IN, e, refEntries[e.IN])
			}
		}
		if int(e.IN) >= len(got) {
			got = append(got, e)
		} else {
			got[e.IN] = e
		}
		// Occasionally roll back 1..20 instructions and replay.
		if rng.Intn(7) == 0 && spec.JournalLen() > 1 {
			back := rng.Intn(min(20, spec.JournalLen()-1)) + 1
			target := spec.IN() - uint64(back)
			wantPC := got[target].PC
			if err := spec.SetPC(target, wantPC); err != nil {
				t.Fatalf("SetPC: %v", err)
			}
			if spec.IN() != target {
				t.Fatalf("after SetPC IN=%d, want %d", spec.IN(), target)
			}
		}
		// Occasionally commit to bound the journal.
		if rng.Intn(11) == 0 && spec.IN() > 30 {
			spec.Commit(spec.IN() - 30)
		}
	}
	if len(got) != len(refEntries) {
		t.Fatalf("%d entries, want %d", len(got), len(refEntries))
	}
	refM := ref
	if spec.Scalars != refM.Scalars {
		t.Errorf("scalar state diverged:\n got %+v\nwant %+v", spec.Scalars, refM.Scalars)
	}
	if spec.Rollbacks == 0 {
		t.Fatal("test exercised no rollbacks")
	}
}

// TestSetPCWrongPath forces the model down a wrong path (what the TM does
// after a predicted-taken branch the functional path didn't take), then
// restores the right path and checks full state equivalence.
func TestSetPCWrongPath(t *testing.T) {
	src := `
		movi r0, 10
		movi r1, 0
	loop:	add r1, r0
		dec r0
		jnz loop
		movi r2, 111
		halt
	wrong:	movi r3, 66     ; wrong-path code: clobbers r3, stores
		movi r4, 0x7000
		stw  r3, [r4]
		jmp  wrong
	`
	prog := isa.MustAssemble(src, 0x1000)
	ref := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	ref.LoadProgram(prog)
	for {
		if _, ok := ref.Step(); !ok {
			break
		}
	}

	m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	m.LoadProgram(prog)
	var entries []trace.Entry
	wrongPC := prog.Symbols["wrong"]
	redirected := false
	for {
		e, ok := m.Step()
		if !ok {
			break
		}
		if int(e.IN) >= len(entries) {
			entries = append(entries, e)
		} else {
			entries[e.IN] = e
		}
		// After the first taken jnz, wander down the wrong path for a
		// while, then resume the correct path.
		if !redirected && e.Branch && e.Cond && e.Taken {
			divergeAt := e.IN + 1
			if err := m.SetPC(divergeAt, wrongPC); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 25; i++ {
				if _, ok := m.Step(); !ok {
					t.Fatal("wrong path halted unexpectedly")
				}
			}
			// Resolution: back to the right path (the branch's actual
			// successor).
			if err := m.SetPC(divergeAt, e.NextPC); err != nil {
				t.Fatal(err)
			}
			redirected = true
		}
	}
	if !redirected {
		t.Fatal("never redirected")
	}
	if m.Scalars != ref.Scalars {
		t.Errorf("state after wrong-path excursion diverged:\n got %+v\nwant %+v",
			m.Scalars, ref.Scalars)
	}
	if m.Mem.Read(0x7000, 4) != ref.Mem.Read(0x7000, 4) {
		t.Error("wrong-path store not rolled back")
	}
	if m.GPR[2] != 111 {
		t.Error("right path did not complete")
	}
}

func TestSetPCBounds(t *testing.T) {
	m, _ := run(t, "nop\nnop\nnop\nhalt\n", 2) // executes 2 instructions
	if err := m.SetPC(5, 0); err == nil {
		t.Error("SetPC beyond produced instructions should fail")
	}
	m.Commit(1) // instructions 0 and 1 committed
	if err := m.SetPC(0, 0x1000); err == nil {
		t.Error("SetPC below committed window should fail")
	}
	if err := m.SetPC(1, 0x1000); err == nil {
		t.Error("SetPC of a committed instruction should fail")
	}
	if err := m.SetPC(2, 0x1000); err != nil {
		t.Errorf("SetPC(2) redirect of next instruction failed: %v", err)
	}
	if m.PC != 0x1000 {
		t.Errorf("redirect did not move PC: %#x", m.PC)
	}
}

func TestCommitReleasesJournal(t *testing.T) {
	m, _ := run(t, "movi r0, 1\nmovi r0, 2\nmovi r0, 3\nmovi r0, 4\nhalt\n", 4)
	if m.JournalLen() != 4 {
		t.Fatalf("journal = %d, want 4", m.JournalLen())
	}
	m.Commit(1)
	if m.JournalLen() != 2 {
		t.Errorf("journal after Commit(1) = %d, want 2", m.JournalLen())
	}
	m.Commit(100)
	if m.JournalLen() != 0 {
		t.Errorf("journal after Commit(all) = %d, want 0", m.JournalLen())
	}
}

func TestRollbackAcrossIO(t *testing.T) {
	con := fullsys.NewConsole()
	m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true,
		Devices: []fullsys.Device{con}})
	m.LoadProgram(isa.MustAssemble(`
		movi r0, 'a'
		out  r0, 0x10
		movi r0, 'b'
		out  r0, 0x10
		halt
	`, 0x1000))
	for i := 0; i < 4; i++ {
		if _, ok := m.Step(); !ok {
			t.Fatal("unexpected stop")
		}
	}
	if string(con.Output()) != "ab" {
		t.Fatalf("output %q", con.Output())
	}
	// Roll back past the second OUT: the console must forget 'b'.
	if err := m.SetPC(3, 0); err != nil {
		t.Fatal(err)
	}
	if string(con.Output()) != "a" {
		t.Errorf("output after rollback %q, want %q", con.Output(), "a")
	}
}

func TestHaltWakeByInterrupt(t *testing.T) {
	// Kernel programs the timer then halts; AdvanceIdle must wake it and
	// deliver the timer interrupt to the handler.
	m := New(Config{MemBytes: 1 << 20})
	m.LoadProgram(isa.MustAssemble(`
		.org 0
		.space 256
		.org 0x400
	timer:	movi r10, 123
		movi r9, 1
		out  r9, 0x22    ; ack
		halt
		.org 0x1000
	entry:
		movi r8, timer
		movi r9, 64      ; IVT[16] = timer handler
		stw  r8, [r9]
		movi r8, 50
		out  r8, 0x20    ; timer interval = 50
		sti
		halt             ; wait for interrupt
	.entry entry
	`, 0))
	for {
		if _, ok := m.Step(); !ok {
			break
		}
	}
	if !m.Halted() {
		t.Fatal("should be halted waiting for timer")
	}
	woke := false
	for i := 0; i < 100 && !woke; i++ {
		woke = m.AdvanceIdle(10)
	}
	if !woke {
		t.Fatal("timer interrupt never woke the machine")
	}
	for {
		if _, ok := m.Step(); !ok {
			break
		}
	}
	if m.GPR[10] != 123 {
		t.Errorf("timer handler did not run: R10=%d", m.GPR[10])
	}
	if m.Interrupts != 1 {
		t.Errorf("interrupts = %d, want 1", m.Interrupts)
	}
}

// TestRollbackAcrossIdle pins the SetPC contract across an idle period: a
// device event that fires while the target is halted (here the timer tick
// that wakes it) must be rewound when a re-steer rolls back across the HALT.
// The target sleeps on the timer eight times; after each wake the driver
// lets five instructions run (the handler and the return), rolls back to
// four instructions before the HALT and carries on. Every rollback mode
// must reproduce the straight run exactly: same instruction count, device
// time, final state and — per HALT — the same idle period before and after
// the rollback.
func TestRollbackAcrossIdle(t *testing.T) {
	prog := isa.MustAssemble(`
		.org 0
		.space 256
		.org 0x400
	timer:	inc  r10
		movi r9, 1
		out  r9, 0x22    ; ack
		iret
		.org 0x1000
	entry:
		movi r8, timer
		movi r9, 64      ; IVT[16] = timer handler
		stw  r8, [r9]
		movi r8, 700
		out  r8, 0x20    ; timer interval
		sti
	work:	movi r7, 0
	spin:	inc  r7
		cmpi r7, 40
		jl   spin
		halt             ; sleep until the next tick
		cmpi r10, 8
		jl   work
		cli
		halt
	.entry entry
	`, 0)
	type outcome struct {
		in, now uint64
		state   Scalars
		idles   map[uint64][]uint64 // HALT's IN → the idle periods that followed it
	}
	drive := func(t *testing.T, cfg Config, resteer bool) outcome {
		cfg.MemBytes = 1 << 20
		m := New(cfg)
		m.LoadProgram(prog)
		out := outcome{idles: map[uint64][]uint64{}}
		var pcs []isa.Word // PC by IN, rewritten on re-execution
		budget := 0
		sink := func(e trace.Entry) bool {
			pcs = append(pcs[:e.IN], e.PC)
			budget--
			return budget != 0
		}
		resteered := uint64(0)
		for !m.Terminal() {
			budget = 0
			if m.StepBlock(sink) > 0 {
				continue
			}
			haltIN := m.IN() - 1
			m.Commit(haltIN - 8)
			ticks := uint64(0)
			for !m.AdvanceIdle(1) {
				if ticks++; ticks > 10_000 {
					t.Fatalf("never woke after HALT %d", haltIN)
				}
			}
			out.idles[haltIN] = append(out.idles[haltIN], ticks)
			if resteer && haltIN > resteered {
				resteered = haltIN
				for budget = 5; budget > 0 && m.StepBlock(sink) > 0; {
				}
				if err := m.SetPC(haltIN-4, pcs[haltIN-4]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if m.Fatal() != nil {
			t.Fatal(m.Fatal())
		}
		out.in, out.now, out.state = m.IN(), m.Now(), m.Scalars
		return out
	}
	want := drive(t, Config{}, false)
	if want.state.GPR[10] != 8 || len(want.idles) != 8 {
		t.Fatalf("straight run: %d ticks handled over %d sleeps, want 8 and 8", want.state.GPR[10], len(want.idles))
	}
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"journal", Config{}},
		{"journal+superblocks", Config{ICacheEntries: 64, SuperblockLen: 8}},
		{"checkpoint", Config{CheckpointInterval: 16}},
	} {
		t.Run(row.name, func(t *testing.T) {
			got := drive(t, row.cfg, true)
			if got.in != want.in || got.now != want.now {
				t.Errorf("ended at IN %d, device time %d; the straight run at %d, %d", got.in, got.now, want.in, want.now)
			}
			if got.state != want.state {
				t.Errorf("final state diverged:\n%+v\n%+v", got.state, want.state)
			}
			for haltIN, periods := range want.idles {
				if g := got.idles[haltIN]; len(g) != 2 || g[0] != periods[0] || g[1] != periods[0] {
					t.Errorf("HALT %d: idle periods %v, want %d before and after the rollback", haltIN, g, periods[0])
				}
			}
		})
	}
}

func TestCoverageAccounting(t *testing.T) {
	m, _ := run(t, `
		movi r0, 5
		fldi f0, 1.0     ; NOP-replaced: not covered
		fadd f0, f0      ; NOP-replaced
		ldw  r1, [r0+100]
		halt
	`, 10)
	cov := m.Coverage
	if cov.Instructions != 5 {
		t.Fatalf("instructions = %d, want 5", cov.Instructions)
	}
	if cov.Covered != 3 {
		t.Errorf("covered = %d, want 3", cov.Covered)
	}
	if cov.UopsPerInst() <= 1.0 {
		t.Errorf("µops/inst = %v, want > 1 (ldw is 2 µops)", cov.UopsPerInst())
	}
	if m.TraceWords == 0 {
		t.Error("no trace words accounted")
	}
}

// entriesEqual compares trace entries including their µop slices (Entry
// contains a slice, so == does not apply).
func entriesEqual(a, b trace.Entry) bool {
	return reflect.DeepEqual(a, b)
}

// TestRandomMemoryNeverPanics is the failure-injection property: executing
// arbitrary byte soup (what wrong-path excursions can reach) must never
// panic the model — it may fault, trap or go fatal, but always returns.
func TestRandomMemoryNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 30; trial++ {
		m := New(Config{MemBytes: 1 << 18})
		// An IVT whose every vector points at a tiny handler, so traps
		// keep executing rather than ending the run immediately.
		handler := isa.MustAssemble("iret\n", 0x80)
		m.Mem.Load(handler.Base, handler.Code)
		for v := 0; v < isa.NumVectors; v++ {
			m.Mem.Write(isa.Word(v*isa.VectorStride), uint64(handler.Base), 4)
		}
		// Random soup everywhere above.
		soup := make([]byte, 1<<16)
		rng.Read(soup)
		m.Mem.Load(0x1000, soup)
		m.PC = 0x1000 + isa.Word(rng.Intn(1<<15))
		steps := 0
		for steps < 20000 {
			if _, ok := m.Step(); !ok {
				if m.Fatal() != nil || m.Halted() {
					break
				}
			}
			steps++
		}
		// Also survive a rollback of whatever just happened.
		if w := m.JournalLen(); w > 1 {
			if err := m.SetPC(m.IN()-uint64(w/2), 0x1000); err != nil {
				t.Fatalf("trial %d: rollback failed: %v", trial, err)
			}
		}
	}
}

// TestRepFaultCountRegister drives the partial-progress semantics directly
// through the model API (no OS, one trap vector): iterate a REP across a
// protection fault and check the registers its handler sees.
func TestRepFaultCountRegister(t *testing.T) {
	m := New(Config{MemBytes: 1 << 16, DisableInterrupts: true})
	// Copy 64 bytes where the destination runs off the end of physical
	// memory after 32 iterations: store to 0xFFE0..0xFFFF ok, then fault
	// into a handler that halts.
	prog := isa.MustAssemble(`
		movi r0, 0x8000
		movi r1, 0xFFE0
		movi r2, 64
	copy:	rep movs
		halt
	handler:
		halt
	`, 0x1000)
	m.LoadProgram(prog)
	m.Mem.Write(isa.Word(isa.VecProt)*isa.VectorStride, uint64(prog.Symbols["handler"]), 4)
	for {
		if _, ok := m.Step(); !ok {
			break
		}
	}
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
	if m.CR[isa.CREPC] != prog.Symbols["copy"] || m.CR[isa.CRECause] != isa.VecProt {
		t.Fatalf("EPC %#x cause %d, want the rep movs at %#x and vector %d",
			m.CR[isa.CREPC], m.CR[isa.CRECause], prog.Symbols["copy"], isa.VecProt)
	}
	if m.GPR[2] != 64-32 {
		t.Errorf("count register = %d, want 32 remaining after partial REP", m.GPR[2])
	}
	if m.GPR[1] != 0xFFE0+32 {
		t.Errorf("destination pointer = %#x, want %#x", m.GPR[1], 0xFFE0+32)
	}
}

// TestPageCrossingFetch places a long instruction across a user page
// boundary: the fetch path must stitch both pages (or fault on the second,
// which the TLB handler services) and execute it correctly. The predecode
// cache holds only single-page instructions, so with it on each of the
// loop's executions of the spanning one is one probe miss and no hit.
func TestPageCrossingFetch(t *testing.T) {
	const src = `
		.org 0
		.space 256
		.org 0x400
	tlbmiss:
		movrc r11, cr2
		shri  r11, 12
		mov   r12, r11
		shli  r12, 12
		ori   r12, 3
		tlbwr r11, r12
		iret
		.org 0x480
	sys:	halt
		.org 0x1000
	entry:
		movi r8, tlbmiss
		movi r9, 12
		stw  r8, [r9]
		movi r8, sys
		movi r9, 20
		stw  r8, [r9]
		movi r8, 1
		movcr r8, cr1
		movi r8, 0x8000
		movcr r8, cr5
		movi r8, 0x20
		movcr r8, cr6
		iret
		; user code physically at 0x8000 (identity-mapped on demand). Pad so
		; that a 6-byte movi straddles the 0x9000 page boundary.
		.org 0x8000
	user:
		movi r6, 4            ; spanRuns
		jmpf nearend
		.org 0x8FFD
	nearend:
		movi r7, 0x12345678   ; 6 bytes: 0x8FFD..0x9002 crosses the page
		dec  r6
		jnz  nearend
		syscall
	.entry entry
	`
	const spanRuns, spanPC = 4, 0x8FFD
	m, _ := runAt(t, src, 0, 100000)
	if m.GPR[7] != 0x12345678 {
		t.Errorf("page-crossing instruction executed wrong: R7 = %#x", m.GPR[7])
	}

	c := New(Config{MemBytes: 1 << 20, DisableInterrupts: true, ICacheEntries: 64})
	c.LoadProgram(isa.MustAssemble(src, 0))
	runs := 0
	for {
		hits, misses, _, _ := c.ICacheStats()
		e, ok := c.Step()
		if !ok {
			break
		}
		if e.PC != spanPC || e.Exception {
			continue
		}
		runs++
		if h, mi, _, _ := c.ICacheStats(); h != hits || mi != misses+1 {
			t.Errorf("execution %d of the spanning instruction: %d hits, %d misses; want 0, 1",
				runs, h-hits, mi-misses)
		}
	}
	if runs != spanRuns || c.GPR[7] != 0x12345678 {
		t.Errorf("the spanning instruction executed %d times (want %d), R7 = %#x", runs, spanRuns, c.GPR[7])
	}
}

// TestTerminal pins the one definition of "the target can never wake" that
// every run loop (coupled, replay, FM-only) stops on.
func TestTerminal(t *testing.T) {
	for _, tc := range []struct {
		name, src  string
		bareMetal  bool
		halted, ok bool
	}{
		{"still running", "movi r0, 1\nmovi r1, 2\nmovi r2, 3\n", false, false, false},
		{"cli; halt is shutdown", "cli\nhalt\n", false, true, true},
		{"sti; halt waits for an interrupt", "sti\nhalt\n", false, true, false},
		{"sti; halt on bare metal never wakes", "sti\nhalt\n", true, true, true},
		{"fatal trap", "movi r0, 0\nmovi r1, 0\ndiv r0, r1\n", true, false, true},
	} {
		m := New(Config{MemBytes: 1 << 20, DisableInterrupts: tc.bareMetal})
		m.LoadProgram(isa.MustAssemble(tc.src, 0x1000))
		for i := 0; i < 3; i++ {
			m.Step()
		}
		if m.Halted() != tc.halted || m.Terminal() != tc.ok {
			t.Errorf("%s: halted=%v terminal=%v, want %v/%v (fatal: %v)",
				tc.name, m.Halted(), m.Terminal(), tc.halted, tc.ok, m.Fatal())
		}
	}
}
