package fm

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// llscProgram exercises both ll/sc outcomes: a successful increment and a
// failure after an intervening store changes the linked word.
const llscProgram = `
	movi r7, 0x5000
	movi r0, 5
	stw  r0, [r7]
	ll   r1, [r7]      ; link (0x5000, 5)
	addi r1, 1
	sc   r1, [r7]      ; succeeds: mem <- 6, r1 <- 1
	ldw  r2, [r7]      ; r2 = 6
	ll   r3, [r7]      ; link (0x5000, 6)
	movi r4, 9
	stw  r4, [r7]      ; the linked value changes
	sc   r3, [r7]      ; fails: r3 <- 0, mem stays 9
	halt
`

func TestLLSCOutcomes(t *testing.T) {
	m, _ := run(t, llscProgram, 100)
	if m.GPR[1] != 1 {
		t.Errorf("successful sc: r1 = %d, want 1", m.GPR[1])
	}
	if m.GPR[2] != 6 {
		t.Errorf("sc'd word reads back %d, want 6", m.GPR[2])
	}
	if m.GPR[3] != 0 {
		t.Errorf("sc after intervening store: r3 = %d, want 0", m.GPR[3])
	}
	if v := m.Mem.Read(0x5000, 4); v != 9 {
		t.Errorf("failed sc must not store: mem = %d, want 9", v)
	}
}

// TestLLSCRollbackReplay rolls the model back into the middle of the ll/sc
// sequences (between link and store-conditional, and before the link) under
// both rollback modes: the re-executed sequence must reproduce the
// reference trace exactly, because the link register lives in Scalars and
// the journal restores the linked word in memory.
func TestLLSCRollbackReplay(t *testing.T) {
	prog := isa.MustAssemble(llscProgram, 0x1000)

	ref := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	ref.LoadProgram(prog)
	var want []trace.Entry
	for i := 0; i < 100; i++ {
		e, ok := ref.Step()
		if !ok {
			break
		}
		want = append(want, e)
	}

	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"journal", Config{MemBytes: 1 << 20, DisableInterrupts: true}},
		{"checkpoint", Config{MemBytes: 1 << 20, DisableInterrupts: true,
			CheckpointInterval: 4}},
	} {
		// Roll back to: between ll and sc (4), the ll itself (3), the
		// successful sc (5), and between the second ll and the breaking
		// store (8).
		for _, target := range []uint64{3, 4, 5, 8} {
			m := New(mode.cfg)
			m.LoadProgram(prog)
			// Run past both sc's, then rewind.
			for m.IN() < 11 {
				if _, ok := m.Step(); !ok {
					t.Fatalf("%s: stalled at IN %d", mode.name, m.IN())
				}
			}
			if err := m.SetPC(target, want[target].PC); err != nil {
				t.Fatalf("%s: SetPC(%d): %v", mode.name, target, err)
			}
			for i := target; ; i++ {
				e, ok := m.Step()
				if !ok {
					if m.Fatal() != nil {
						t.Fatalf("%s target %d: fatal: %v", mode.name, target, m.Fatal())
					}
					break
				}
				if !entriesEqual(e, want[i]) {
					t.Fatalf("%s target %d: entry %d differs after rollback:\n got %+v\nwant %+v",
						mode.name, target, i, e, want[i])
				}
			}
			if m.Scalars != ref.Scalars {
				t.Fatalf("%s target %d: final scalars differ", mode.name, target)
			}
			if v := m.Mem.Read(0x5000, 4); v != 9 {
				t.Fatalf("%s target %d: final mem = %d, want 9", mode.name, target, v)
			}
		}
	}
}

// TestLLSCCrossCoreStoreBreaksLink interleaves two functional models over
// one shared physical memory: a store by core 1 between core 0's ll and sc
// must fail core 0's sc. Also checks MOVRC from CRCpuID reads each core's
// own id.
func TestLLSCCrossCoreStoreBreaksLink(t *testing.T) {
	shared := NewShared(Config{MemBytes: 1 << 20, ICacheEntries: 64})
	mk := func(id int) *Model {
		return New(Config{Shared: shared, CoreID: id, DisableInterrupts: true})
	}
	m0, m1 := mk(0), mk(1)
	m0.LoadProgram(isa.MustAssemble(`
		movi  r7, 0x5000
		ll    r1, [r7]
		movi  r2, 1
		sc    r2, [r7]     ; core 1 stored in between: must fail
		movrc r3, cr8
		halt
	`, 0x1000))
	m1.LoadProgram(isa.MustAssemble(`
		movi  r7, 0x5000
		movi  r0, 123
		stw   r0, [r7]
		movrc r3, cr8
		halt
	`, 0x2000))

	step := func(m *Model, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, ok := m.Step(); !ok {
				t.Fatalf("unexpected stop at IN %d: %v", m.IN(), m.Fatal())
			}
		}
	}
	step(m0, 2) // movi + ll: core 0 holds the link
	for !m1.Halted() {
		if _, ok := m1.Step(); !ok {
			t.Fatalf("core 1: %v", m1.Fatal())
		}
	}
	step(m0, 4) // movi + sc + movrc + halt

	if m0.GPR[2] != 0 {
		t.Errorf("core 0 sc after core 1's store: r2 = %d, want 0", m0.GPR[2])
	}
	if v := shared.Mem.Read(0x5000, 4); v != 123 {
		t.Errorf("shared word = %d, want 123 (core 1's store)", v)
	}
	if m0.GPR[3] != 0 || m1.GPR[3] != 1 {
		t.Errorf("cr8 cpuid reads: core0=%d core1=%d, want 0 and 1", m0.GPR[3], m1.GPR[3])
	}
}

// TestICacheSMCOverAtomic patches the displacement bytes of a cached sc
// instruction between loop iterations: the predecode cache must invalidate
// the atomic site, so the patched sc targets the new address (and fails,
// since the link names the old one).
func TestICacheSMCOverAtomic(t *testing.T) {
	m := icachePair(t, `
		movi r6, 0
		movi r7, 0x5000
		movi r0, 0xAA
		stw  r0, [r7]
	loop:
		ll   r1, [r7]
		addi r1, 1
	target:
		sc   r1, [r7]      ; second pass: disp patched to 4 -> link mismatch
		add  r5, r1        ; accumulate success flags
		addi r6, 1
		cmpi r6, 2
		jl   patch
		halt
	patch:
		movi r0, target
		movi r1, 4
		sth  r1, [r0+2]    ; FmtRM displacement lives at bytes 2..3
		jmp  loop
	`, 0x1000, 200)
	if m.GPR[5] != 1 {
		t.Errorf("success-flag sum = %d, want 1 (second sc must miss the link)", m.GPR[5])
	}
	if v := m.Mem.Read(0x5004, 4); v != 0 {
		t.Errorf("patched sc stored despite broken link: mem[0x5004] = %#x", v)
	}
	_, _, invalidations, _ := m.ICacheStats()
	if invalidations == 0 {
		t.Error("store over the sc site caused no predecode invalidation")
	}
}
