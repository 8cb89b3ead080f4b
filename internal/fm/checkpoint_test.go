package fm

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// checkpointed builds a model whose journal takes a leapfrog checkpoint
// every interval instructions.
func checkpointed(prog *isa.Program, interval int) *Model {
	m := New(Config{
		MemBytes: 1 << 20, DisableInterrupts: true,
		CheckpointInterval: interval,
	})
	m.LoadProgram(prog)
	return m
}

const checkpointSrc = `
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
	cmpi r1, 1500
	jl   loop
	halt
`

// TestCheckpointEquivalence is the mode-equivalence property: under an
// identical random re-steer schedule, the journal with a record per
// instruction and with leapfrog checkpoints produces the same trace and the
// same final state.
func TestCheckpointEquivalence(t *testing.T) {
	prog := isa.MustAssemble(checkpointSrc, 0x1000)

	type driver struct {
		m       *Model
		entries []trace.Entry
	}
	run := func(m *Model, seed int64) driver {
		d := driver{m: m}
		rng := rand.New(rand.NewSource(seed))
		for {
			e, ok := m.Step()
			if !ok {
				break
			}
			if int(e.IN) >= len(d.entries) {
				d.entries = append(d.entries, e)
			} else {
				d.entries[e.IN] = e
			}
			if rng.Intn(9) == 0 && m.JournalLen() > 1 {
				back := rng.Intn(min(25, m.JournalLen()-1)) + 1
				target := m.IN() - uint64(back)
				if err := m.SetPC(target, d.entries[target].PC); err != nil {
					t.Fatalf("SetPC: %v", err)
				}
			}
			if rng.Intn(13) == 0 && m.IN() > 40 {
				m.Commit(m.IN() - 40)
			}
		}
		return d
	}

	ref := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	ref.LoadProgram(prog)
	refRun := run(ref, 99)

	for _, interval := range []int{1, 7, 64} {
		cp := run(checkpointed(prog, interval), 99)
		if len(cp.entries) != len(refRun.entries) {
			t.Fatalf("interval %d: %d entries vs %d", interval, len(cp.entries), len(refRun.entries))
		}
		for i := range cp.entries {
			if !entriesEqual(cp.entries[i], refRun.entries[i]) {
				t.Fatalf("interval %d: entry %d differs:\n%+v\n%+v",
					interval, i, cp.entries[i], refRun.entries[i])
			}
		}
		if cp.m.Scalars != refRun.m.Scalars {
			t.Fatalf("interval %d: final scalar state differs", interval)
		}
		if cp.m.Rollbacks == 0 {
			t.Fatalf("interval %d: no rollbacks exercised", interval)
		}
		if interval > 1 && cp.m.ReExecuted() == 0 {
			t.Errorf("interval %d: no re-execution counted (αBA missing)", interval)
		}
	}
	if refRun.m.ReExecuted() != 0 {
		t.Error("a record per instruction should never re-execute")
	}
}

// TestCheckpointReplayCost: the coarser the checkpoint interval, the more
// re-execution a rollback costs — §3.1's αBA trade-off.
func TestCheckpointReplayCost(t *testing.T) {
	// A non-terminating variant: the test bounds the step count itself.
	prog := isa.MustAssemble(`
		movi sp, 0x9000
		movi r4, 0x4000
	loop:	addi r0, 3
		stw  r0, [r4]
		ldw  r2, [r4]
		add  r1, r2
		jmp  loop
	`, 0x1000)
	cost := func(interval int) uint64 {
		m := checkpointed(prog, interval)
		var pcs []isa.Word
		for i := 0; i < 600; i++ {
			e, ok := m.Step()
			if !ok {
				t.Fatal("ended early")
			}
			pcs = append(pcs, e.PC)
			if i%50 == 49 {
				target := m.IN() - 10
				if err := m.SetPC(target, pcs[target]); err != nil {
					t.Fatal(err)
				}
				pcs = pcs[:target]
			}
		}
		return m.ReExecuted()
	}
	fine := cost(4)
	coarse := cost(128)
	if coarse <= fine {
		t.Errorf("coarse checkpoints (%d re-executed) not above fine (%d)", coarse, fine)
	}
}

// TestCheckpointCommitLeapfrogs: commits release old checkpoints while
// keeping rollback capability for the uncommitted window.
func TestCheckpointCommitLeapfrogs(t *testing.T) {
	prog := isa.MustAssemble(checkpointSrc, 0x1000)
	m := checkpointed(prog, 8)
	var pcs []isa.Word
	for i := 0; i < 200; i++ {
		e, ok := m.Step()
		if !ok {
			t.Fatal("ended early")
		}
		pcs = append(pcs, e.PC)
	}
	m.Commit(150)
	if m.JournalLen() > 64 {
		t.Errorf("window %d after commit; checkpoints not released", m.JournalLen())
	}
	// Rollback inside the live window still works...
	if err := m.SetPC(180, pcs[180]); err != nil {
		t.Errorf("rollback to uncommitted IN failed: %v", err)
	}
	// ...but not below the commit frontier's checkpoint.
	if err := m.SetPC(10, pcs[10]); err == nil {
		t.Error("rollback below the released checkpoints succeeded")
	}
}

// TestCheckpointWithDevicesAndIdle exercises replay across I/O and HALT:
// the idle log must reproduce interrupt timing exactly.
func TestCheckpointWithDevicesAndIdle(t *testing.T) {
	src := `
		.org 0
		.space 256
		.org 0x400
	timer:	inc  r10
		movi r9, 1
		out  r9, 0x22
		iret
		.org 0x1000
	entry:
		movi r8, timer
		movi r9, 64
		stw  r8, [r9]
		movi r8, 100
		out  r8, 0x20
		sti
		movi r7, 0
	work:	inc  r7
		cmpi r7, 40
		jl   work
		halt            ; wait for a timer tick
		cmpi r10, 4
		jl   work
		cli
		halt
	.entry entry
	`
	prog := isa.MustAssemble(src, 0)
	run := func(m *Model, resteer bool) ([]trace.Entry, Scalars) {
		var entries []trace.Entry
		idleGuard := 0
		lastResteer := uint64(0)
		for {
			e, ok := m.Step()
			if !ok {
				if m.Halted() && m.Flags&isa.FlagI != 0 && idleGuard < 1_000_000 {
					m.AdvanceIdle(7)
					idleGuard++
					continue
				}
				break
			}
			idleGuard = 0
			if int(e.IN) >= len(entries) {
				entries = append(entries, e)
			} else {
				entries[e.IN] = e
			}
			// Guard against re-steering the same IN after its own replay
			// (that would loop forever).
			if resteer && e.IN%37 == 36 && e.IN > lastResteer && m.JournalLen() > 5 {
				lastResteer = e.IN
				target := m.IN() - 4
				if err := m.SetPC(target, entries[target].PC); err != nil {
					t.Fatal(err)
				}
			}
		}
		return entries, m.Scalars
	}
	ref := New(Config{MemBytes: 1 << 20})
	ref.LoadProgram(prog)
	refEntries, refState := run(ref, false)

	cp := New(Config{MemBytes: 1 << 20, CheckpointInterval: 16})
	cp.LoadProgram(prog)
	cpEntries, cpState := run(cp, true)

	if len(cpEntries) != len(refEntries) {
		t.Fatalf("%d entries vs %d", len(cpEntries), len(refEntries))
	}
	if cpState != refState {
		t.Fatalf("state diverged across HALT/interrupt replay:\n%+v\n%+v", cpState, refState)
	}
	if cp.GPR[10] != 4 {
		t.Errorf("timer handler ran %d times, want 4", cp.GPR[10])
	}
}

// TestCheckpointReplayFollowsRedirects: a redirect is an input to the
// model, like idle ticks. Here a checkpoint opens right after a wrong-path
// redirect, so it holds the wrong PC; the re-steer to the right path at the
// same IN supersedes it, and a rollback inside the right path must then
// re-execute the right path, as the journal, which re-executes nothing, sees.
func TestCheckpointReplayFollowsRedirects(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r1, 1
		movi r2, 2
	right:	addi r1, 10
		addi r2, 20
		addi r1, 1
		halt
	wrong:	movi r1, 99
		movi r2, 99
		halt
	`, 0x1000)
	right, wrong := prog.Symbols["right"], prog.Symbols["wrong"]
	var final []Scalars
	for _, interval := range []int{0, 2} {
		m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true, CheckpointInterval: interval})
		m.LoadProgram(prog)
		step := func() trace.Entry {
			e, ok := m.Step()
			if !ok {
				t.Fatalf("interval %d: stopped at IN %d", interval, m.IN())
			}
			return e
		}
		step()
		step()
		for _, pc := range []isa.Word{wrong, right} { // mispredict, then resolve
			if err := m.SetPC(2, pc); err != nil {
				t.Fatal(err)
			}
			step()
		}
		e := step() // IN 3
		if err := m.SetPC(e.IN, e.PC); err != nil {
			t.Fatal(err)
		}
		for m.Step(); !m.Halted(); m.Step() {
		}
		final = append(final, m.Scalars)
	}
	if final[0] != final[1] || final[0].GPR[1] != 12 || final[0].GPR[2] != 22 {
		t.Errorf("after a rollback across a re-steered IN: r1 %d r2 %d with the journal, r1 %d r2 %d with checkpoints; want 12 and 22",
			final[0].GPR[1], final[0].GPR[2], final[1].GPR[1], final[1].GPR[2])
	}
}
