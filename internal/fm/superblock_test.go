package fm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/snap"
	"repro/internal/trace"
)

// sbModel builds a model with the superblock fast path enabled (small
// caches, so conflict evictions happen too).
func sbModel(prog *isa.Program, sblen int) *Model {
	m := New(Config{
		MemBytes:          1 << 20,
		DisableInterrupts: true,
		ICacheEntries:     64,
		SuperblockLen:     sblen,
	})
	m.LoadProgram(prog)
	return m
}

// sbDrain runs m block-at-a-time with an always-continue sink (the way the
// coupled pump drives it with budget to spare) until the stream ends or
// max entries have been produced. It returns the entries and the per-call
// retired counts (the observed block lengths).
func sbDrain(t *testing.T, m *Model, max int) ([]trace.Entry, []int) {
	t.Helper()
	var entries []trace.Entry
	var blocks []int
	for len(entries) < max {
		n := m.StepBlock(func(e trace.Entry) bool {
			entries = append(entries, e)
			return true
		})
		if n == 0 {
			if m.Fatal() != nil {
				t.Fatalf("fatal after %d entries: %v", len(entries), m.Fatal())
			}
			break
		}
		blocks = append(blocks, n)
	}
	return entries, blocks
}

// sbReference runs src per-instruction on a plain model (no caches) and
// returns it with its trace.
func sbReference(t *testing.T, prog *isa.Program, max int) (*Model, []trace.Entry) {
	t.Helper()
	m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	m.LoadProgram(prog)
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

func sbCompare(t *testing.T, name string, got, want []trace.Entry, gotM, wantM *Model) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if !entriesEqual(got[i], want[i]) {
			t.Fatalf("%s: entry %d differs:\n got %+v\nwant %+v", name, i, got[i], want[i])
		}
	}
	if gotM.Scalars != wantM.Scalars {
		t.Fatalf("%s: final scalar state differs:\n got %+v\nwant %+v", name, gotM.Scalars, wantM.Scalars)
	}
}

// TestSuperblockSMCSplitsHotBlock patches an instruction inside the hot
// loop body itself: the patch store lands on the block's own page while the
// block is running, so the walk must re-decode every slot after the store
// from fresh bytes (counted as splits) — and the trace must match
// per-instruction execution exactly.
func TestSuperblockSMCSplitsHotBlock(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r6, 0
	loop:
	target:
		movi r7, 0x11111111
		movi r0, target
		addi r0, 2
		movi r1, 0x22222222
		stw  r1, [r0]
		movi r5, 0x1234
		addi r6, 1
		cmpi r6, 4
		jl   loop
		halt
	`, 0x1000)
	ref, want := sbReference(t, prog, 1000)
	for _, sblen := range []int{1, 8, 64} {
		m := sbModel(prog, sblen)
		got, _ := sbDrain(t, m, 1000)
		sbCompare(t, "smc", got, want, m, ref)
		if m.GPR[7] != 0x22222222 {
			t.Errorf("sblen %d: R7 = %#x, want 0x22222222 (patched immediate)", sblen, m.GPR[7])
		}
		if sblen > 1 {
			_, _, splits, _ := m.SuperblockStats()
			if splits == 0 {
				t.Errorf("sblen %d: in-block code store caused no split", sblen)
			}
		}
	}
}

// TestSuperblockRollbackMidBlock re-steers the model to instruction
// numbers that landed in the middle of executed superblocks, under a
// randomized rollback/commit schedule over a self-modifying loop. Every
// replay must reproduce the reference trace bit-exactly: this is the
// block-granular journal's core obligation (records cover spans, setPC
// pops whole records then replays forward to the target).
func TestSuperblockRollbackMidBlock(t *testing.T) {
	prog := isa.MustAssemble(`
		movi sp, 0x9000
		movi r6, 0
		movi r3, 0x22222222
		movi r4, 0x33333333
	loop:
	target:
		movi r7, 0x11111111
		add  r1, r7
		movi r0, target
		addi r0, 2
		stw  r3, [r0]
		mov  r5, r3
		mov  r3, r4
		mov  r4, r5
		addi r6, 1
		cmpi r6, 300
		jl   loop
		halt
	`, 0x1000)
	ref, want := sbReference(t, prog, 100_000)

	m := sbModel(prog, 8)
	rng := rand.New(rand.NewSource(7))
	entries := make([]trace.Entry, len(want))
	produced := 0
	midBlock := 0
	for {
		n := m.StepBlock(func(e trace.Entry) bool {
			if int(e.IN) < len(entries) {
				entries[e.IN] = e
			}
			produced++
			return true
		})
		if n == 0 {
			if m.Fatal() != nil {
				t.Fatalf("fatal: %v", m.Fatal())
			}
			break
		}
		// Re-steers target the same PC the instruction already had, so the
		// replayed path is the original path and the final trace must equal
		// a straight run's.
		if rng.Intn(4) == 0 && m.JournalLen() > 1 {
			back := rng.Intn(min(20, m.JournalLen()-1)) + 1
			target := m.IN() - uint64(back)
			if back < n {
				midBlock++ // target lands inside the block just executed
			}
			if err := m.SetPC(target, entries[target].PC); err != nil {
				t.Fatalf("SetPC(%d): %v", target, err)
			}
		}
		if rng.Intn(13) == 0 && m.IN() > 40 {
			m.Commit(m.IN() - 40)
		}
	}
	sbCompare(t, "rollback", entries, want, m, ref)
	if m.Rollbacks == 0 || midBlock == 0 {
		t.Fatalf("schedule exercised %d rollbacks (%d mid-block), want both > 0",
			m.Rollbacks, midBlock)
	}
	if produced <= len(want) {
		t.Errorf("produced %d entries total, want > %d (re-steers must replay work)",
			produced, len(want))
	}
}

// TestSuperblockLLSCTerminatesBlock pins the block-boundary rule for the
// atomics: both LL and SC end the block they appear in, so the multicore
// converge-at-boundary semantics around the link register see exactly the
// same instruction boundaries as per-instruction stepping.
func TestSuperblockLLSCTerminatesBlock(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r7, 0x5000
		movi r0, 5
		stw  r0, [r7]
		ll   r1, [r7]
		addi r1, 1
		sc   r1, [r7]
		ldw  r2, [r7]
		halt
	`, 0x1000)
	ref, want := sbReference(t, prog, 100)
	m := sbModel(prog, 64)
	got, blocks := sbDrain(t, m, 100)
	sbCompare(t, "llsc", got, want, m, ref)
	// movi/movi/stw/ll | addi/sc | ldw/halt: LL and SC are terminators even
	// with a 64-deep cap.
	wantBlocks := []int{4, 2, 2}
	if len(blocks) != len(wantBlocks) {
		t.Fatalf("block lengths %v, want %v", blocks, wantBlocks)
	}
	for i := range blocks {
		if blocks[i] != wantBlocks[i] {
			t.Fatalf("block lengths %v, want %v", blocks, wantBlocks)
		}
	}
	if m.GPR[1] != 1 || m.GPR[2] != 6 {
		t.Errorf("sc outcome r1=%d r2=%d, want 1, 6", m.GPR[1], m.GPR[2])
	}
}

// evictedSlot is TestSuperblockResume's evicted-slot program: core 0 runs
// the loop at 0x1000 while core 1 runs the one at 0x1040, one 64-slot table
// size further on the same page, whose instructions have the same sizes and
// so index the same slots.
const evictedSlot = `
		movi r6, 0
	loop:
		addi r1, 3
		addi r2, 5
		addi r3, 7
		addi r6, 1
		cmpi r6, 20
		jl   loop
		halt
		.org 0x1040
	alias:
		movi r6, 0
	aliasLoop:
		addi r4, 30
		addi r5, 50
		addi r7, 70
		addi r6, 1
		cmpi r6, 20
		jl   aliasLoop
		jmp  aliasLoop`

// TestSuperblockResume: a block the sink stops after every entry is resumed
// op by op, not re-entered — block entries are hits + misses + resumes, and
// each block keeps one journal record across its segments — and the trace,
// final state and fatal stop equal per-instruction stepping. The fault row
// faults inside a block entered in earlier segments, so the fault replays
// the prefix every segment delivered. In the peer rows a second model over
// the same predecode table runs a block between every two calls, refilling
// the slot the cut walk continues at with an aliasing instruction — at
// another pa on another page (other core, one slot), or on the same page
// and generation (evicted slot): every probe of the cut walk must find the
// alias and re-decode its own instruction.
func TestSuperblockResume(t *testing.T) {
	loop := `
		movi r6, 0
	loop:
		addi r1, 3
		stw  r1, [r2+0x4000]
		ldw  r3, [r2+0x4000]
		addi r6, 1
		cmpi r6, 50
		jl   loop
		halt
		.org 0x3000
	spin:
		addi r1, 1
		addi r2, 2
		jmp  spin`
	for _, tc := range []struct {
		name, src string
		entries   int      // predecode slots
		peer      isa.Word // core 1's entry; 0 = no second core
	}{
		{"loop", loop, 64, 0},
		{"fault", `
		movi r0, 7
		addi r0, 1
		stw  r0, [r2+0x4000]
		addi r0, 2
		div  r0, r2
		addi r0, 3
		halt`, 64, 0},
		{"other core", loop, 1, 0x3000},
		{"evicted slot", evictedSlot, 64, 0x1040},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := isa.MustAssemble(tc.src, 0x1000)
			ref := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
			ref.LoadProgram(prog)
			var want []trace.Entry
			for {
				e, ok := ref.Step()
				if !ok {
					break
				}
				want = append(want, e)
			}
			shared := NewShared(Config{MemBytes: 1 << 20, ICacheEntries: tc.entries, SuperblockLen: DefaultSuperblockLen})
			m, peer := New(Config{Shared: shared, DisableInterrupts: true}), (*Model)(nil)
			m.LoadProgram(prog)
			if tc.peer != 0 {
				peer = New(Config{Shared: shared, CoreID: 1, DisableInterrupts: true})
				peer.LoadProgram(&isa.Program{Entry: tc.peer})
			}
			var got []trace.Entry
			calls := uint64(0)
			for ; !m.Halted() && m.Fatal() == nil && calls <= uint64(len(want)); calls++ {
				m.StepBlock(func(e trace.Entry) bool { got = append(got, e); return false })
				if peer != nil {
					peer.StepBlock(func(trace.Entry) bool { return true })
				}
			}
			sbCompare(t, "resume", got, want, m, ref)
			if (m.Fatal() != nil) != (ref.Fatal() != nil) {
				t.Fatalf("fatal: block path %v, reference %v", m.Fatal(), ref.Fatal())
			}
			hits, misses, _, _ := m.SuperblockStats()
			if m.sb.resumes == 0 || hits+misses+m.sb.resumes != calls {
				t.Errorf("%d block entries: %d hits + %d misses + %d resumes", calls, hits, misses, m.sb.resumes)
			}
			if icHits, _, _, _ := m.ICacheStats(); peer != nil && icHits != 0 {
				t.Errorf("%d predecode hits: the peer refilled every slot between two calls", icHits)
			}
			if m.Fatal() == nil && uint64(m.journal.recs.len()) != hits+misses {
				t.Errorf("%d journal records for %d entered blocks", m.journal.recs.len(), hits+misses)
			}
		})
	}
}

// TestSharedFlushEndsCursors: a program load by one model over a shared
// table rewrites the bytes under another model's cut block. The cut walk
// holds no decoded code, so it resumes; its probes find the table flushed
// and it runs the new bytes.
func TestSharedFlushEndsCursors(t *testing.T) {
	shared := NewShared(Config{MemBytes: 1 << 20, ICacheEntries: 64, SuperblockLen: DefaultSuperblockLen})
	m := New(Config{Shared: shared, DisableInterrupts: true})
	peer := New(Config{Shared: shared, CoreID: 1, DisableInterrupts: true})
	const src = "movi r1, 1\n movi r2, %d\n movi r3, %d\n halt"
	m.LoadProgram(isa.MustAssemble(fmt.Sprintf(src, 2, 3), 0x1000))
	m.StepBlock(func(trace.Entry) bool { return false })
	peer.LoadProgram(isa.MustAssemble(fmt.Sprintf(src, 7, 9), 0x1000))
	for m.StepBlock(func(trace.Entry) bool { return true }) > 0 {
	}
	if m.GPR[2] != 7 || m.GPR[3] != 9 || m.sb.resumes != 1 {
		t.Errorf("r2 = %d, r3 = %d after %d resumes; want 7, 9 after one", m.GPR[2], m.GPR[3], m.sb.resumes)
	}
}

// FuzzSuperblockForm is the differential property behind every superblock
// test: executing arbitrary byte soup block-at-a-time must produce exactly
// the per-instruction model's trace and final state — faults, fatal stops
// and all — and never panic. A third model steps per instruction with
// checkpoints 1..64 instructions apart, so the journal's two modes meet the
// same rollbacks and fatal stops, and all three must end with the same
// memory. Walking garbage exercises decode
// failures, length caps, page-end clipping and terminator detection. Every
// input runs twice: loaded at 0x1000, and straddling the 0x2000 page end
// (loaded at 0x2000 − len(code)/2), where blocks end at the boundary and
// instructions span it.
//
// sched cuts and resumes blocks the way the coupling does: each Produce
// call takes one byte, whose low three bits are how many entries the sink
// accepts before it stops the block, and whose next three pick what runs
// before the next call — nothing, a Commit, a pure-redirect SetPC to the
// same or another PC, a real rollback to the original or another PC, or a
// write of the exported PC. The per-instruction models step once per
// entry delivered and get the same operations. An exhausted schedule
// never cuts. The schedule's first byte also picks the checkpoint interval.
// The models must end with the same registers, memory and TLB — and so must
// a fourth, which never rolls back: it steps straight through the redirects
// and PC writes that no rollback undid, so an undo fault the journal's
// modes share does not pass.
func FuzzSuperblockForm(f *testing.F) {
	for _, src := range []string{
		`movi r0, 3
	loop:	addi r1, 3
		stw  r1, [r2+0x4000]
		ldw  r3, [r2+0x4000]
		dec  r0
		jnz  loop
		halt`,
		`movi r7, 0x5000
		ll   r1, [r7]
		addi r1, 1
		sc   r1, [r7]
		halt`,
		`movi r0, 0x1000
		movi r1, 0x22222222
		stw  r1, [r0]
		halt`,
		// TLB writes and flushes, FP register writes and control register
		// writes, each undone by the rollbacks the schedule picks.
		`movi r9, 0x20
		movi r10, 0x21003
		movi r0, 4
	loop:	tlbwr r9, r10
		addi r9, 1
		fldi f1, 1.5
		i2f  f2, r9
		fadd f1, f2
		movcr r9, cr3
		dec  r0
		jnz  loop
		tlbfl
		fneg f3, f3
		movcr r0, cr7
		halt`,
		`movi r9, 0x40
		movi r10, 0x41001
		movi r0, 3
	loop:	tlbwr r9, r10
		tlbfl
		tlbwr r10, r9
		movi r8, -1
		i2f  f4, r8
		fsqrt f4, f4
		movcr r8, cr3
		addi r9, 1
		dec  r0
		jnz  loop
		halt`,
	} {
		code := isa.MustAssemble(src, 0x1000).Code
		f.Add(code, []byte{})
		// Cut after 1..8 entries with every operation between calls.
		sched := make([]byte, 96)
		rand.New(rand.NewSource(int64(len(code)))).Read(sched)
		f.Add(code, sched)
		// Checkpoints 8 apart; cut after every entry, and every third cut
		// rolls back two instructions to the PCs they ran at, so each is
		// undone and re-executed.
		back := []byte{7, 0}
		for range 40 {
			back = append(back, 0, 0, 0, 0, 5<<3, 0, 1)
		}
		f.Add(code, back)
	}
	// A straight-line block that faults at its ninth op, cut after one entry
	// and then: at every entry until the fault; rolled back into; left where
	// it is by a same-PC redirect; redirected elsewhere; its PC written.
	straight := isa.MustAssemble(`
		movi r0, 1
		addi r0, 2
		addi r0, 3
		addi r0, 4
		stw  r0, [r2+0x4000]
		addi r0, 5
		addi r0, 6
		ldw  r1, [r2+0x4000]
		div  r1, r2
		halt`, 0x1000).Code
	for _, sched := range [][]byte{
		make([]byte, 32),
		{0, 0, 0, 0, 0, 0, 5 << 3, 0, 2},
		{3 << 3, 0},
		{4 << 3, 0x10},
		{7 << 3, 0x10},
	} {
		f.Add(straight, sched)
	}
	// A TLB write and a flush, each rolled back and skipped by a redirect
	// past both, so the journal alone must restore the TLB: re-executing
	// either would hide an undo that restores nothing.
	tlb := isa.MustAssemble(`
		movi  r9, 0x20
		movi  r10, 0x21003
		tlbwr r9, r10
		tlbfl
	skip:	movi  r0, 1
		halt`, 0x1000)
	skip := byte(tlb.Symbols["skip"] - tlb.Base)
	f.Add(tlb.Code, []byte{6<<3 | 2, skip, 0})
	f.Add(tlb.Code, []byte{6<<3 | 3, skip, 0})
	// Loaded across the page end (at 0x1FEF), the 6-byte movi r7 spans it at
	// 0x1FFB..0x2000, and the stb patches its immediate's last byte, in the
	// tail page, before each trip round the loop runs it again.
	f.Add(isa.MustAssemble(`
		movi r0, 3
		movi r1, 0x11
	loop:	movi r7, 0x12345678
		stb  r1, [r2+0x2000]
		addi r1, 1
		dec  r0
		jnz  loop
		halt`, 0x1000).Code, []byte{})
	// Both loops of TestSuperblockResume's evicted-slot row.
	f.Add(isa.MustAssemble(evictedSlot, 0x1000).Code, []byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03}, []byte{})
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, code, sched []byte) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		superblockForm(t, code, sched, 0x1000)
		superblockForm(t, code, sched, 0x2000-isa.Word(len(code)/2))
	})
}

// superblockForm is one FuzzSuperblockForm run of code loaded at base.
func superblockForm(t *testing.T, code, sched []byte, base isa.Word) {
	t.Helper()
	prog := &isa.Program{Base: base, Code: code, Entry: base}
	const max = 500
	next := func() byte {
		if len(sched) == 0 {
			return 0
		}
		b := sched[0]
		sched = sched[1:]
		return b
	}

	ref := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	ref.LoadProgram(prog)
	m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true,
		ICacheEntries: 16, SuperblockLen: 8})
	m.LoadProgram(prog)
	interval := DefaultCheckpointInterval
	if len(sched) > 0 {
		interval = 1 + int(sched[0]%64)
	}
	cp := New(Config{MemBytes: 1 << 20, DisableInterrupts: true, CheckpointInterval: interval})
	cp.LoadProgram(prog)
	var pcs []isa.Word // the PC of every entry, by IN
	// hist is every redirect and PC write that no later rollback undid, in
	// IN order: the history a model that never rolls back steps through.
	type write struct {
		in    uint64
		pc    isa.Word
		fault bool // the models had faulted at in before the write
	}
	var hist []write
	note := func(w write) {
		i := len(hist)
		for i > 0 && hist[i-1].in >= w.in {
			i--
		}
		hist = append(hist[:i], w)
	}
	produced := 0
	for produced < max {
		cut := len(sched) > 0
		s := next()
		left := int(s&7) + 1
		n := m.Produce(func(e *trace.Entry) bool {
			want, ok := ref.Step()
			if !ok {
				t.Fatalf("block path produced IN %d where the reference stopped", e.IN)
			}
			if !entriesEqual(*e, want) {
				t.Fatalf("entry %d differs:\n got %+v\nwant %+v", e.IN, *e, want)
			}
			if got, ok := cp.Step(); !ok || !entriesEqual(got, want) {
				t.Fatalf("checkpoint entry %d differs:\n got %+v\nwant %+v", e.IN, got, want)
			}
			pcs = append(pcs[:e.IN], e.PC)
			left--
			return !cut || left > 0
		})
		if n == 0 || m.Fatal() != nil {
			// A fatal stop delivers no entry: the reference's next Step
			// must hit it too.
			if _, ok := ref.Step(); ok {
				t.Fatalf("block path stopped at IN %d, the reference did not", m.IN())
			}
			if _, ok := cp.Step(); ok {
				t.Fatalf("block path stopped at IN %d, the checkpoint model did not", m.IN())
			}
		}
		if n == 0 {
			break
		}
		produced += n
		if !cut {
			continue
		}
		all := func(op func(*Model) error) bool {
			t.Helper()
			errM, errR, errC := op(m), op(ref), op(cp)
			if (errM == nil) != (errR == nil) || (errC == nil) != (errR == nil) {
				t.Fatalf("operation error: block %v, reference %v, checkpoint %v", errM, errR, errC)
			}
			return errR == nil
		}
		setPC := func(in uint64, pc isa.Word) {
			t.Helper()
			if all(func(x *Model) error { return x.SetPC(in, pc) }) {
				note(write{in: in, pc: pc})
			}
			if m.cut.left != 0 {
				t.Fatal("SetPC left a superblock to resume")
			}
		}
		pc := base + isa.Word(next())
		switch op := s >> 3 & 7; op {
		case 2:
			in := m.IN() - min(m.IN(), uint64(next()%4))
			all(func(x *Model) error { x.Commit(in); return nil })
		case 3:
			setPC(m.IN(), m.PC)
		case 4:
			setPC(m.IN(), pc)
		case 5, 6:
			if window := min(m.JournalLen(), ref.JournalLen()); window > 0 {
				in := m.IN() - 1 - uint64(int(next())%window)
				if op == 5 {
					pc = pcs[in]
				}
				setPC(in, pc)
			}
		case 7:
			note(write{in: ref.IN(), pc: pc, fault: ref.Fatal() != nil})
			m.PC, ref.PC, cp.PC = pc, pc, pc
			if cp.Fatal() == nil {
				// A running checkpoint model re-executes across what it was
				// not told of, so it takes the write as the redirect it is.
				cp.SetPC(cp.IN(), pc)
			}
		}
	}
	// The journal's reference: a model with no host caches steps straight
	// through the surviving history, never rolling back, so an undo fault
	// the three models above share still shows.
	fresh := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	fresh.LoadProgram(prog)
	stepTo := func(in uint64, fault bool) {
		t.Helper()
		for fresh.IN() < in {
			if _, ok := fresh.Step(); !ok {
				t.Fatalf("straight-line model stopped at IN %d short of %d", fresh.IN(), in)
			}
		}
		if !fault {
			return
		}
		if _, ok := fresh.Step(); ok {
			t.Fatalf("straight-line model ran IN %d where the others faulted", in)
		}
	}
	for _, w := range hist {
		stepTo(w.in, w.fault)
		fresh.PC = w.pc
	}
	stepTo(ref.IN(), ref.Fatal() != nil)
	for _, c := range []struct {
		name string
		x    *Model
	}{{"block", m}, {"checkpoint", cp}, {"straight-line", fresh}} {
		name, x := c.name, c.x
		if !sameScalars(x.Scalars, ref.Scalars) {
			t.Fatalf("%s model's scalar state differs:\n got %+v\nwant %+v", name, x.Scalars, ref.Scalars)
		}
		if (x.Fatal() != nil) != (ref.Fatal() != nil) {
			t.Fatalf("%s model's fatal mismatch: %v, reference %v", name, x.Fatal(), ref.Fatal())
		}
		if !bytes.Equal(snap.Marshal(x.Mem), snap.Marshal(ref.Mem)) {
			t.Fatalf("%s model's memory differs", name)
		}
		if x.TLB != ref.TLB {
			t.Fatalf("%s model's TLB differs", name)
		}
	}
}

// sameScalars is Scalars equality with the FPRs compared bit for bit: a NaN
// register equals the same NaN, which == on the struct never admits.
func sameScalars(a, b Scalars) bool {
	for i := range a.FPR {
		if math.Float64bits(a.FPR[i]) != math.Float64bits(b.FPR[i]) {
			return false
		}
	}
	a.FPR, b.FPR = [isa.NumFPR]float64{}, [isa.NumFPR]float64{}
	return a == b
}
