package fm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/trace"
)

// icachePair runs src on two otherwise identical models — predecode cache
// enabled (small, so conflict evictions happen too) and disabled — and
// fails unless the traces and final scalar state are identical. It returns
// the cached model for stat assertions.
func icachePair(t *testing.T, src string, base isa.Word, max int) *Model {
	t.Helper()
	prog := isa.MustAssemble(src, base)
	exec := func(entries int) (*Model, []trace.Entry) {
		m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true, ICacheEntries: entries})
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
	on, onT := exec(64)
	off, offT := exec(0)
	if len(onT) != len(offT) {
		t.Fatalf("cached run: %d entries, uncached %d", len(onT), len(offT))
	}
	for i := range onT {
		if !entriesEqual(onT[i], offT[i]) {
			t.Fatalf("entry %d differs with cache on:\n  on: %+v\n off: %+v", i, onT[i], offT[i])
		}
	}
	if on.Scalars != off.Scalars {
		t.Fatalf("final scalar state differs:\n  on: %+v\n off: %+v", on.Scalars, off.Scalars)
	}
	return on
}

// TestICacheSelfModifyingCode stores into an already-cached instruction's
// immediate and re-executes it: the store must invalidate the cached
// decode, so the patched bytes execute and the trace matches an uncached
// model exactly.
func TestICacheSelfModifyingCode(t *testing.T) {
	m := icachePair(t, `
		movi r6, 0
	loop:
	target:
		movi r7, 0x11111111
		addi r6, 1
		cmpi r6, 2
		jl   patch
		halt
	patch:
		movi r0, target
		addi r0, 2
		movi r1, 0x22222222
		stw  r1, [r0]
		jmp  loop
	`, 0x1000, 100)
	if m.GPR[7] != 0x22222222 {
		t.Errorf("R7 = %#x, want 0x22222222 (patched immediate)", m.GPR[7])
	}
	// No hit assertion: the patch store lands on the page holding the loop
	// itself, so every iteration legitimately re-decodes the whole page.
	_, _, invalidations, _ := m.ICacheStats()
	if invalidations == 0 {
		t.Error("code store caused no invalidation")
	}
}

// TestICachePagedCrossingRemap runs a page-crossing user instruction, then
// has the kernel remap the second virtual page to a different frame holding
// different tail bytes and runs it again. Its physical first page is
// untouched, so a cached decode would still validate: the instruction must
// be fetched through the new mapping, which it is because a spanning
// instruction is never cached.
func TestICachePagedCrossingRemap(t *testing.T) {
	m := icachePair(t, `
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
	sys:
		cmpi r5, 0
		jnz  fin
		movi r5, 1
		; build an alternate image of the tail page in frame 3: copy the
		; original page-9 bytes, then rewrite the first two (the crossing
		; instruction's middle immediate bytes).
		movi r0, 0x9000
		movi r1, 0x3000
		movi r2, 16
		rep movs
		movi r3, 0xBBAA
		movi r4, 0x3000
		sth  r3, [r4]
		; remap user VPN 9 -> PFN 3 and re-run the crossing instruction
		movi r11, 9
		movi r12, 0x3003
		tlbwr r11, r12
		movi r8, 0x8FFD
		movcr r8, cr5
		iret
	fin:	halt
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
		; user code, identity-mapped on demand; the movi's 6 bytes sit at
		; 0x8FFD..0x9002, crossing into VPN 9.
		.org 0x8000
	user:
		jmpf nearend
		.org 0x8FFD
	nearend:
		movi r7, 0x12345678
		syscall
	.entry entry
	`, 0, 100_000)
	// Second execution reads imm bytes {0x78 | AA BB 0x12}: frame 3 holds
	// the copied page with its first halfword rewritten to 0xBBAA.
	if m.GPR[7] != 0x12BBAA78 {
		t.Errorf("R7 = %#x, want 0x12BBAA78 (remapped tail bytes)", m.GPR[7])
	}
}

// TestICacheRollbackPastCodeStore is the directed store-then-rollback SMC
// case: cache an instruction, patch it, execute the patched form, then
// roll back to before the patch store and steer straight back to the
// instruction. Memory undo rewrites the original bytes without passing
// through Model.store, so the cache must learn about it from the undo path.
func TestICacheRollbackPastCodeStore(t *testing.T) {
	src := `
		movi r7, 0
	target:
		movi r7, 0x11111111
		movi r0, target
		addi r0, 2
		movi r1, 0x22222222
		stw  r1, [r0]
		jmp  target
	`
	prog := isa.MustAssemble(src, 0x1000)
	for _, cfg := range []Config{
		{MemBytes: 1 << 20, DisableInterrupts: true, ICacheEntries: 64},
		{MemBytes: 1 << 20, DisableInterrupts: true, ICacheEntries: 64,
			CheckpointInterval: 4},
		{MemBytes: 1 << 20, DisableInterrupts: true},
	} {
		m := New(cfg)
		m.LoadProgram(prog)
		var entries []trace.Entry
		for i := 0; i < 8; i++ { // IN 0..7; IN 7 re-executes target patched
			e, ok := m.Step()
			if !ok {
				t.Fatalf("halted early at step %d", i)
			}
			entries = append(entries, e)
		}
		if m.GPR[7] != 0x22222222 {
			t.Fatalf("after patch R7 = %#x, want 0x22222222", m.GPR[7])
		}
		// Roll back to IN 2 (undoes the store at IN 5) and steer to target.
		if err := m.SetPC(2, entries[1].PC); err != nil {
			t.Fatalf("SetPC: %v", err)
		}
		e, ok := m.Step()
		if !ok || e.IN != 2 || e.PC != entries[1].PC {
			t.Fatalf("redirected step = %+v ok=%v, want IN 2 at %#x", e, ok, entries[1].PC)
		}
		if m.GPR[7] != 0x11111111 {
			t.Fatalf("replay after rollback R7 = %#x, want original 0x11111111", m.GPR[7])
		}
	}
}

// TestICacheRollbackReplayEquivalence runs a self-modifying loop under an
// identical random rollback/commit schedule on three models — journal and
// leapfrog-checkpoint with the cache on, journal with it off — and
// requires byte-identical traces and final state. This locks the cache's
// two rollback obligations at once: undo-driven invalidation and
// checkpoint replay through the normal store path.
func TestICacheRollbackReplayEquivalence(t *testing.T) {
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

	drive := func(m *Model, seed int64) []trace.Entry {
		var entries []trace.Entry
		rng := rand.New(rand.NewSource(seed))
		for {
			e, ok := m.Step()
			if !ok {
				if m.Fatal() != nil {
					t.Fatalf("fatal: %v", m.Fatal())
				}
				break
			}
			if int(e.IN) >= len(entries) {
				entries = append(entries, e)
			} else {
				entries[e.IN] = e
			}
			if rng.Intn(8) == 0 && m.JournalLen() > 1 {
				back := rng.Intn(min(20, m.JournalLen()-1)) + 1
				target := m.IN() - uint64(back)
				if err := m.SetPC(target, entries[target].PC); err != nil {
					t.Fatalf("SetPC: %v", err)
				}
			}
			if rng.Intn(13) == 0 && m.IN() > 40 {
				m.Commit(m.IN() - 40)
			}
		}
		return entries
	}

	ref := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	ref.LoadProgram(prog)
	refEntries := drive(ref, 7)

	for name, cfg := range map[string]Config{
		"journal": {MemBytes: 1 << 20, DisableInterrupts: true, ICacheEntries: 64},
		"checkpoint": {MemBytes: 1 << 20, DisableInterrupts: true, ICacheEntries: 64,
			CheckpointInterval: 8},
	} {
		m := New(cfg)
		m.LoadProgram(prog)
		entries := drive(m, 7)
		if len(entries) != len(refEntries) {
			t.Fatalf("%s: %d entries vs %d uncached", name, len(entries), len(refEntries))
		}
		for i := range entries {
			if !entriesEqual(entries[i], refEntries[i]) {
				t.Fatalf("%s: entry %d differs:\n got %+v\nwant %+v", name, i, entries[i], refEntries[i])
			}
		}
		if m.Scalars != ref.Scalars {
			t.Fatalf("%s: final scalar state differs", name)
		}
		if m.Rollbacks == 0 {
			t.Fatalf("%s: schedule exercised no rollbacks", name)
		}
	}
}

// TestICacheStatsAndTelemetry pins the counter plumbing: LoadProgram
// counts one flush, a loop hits, and the counters surface under the
// documented fm_icache_* metric names (absent when the cache is off).
func TestICacheStatsAndTelemetry(t *testing.T) {
	src := `
		movi r0, 0
	loop:
		addi r0, 1
		cmpi r0, 50
		jl   loop
		halt
	`
	m, _ := func() (*Model, []trace.Entry) {
		m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true, ICacheEntries: 16})
		m.LoadProgram(isa.MustAssemble(src, 0x1000))
		for {
			if _, ok := m.Step(); !ok {
				break
			}
		}
		return m, nil
	}()
	hits, misses, _, flushes := m.ICacheStats()
	if hits == 0 || misses == 0 {
		t.Errorf("stats hits=%d misses=%d, want both > 0", hits, misses)
	}
	if flushes != 1 {
		t.Errorf("flushes = %d, want exactly 1 (LoadProgram)", flushes)
	}

	tel := obs.New()
	m.PublishTelemetry(tel)
	var buf bytes.Buffer
	tel.Metrics.WritePrometheus(&buf)
	for _, name := range []string{
		"fm_icache_hits_total", "fm_icache_misses_total",
		"fm_icache_invalidations_total", "fm_icache_flushes_total",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("metric %s missing from telemetry output", name)
		}
	}

	off := New(Config{MemBytes: 1 << 20, DisableInterrupts: true})
	if h, ms, inv, fl := off.ICacheStats(); h|ms|inv|fl != 0 {
		t.Errorf("disabled cache reported stats %d %d %d %d", h, ms, inv, fl)
	}
	tel2 := obs.New()
	off.PublishTelemetry(tel2)
	buf.Reset()
	tel2.Metrics.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "fm_icache") {
		t.Error("disabled cache still publishes fm_icache_* metrics")
	}
}

// cachesLoop runs a loop at 0x1000 that calls a routine 0x1840 bytes away,
// on the next page: two slot ranges of a 4 Ki-entry table. The routine
// patches its own immediate every call, so the table sees hits, misses and
// store invalidations, and the superblock walk stale slots at entry and
// past it.
const cachesLoop = `
	movi r6, 0
loop:
	call far
	addi r6, 1
	cmpi r6, 20
	jl   loop
	halt
	.org 0x2840
far:
	movi r7, 0x11111111
	add  r1, r7
	movi r0, far
	addi r0, 2
	stw  r6, [r0]
	ret
`

// runCachesLoop runs cachesLoop to its halt through StepBlock, committing
// as it goes, on a model with the given predecode-cache size, and returns
// the model and the physical address of every instruction it executed.
func runCachesLoop(t *testing.T, entries int) (*Model, []isa.Word) {
	t.Helper()
	m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true,
		ICacheEntries: entries, SuperblockLen: DefaultSuperblockLen})
	m.LoadProgram(isa.MustAssemble(cachesLoop, 0x1000))
	var pcs []isa.Word
	for m.StepBlock(func(e trace.Entry) bool { pcs = append(pcs, e.PC); return true }) > 0 {
		m.Commit(m.IN() - 1)
	}
	if m.Fatal() != nil || m.GPR[6] != 20 {
		t.Fatalf("entries %d: r6 = %d, fatal %v", entries, m.GPR[6], m.Fatal())
	}
	return m, pcs
}

// filledGroups lists the groups of t that are allocated.
func filledGroups[T any](t *lazyTable[T]) (idx []int) {
	for i, g := range t.groups {
		if g != nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestCachesAllocateWhatTheyFill: the predecode table, which superblocks
// walk, allocates only the slot groups a run's instructions index, a program
// load or state load drops them, and the counts are pinned per table size.
func TestCachesAllocateWhatTheyFill(t *testing.T) {
	m, pcs := runCachesLoop(t, DefaultICacheEntries)
	indexed := map[int]bool{}
	for _, pc := range pcs { // paging is off: a PC is its physical address
		indexed[int(pc&m.icache.mask)/lazyGroup] = true
	}
	ic := filledGroups(&m.icache.slots)
	if len(ic) != len(indexed) {
		t.Errorf("groups allocated: %v; the run indexes %d", ic, len(indexed))
	}
	for _, g := range ic {
		if !indexed[g] {
			t.Errorf("group %d allocated, but no executed instruction indexes it", g)
		}
	}
	if len(indexed) >= len(m.icache.slots.groups)/8 {
		t.Fatalf("the loop indexes %d of %d groups: too many to show laziness", len(indexed), len(m.icache.slots.groups))
	}

	blob := snap.Marshal(m)
	m.LoadProgram(isa.MustAssemble(cachesLoop, 0x1000))
	if ic, pages := filledGroups(&m.icache.slots), filledGroups(&m.icache.pages); ic != nil || pages != nil {
		t.Errorf("LoadProgram left groups %v, page groups %v", ic, pages)
	}
	m.StepBlock(func(trace.Entry) bool { return true })
	m.Commit(m.IN() - 1)
	if err := snap.Unmarshal(blob, m); err != nil {
		t.Fatal(err)
	}
	if ic, pages := filledGroups(&m.icache.slots), filledGroups(&m.icache.pages); ic != nil || pages != nil {
		t.Errorf("LoadState left groups %v, page groups %v", ic, pages)
	}

	for _, tc := range []struct {
		entries int
		want    string
	}{
		// hits misses invalidations flushes | hits misses splits invalidations
		{1, "0 202 20 1 0 61 0 0"},
		{16, "57 145 20 1 19 42 38 19"},
		{17, "57 145 20 1 19 42 76 19"},
		{4096, "76 126 20 1 38 23 95 19"},
	} {
		m, _ := runCachesLoop(t, tc.entries)
		ih, im, ii, ifl := m.ICacheStats()
		sh, sm, ss, si := m.SuperblockStats()
		if got := fmt.Sprint(ih, im, ii, ifl, sh, sm, ss, si); got != tc.want {
			t.Errorf("entries %d: icache/superblock counts %q, want %q", tc.entries, got, tc.want)
		}
	}
}

// lineStats is what TestLineGranularInvalidation reads off a row's run:
// the per-instruction predecode-cache counters and, where the row also runs
// block-wise, the superblock ones.
type lineStats struct {
	icHits, icMisses, inv uint64
	sbHits, sbMisses      uint64
	blocks                bool
}

// lineIters is how many stores each row's loop makes.
const lineIters = 20

// lineSingle runs src per-instruction with the predecode cache on and off
// (icachePair) and block-wise against the same uncached reference.
func lineSingle(src string) func(*testing.T) lineStats {
	return func(t *testing.T) lineStats {
		var s lineStats
		s.icHits, s.icMisses, s.inv, _ = icachePair(t, src, 0x1000, 10_000).ICacheStats()
		prog := isa.MustAssemble(src, 0x1000)
		ref, want := sbReference(t, prog, 10_000)
		m := sbModel(prog, DefaultSuperblockLen)
		got, _ := sbDrain(t, m, 10_000)
		sbCompare(t, "blocks", got, want, m, ref)
		s.sbHits, s.sbMisses, _, _ = m.SuperblockStats()
		s.blocks = true
		return s
	}
}

// linePeer runs a loop at 0x1000 on core 0 while core 1, over the same
// memory and decoded-code table, stores r6 to addr once per iteration, and
// returns core 0's predecode hits and misses and both cores' invalidations:
// the storing core counts them. Core 1's code sits in slots core 0's does
// not index.
func linePeer(addr isa.Word) func(*testing.T) lineStats {
	return func(t *testing.T) lineStats {
		shared := NewShared(Config{MemBytes: 1 << 20, ICacheEntries: 64})
		mk := func(id int, src string, base isa.Word) *Model {
			m := New(Config{Shared: shared, CoreID: id, DisableInterrupts: true})
			m.LoadProgram(isa.MustAssemble(src, base))
			return m
		}
		m0 := mk(0, fmt.Sprintf(`
			movi r6, 0
		loop:
			addi r6, 1
			cmpi r6, %d
			jl   loop
			halt
			.word 0
		`, lineIters), 0x1000)
		m1 := mk(1, fmt.Sprintf(`
			movi r6, 0
			movi r0, %#x
		loop:
			stw  r6, [r0]
			addi r6, 1
			cmpi r6, %d
			jl   loop
			halt
		`, addr, lineIters), 0x4020)
		for !m0.Halted() || !m1.Halted() {
			for _, m := range []*Model{m0, m1} {
				if _, ok := m.Step(); !ok && !m.Halted() {
					t.Fatalf("core %d: %v", m.cfg.CoreID, m.Fatal())
				}
			}
		}
		if m0.GPR[6] != lineIters {
			t.Fatalf("core 0 r6 = %d, want %d", m0.GPR[6], lineIters)
		}
		var s lineStats
		s.icHits, s.icMisses, s.inv, _ = m0.ICacheStats()
		_, _, inv1, _ := m1.ICacheStats()
		s.inv += inv1
		return s
	}
}

// lineUndo runs a page-crossing instruction, patches an immediate byte in
// its tail — a line that also holds the cached jmp after it — runs the
// patched form, then rolls back past the patch store and runs it again: the
// memory undo invalidates the tail page as the store did.
func lineUndo(t *testing.T) lineStats {
	prog := isa.MustAssemble(`
		movi r0, 0x2001
		movi r1, 0x22
		jmp  cross
	back:
		stb  r1, [r0]
		jmp  cross
		.org 0x1FFD
	cross:
		movi r7, 0x11111111 ; bytes 0x1FFD..0x2002, imm from 0x1FFF
		jmp  back
	`, 0x1000)
	m := New(Config{MemBytes: 1 << 20, DisableInterrupts: true, ICacheEntries: 64})
	m.LoadProgram(prog)
	var entries []trace.Entry
	for range 8 { // ... cross, jmp back, stb, jmp cross, cross (patched)
		e, ok := m.Step()
		if !ok {
			t.Fatalf("stopped at IN %d: %v", m.IN(), m.Fatal())
		}
		entries = append(entries, e)
	}
	if m.GPR[7] != 0x11221111 {
		t.Fatalf("patched r7 = %#x, want 0x11221111", m.GPR[7])
	}
	_, _, before, _ := m.ICacheStats()
	// Roll back to the stb (IN 5) and steer to the crossing instruction.
	if err := m.SetPC(5, entries[3].PC); err != nil {
		t.Fatal(err)
	}
	var s lineStats
	_, _, s.inv, _ = m.ICacheStats()
	if e, ok := m.Step(); !ok || m.GPR[7] != 0x11111111 {
		t.Fatalf("after rollback %+v ok=%v: r7 = %#x, want 0x11111111", e, ok, m.GPR[7])
	}
	s.inv -= before
	return s
}

// TestLineGranularInvalidation: the predecode cache tracks code per 64-byte
// line of a page. A store next to code — on a page holding cached code but
// in a line none of it occupies — invalidates nothing, so the loop's
// predecode and superblock hits keep rising and its misses stay cold ones.
// A store into a line that holds code, however it reaches memory, still
// invalidates the page once per store — unless the only code it hits is the
// tail of a page-spanning instruction, which is never cached. Every
// single-core row's trace is checked against an uncached model, per
// instruction and block-wise.
func TestLineGranularInvalidation(t *testing.T) {
	nop := isa.MustAssemble("nop", 0).Code
	if len(nop) != 1 {
		t.Fatalf("nop encodes in %d bytes", len(nop))
	}
	storeLoop := func(store string, data string) string {
		return fmt.Sprintf(`
			movi sp, 0x9000
			movi r6, 0
			movi r0, data
		loop:
			%s
			addi r6, 1
			cmpi r6, %d
			jl   loop
			halt
			%s
		data:
			.word 0
		`, store, lineIters, data)
	}
	// stosLoop fills 8 bytes from dst with nops every iteration, then calls
	// the nop sled at 0x1800.
	stosLoop := func(dst int) string {
		return fmt.Sprintf(`
			movi sp, 0x9000
			movi r6, 0
		loop:
			movi r1, %#x
			movi r2, 8
			movi r3, %d
			rep stos
			call sled
			addi r6, 1
			cmpi r6, %d
			jl   loop
			halt
			.org 0x1800
		sled:
			nop
			nop
			nop
			nop
			ret
		`, dst, nop[0], lineIters)
	}
	// Each row names the invalidations its stores must cause: none next to
	// code or into a spanning instruction's tail, at least one per store
	// into other code (the first stos runs before the sled is cached, and
	// the undo row counts the undo alone; its tail line also holds a cached
	// jmp).
	for _, tc := range []struct {
		name string
		inv  uint64
		run  func(*testing.T) lineStats
	}{
		{"next to code/word in another line", 0, lineSingle(storeLoop("stw r6, [r0]", ".org 0x1800"))},
		{"next to code/byte in the next line", 0, lineSingle(storeLoop("stb r6, [r0]", ".org 0x1040"))},
		{"next to code/rep stos in other lines", 0, lineSingle(stosLoop(0x1700))},
		{"next to code/other core", 0, linePeer(0x1800)},

		{"into code/store into an instruction's line", lineIters, lineSingle(storeLoop("stw r6, [r0]", ""))},
		{"into code/page-crossing tail line", 0, lineSingle(fmt.Sprintf(`
			movi r6, 0
			movi r0, 0x2030
		loop:
			jmp  cross
		back:
			stw  r6, [r0]
			addi r6, 1
			cmpi r6, %d
			jl   loop
			halt
			.org 0x1FFE
		cross:
			jmp  back ; bytes 0x1FFE..0x2000
		`, lineIters))},
		{"into code/rollback undo of a tail store", 1, lineUndo},
		{"into code/rep stos across a code line", lineIters - 1, lineSingle(stosLoop(0x17FC))},
		{"into code/other core", lineIters, linePeer(0x1000 + 24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.run(t)
			next := strings.HasPrefix(tc.name, "next to code/")
			switch {
			case s.inv < tc.inv || tc.inv == 0 && s.inv != 0:
				t.Errorf("%d invalidations, want %d", s.inv, tc.inv)
			case next && (s.icMisses >= lineIters || s.icHits < 2*lineIters):
				t.Errorf("store next to code: %d predecode misses, %d hits", s.icMisses, s.icHits)
			case next && s.blocks && (s.sbMisses >= lineIters/2 || s.sbHits <= lineIters/2):
				t.Errorf("store next to code: %d superblock misses, %d hits", s.sbMisses, s.sbHits)
			}
		})
	}
}
