package tm

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/microcode"
	"repro/internal/trace"
)

// The stall tests' programs, shared with TestTMAgreement.
const (
	structuralStallSrc = `
		movi r1, 0x2000
		ldw  r2, [r1]     ; cold miss: 34 cycles
		movi r3, 1
		movi r4, 1
	burn:
		addi r3, 1
		addi r4, 1
		addi r3, 2
		addi r4, 2
		addi r3, 3
		addi r4, 3
		cmpi r3, 400
		jl   burn
		halt
	`
	storeBurstSrc = `
		movi r1, 0x2000
		movi r0, 200
	loop:
		stw  r0, [r1]
		stw  r0, [r1+4]
		stw  r0, [r1+8]
		stw  r0, [r1+12]
		dec  r0
		jnz  loop
		halt
	`
	missyLoadsSrc = `
		movi r1, 0x2000
		movi r0, 300
	loop:
		ldw  r2, [r1]
		ldw  r3, [r1+4096]
		ldw  r4, [r1+8192]
		ldw  r5, [r1+12288]
		addi r1, 64
		dec  r0
		jnz  loop
		halt
	`
	branchySrc = `
		movi r0, 2000
		movi r5, 314159
	loop:
		movi r10, 1103515245
		mul  r5, r10
		addi r5, 12345
		mov  r6, r5
		shri r6, 16
		andi r6, 1
		cmpi r6, 0
		jz   skip
		addi r1, 1
	skip:	dec r0
		jnz  loop
		halt
	`
)

// TestROBFullStalls: a long-latency load followed by a stream of
// independent work must back up into ROB-full stalls once the window
// fills (blocking caches keep the load outstanding).
func TestStructuralStalls(t *testing.T) {
	entries := record(t, structuralStallSrc, 10000)
	cfg := DefaultConfig()
	cfg.Predictor = "perfect"
	cfg.ROBEntries = 8
	cfg.RSEntries = 4
	model := replay(t, entries, cfg)
	if model.Stats.ROBFullStalls == 0 && model.Stats.RSFullStalls == 0 {
		t.Errorf("no structural stalls with a tiny window: %+v", model.Stats)
	}
}

func TestLSQFullStalls(t *testing.T) {
	// A burst of independent stores exceeds a 2-entry LSQ behind the
	// single blocking LSU.
	entries := record(t, storeBurstSrc, 10000)
	cfg := DefaultConfig()
	cfg.Predictor = "perfect"
	cfg.LSQEntries = 2
	model := replay(t, entries, cfg)
	if model.Stats.LSQFullStalls == 0 {
		t.Errorf("no LSQ stalls with 2 entries: %+v", model.Stats)
	}
}

// TestTLBWriteMirrors: a software TLB fill carried in the trace must be
// inserted into the TM's TLB timing structures (§2's "data written to
// special registers, such as software-filled TLB entries").
func TestTLBWriteMirrors(t *testing.T) {
	tab := microcode.NewTable()
	crack := func(inst isa.Inst) []microcode.UOp { return tab.Crack(inst, 1).UOps }
	entries := []trace.Entry{
		{IN: 0, Op: isa.OpTlbWr, Size: 2, TLBWrite: true, TLBVPN: 0x42, Kernel: true,
			UOps: crack(isa.Inst{Op: isa.OpTlbWr, Rd: 1, Rs: 2})},
		{IN: 1, Op: isa.OpHalt, Size: 1, Kernel: true,
			UOps: crack(isa.Inst{Op: isa.OpHalt, Rd: isa.RegNone, Rs: isa.RegNone})},
	}
	model, err := New(DefaultConfig(), &SliceSource{Entries: entries}, nil)
	if err != nil {
		t.Fatal(err)
	}
	model.Run(1 << 16)
	// The mirrored VPN must now hit without a miss.
	if !model.DTLB.Access(0x42) {
		t.Error("mirrored TLB entry missing from dTLB timing structure")
	}
	if !model.ITLB.Access(0x42) {
		t.Error("mirrored TLB entry missing from iTLB timing structure")
	}
}

// TestDTLBMissPenalty: user-mode accesses to many distinct pages pay the
// dTLB miss penalty; the same footprint inside one page does not.
func TestDTLBMissPenalty(t *testing.T) {
	// Build synthetic user-mode traces directly (Kernel=false engages the
	// TM's TLB path).
	tab := microcode.NewTable()
	ldw := tab.Crack(isa.Inst{Op: isa.OpLdW, Rd: 1, Rs: 2}, 1).UOps
	mkTrace := func(stride uint32) []trace.Entry {
		var entries []trace.Entry
		pc := uint32(0x1000)
		for i := 0; i < 400; i++ {
			va := 0x100000 + uint32(i)*stride
			entries = append(entries, trace.Entry{
				IN: uint64(i), PC: pc, PPC: pc, Op: isa.OpLdW, Size: 4,
				MemVA: va, MemPA: va % (1 << 20), MemSize: 4,
				Kernel: false, UOps: ldw,
			})
			pc += 4
		}
		return entries
	}
	run := func(stride uint32) *TM {
		model, err := New(func() Config { c := DefaultConfig(); c.Predictor = "perfect"; return c }(),
			&SliceSource{Entries: mkTrace(stride)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		model.Run(1 << 20)
		return model
	}
	samePage := run(4)
	manyPages := run(4096)
	if hr := samePage.DTLB.Stats().HitRate(); hr < 0.99 {
		t.Errorf("same-page dTLB hit rate %.3f", hr)
	}
	if hr := manyPages.DTLB.Stats().HitRate(); hr > 0.2 {
		t.Errorf("page-per-access dTLB hit rate %.3f, want misses", hr)
	}
	if manyPages.Stats.Cycles <= samePage.Stats.Cycles {
		t.Errorf("dTLB misses cost nothing: %d vs %d cycles",
			manyPages.Stats.Cycles, samePage.Stats.Cycles)
	}
}

// TestFutureMicroarchFixes: the §4.1 limitation fixes must each improve
// performance on the workloads they target — non-blocking caches on a
// miss-heavy independent-load stream, fast recovery on mispredict-heavy
// code.
func TestFutureMicroarchFixes(t *testing.T) {
	// Independent strided loads: misses can overlap only with MSHRs.
	missy := record(t, missyLoadsSrc, 100000)
	base := DefaultConfig()
	base.Predictor = "perfect"
	blocking := replay(t, missy, base)
	nb := base
	nb.MSHRs = 8
	nonblocking := replay(t, missy, nb)
	if nonblocking.Stats.Cycles >= blocking.Stats.Cycles {
		t.Errorf("non-blocking caches did not help: %d vs %d cycles",
			nonblocking.Stats.Cycles, blocking.Stats.Cycles)
	}

	// Mispredict-heavy code: fast recovery shortens the drain.
	branchy := record(t, branchySrc, 100000)
	slow := replay(t, branchy, DefaultConfig())
	fastCfg := DefaultConfig()
	fastCfg.FastRecovery = true
	fast := replay(t, branchy, fastCfg)
	if fast.Stats.Cycles >= slow.Stats.Cycles {
		t.Errorf("fast recovery did not help: %d vs %d cycles",
			fast.Stats.Cycles, slow.Stats.Cycles)
	}
	if fast.Stats.DrainCycles >= slow.Stats.DrainCycles {
		t.Errorf("fast recovery did not cut drain cycles: %d vs %d",
			fast.Stats.DrainCycles, slow.Stats.DrainCycles)
	}
	// Architectural results unchanged by either fix.
	if fast.Stats.Instructions != slow.Stats.Instructions ||
		nonblocking.Stats.Instructions != blocking.Stats.Instructions {
		t.Error("microarchitecture options changed committed instruction counts")
	}

	// Combined config helper.
	both := DefaultConfig().WithFutureMicroarch()
	if both.MSHRs == 0 || !both.FastRecovery {
		t.Error("WithFutureMicroarch incomplete")
	}
}
