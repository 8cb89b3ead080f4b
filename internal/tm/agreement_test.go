package tm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/microcode"
	"repro/internal/trace"
)

// ctlLog records the TM→FM command stream, so the two models must also
// agree on what they tell the functional model and when.
type ctlLog struct{ calls []ctlCall }

type ctlCall struct {
	kind string
	in   uint64
	pc   isa.Word
}

func (c *ctlLog) Commit(in uint64) { c.calls = append(c.calls, ctlCall{"commit", in, 0}) }
func (c *ctlLog) Mispredict(in uint64, pc isa.Word) {
	c.calls = append(c.calls, ctlCall{"mispredict", in, pc})
}
func (c *ctlLog) Resolve(in uint64, pc isa.Word) {
	c.calls = append(c.calls, ctlCall{"resolve", in, pc})
}

// sameSnapshot compares two pipeline views field by field (everything
// Snapshot.String renders, plus DecodeBuf, without the formatting).
func sameSnapshot(a, b Snapshot) bool {
	return a.Cycle == b.Cycle && a.FetchIN == b.FetchIN && a.DecodeBuf == b.DecodeBuf &&
		a.Recovering == b.Recovering && a.DrainFor == b.DrainFor &&
		slices.Equal(a.FetchQ, b.FetchQ) && slices.Equal(a.RenameQ, b.RenameQ) && slices.Equal(a.ROB, b.ROB)
}

// agree steps the ring model and the pointer-based oracle over one trace
// and requires every observable to match after every cycle.
func agree(t testing.TB, entries []trace.Entry, cfg Config) {
	t.Helper()
	var gotCtl, wantCtl ctlLog
	got, err := New(cfg, &SliceSource{Entries: entries}, &gotCtl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRefTM(cfg, &SliceSource{Entries: entries}, &wantCtl)
	if err != nil {
		t.Fatal(err)
	}
	differs := func(what string, g, w any) {
		t.Helper()
		t.Fatalf("cycle %d: %s differs\n got: %v\nwant: %v", want.Cycle()-1, what, g, w)
	}
	var gotSnap, wantSnap Snapshot // refilled every cycle
	for !want.Done() {
		if want.Cycle() > 2_000_000 {
			t.Fatalf("oracle did not drain in %d cycles", want.Cycle())
		}
		got.Step()
		want.Step()
		checkStations(t, got)
		if got.Stats != want.Stats {
			differs("Stats", got.Stats, want.Stats)
		}
		if got.BPStats != want.BPStats {
			differs("BPStats", got.BPStats, want.BPStats)
		}
		if got.HostCycles() != want.HostCycles() {
			differs("HostCycles", got.HostCycles(), want.HostCycles())
		}
		got.snapshotInto(&gotSnap)
		want.snapshotInto(&wantSnap)
		if g, w := gotSnap, wantSnap; !sameSnapshot(g, w) {
			differs("Snapshot", fmt.Sprint(g.DecodeBuf, " ", g), fmt.Sprint(w.DecodeBuf, " ", w))
		}
		// ConnectorReport renders exactly these (compared once, below).
		if got.fetchQ.Stats() != want.fetchQ.Stats() || got.uopQ.Stats() != want.uopQ.Stats() {
			differs("connector stats", got.ConnectorReport(), want.ConnectorReport())
		}
		if got.Done() != want.Done() || got.Drained() != want.Drained() || got.NextFetchIN() != want.NextFetchIN() {
			differs("Done/Drained/NextFetchIN", fmt.Sprint(got.Done(), got.Drained(), got.NextFetchIN()),
				fmt.Sprint(want.Done(), want.Drained(), want.NextFetchIN()))
		}
		if !slices.Equal(gotCtl.calls, wantCtl.calls) {
			differs("control calls", gotCtl.calls, wantCtl.calls)
		}
		gotCtl.calls, wantCtl.calls = gotCtl.calls[:0], wantCtl.calls[:0]
	}
	if g, w := got.ConnectorReport(), want.ConnectorReport(); g != w {
		differs("ConnectorReport", g, w)
	}
}

// checkStations holds the wakeup bookkeeping to its definition, read off
// the µop ring: rs is exactly the dispatched, unissued non-memory µops with
// no producer left to wait for, oldest first, and blocked counts the other
// dispatched non-memory ones; every live µop's waits is its number of live
// unissued producers, and its at is no earlier than any live issued
// producer's doneCycle. It runs every cycle, so it skips t.Helper, whose
// runtime.Callers was a tenth of a fuzz run's CPU.
func checkStations(t testing.TB, m *TM) {
	var ready []uint64
	blocked := 0
	for s := m.robHead; s < m.nextUop; s++ {
		u := m.uop(s)
		waits := 0
		for _, d := range u.deps {
			if d <= m.robHead {
				continue
			}
			switch p := m.uop(d - 1); {
			case !p.issued:
				waits++
			case u.at < p.doneCycle:
				t.Fatalf("cycle %d: µop %d ready at %d, before producer %d completes at %d",
					m.cycle, s, u.at, d-1, p.doneCycle)
			}
		}
		if int(u.waits) != waits {
			t.Fatalf("cycle %d: µop %d waits for %d producers, has %d unissued", m.cycle, s, u.waits, waits)
		}
		if s >= m.robTail || u.isMem || u.issued {
			continue
		}
		if waits == 0 {
			ready = append(ready, s)
		} else {
			blocked++
		}
	}
	if !slices.Equal(m.rs, ready) {
		t.Fatalf("cycle %d: rs = %v, want %v", m.cycle, m.rs, ready)
	}
	if m.blocked != blocked {
		t.Fatalf("cycle %d: blocked = %d, want %d", m.cycle, m.blocked, blocked)
	}
	// The instruction ring's bound (New): the live instructions run from the
	// owner of the oldest live µop, or else the decode cursor's, or else the
	// fetch queue's head, to nextInstr.
	oldest := m.nextInstr
	switch {
	case m.robHead < m.nextUop:
		oldest = m.uop(m.robHead).ins
	case m.decLeft > 0:
		oldest = m.decIns
	case m.fetchQ.Len() > 0:
		oldest = m.fetchQ.at(0).v
	}
	if bound := 2*m.fetchQ.cfg.MaxTransactions + 1 + m.cfg.ROBEntries; m.nextInstr-oldest > uint64(bound) {
		t.Fatalf("cycle %d: %d instructions live, bound %d", m.cycle, m.nextInstr-oldest, bound)
	}
}

// Drained mirrors TM.Drained for the oracle.
func (t *refTM) Drained() bool {
	return len(t.rob) == 0 && t.fetchQ.Len() == 0 && t.uopQ.Len() == 0 && len(t.decodeBuf) == 0 &&
		len(t.pendingBranches) == 0 && len(t.pendingMisses) == 0 && !t.recovering
}

// repStoreTrace is a `rep stos` retired with the given dynamic iteration
// count between two ALU instructions, cracked as the FM would.
func repStoreTrace(iters uint32) []trace.Entry {
	tab := microcode.NewTable()
	movi := tab.Crack(isa.Inst{Op: isa.OpMovRI, Rd: 1, Rs: isa.RegNone}, 1)
	rep := tab.Crack(isa.Inst{Op: isa.OpStos, Rep: true, Rd: isa.RegNone, Rs: isa.RegNone}, int(iters))
	return []trace.Entry{
		{IN: 0, PC: 0x1000, PPC: 0x1000, Op: isa.OpMovRI, Size: 6, Kernel: true, UOps: movi.UOps},
		{IN: 1, PC: 0x1006, PPC: 0x1006, Op: isa.OpStos, Size: 2, Kernel: true,
			MemVA: 0x3000, MemPA: 0x3000, MemSize: 4, IsStore: true, RepIterations: iters,
			UOps: rep.UOps},
		{IN: 2, PC: 0x1008, PPC: 0x1008, Op: isa.OpMovRI, Size: 6, Kernel: true, UOps: movi.UOps},
	}
}

// fanOutSrc is a load whose address comes from a cold-miss load, so it
// issues late, and whose result 40 consumers read — more than any
// configuration row has stations, so the stations fill with µops blocked on
// one producer — followed by a chain hanging off them. The consumers
// alternate between copies of the load, which its issue wakes all at once,
// youngest first on its list (insertion in age order), and adds that also
// wait for the previous add into the same register, which at zero latency
// wake a station the same scan then issues.
func fanOutSrc() string {
	var b strings.Builder
	b.WriteString("movi r1, 0x9000\nldw r5, [r1+64]\nldw r0, [r5+0x3100]\n")
	for i := range 40 {
		if i%2 == 0 {
			fmt.Fprintf(&b, "mov r%d, r0\n", 6+i/2%2)
		} else {
			fmt.Fprintf(&b, "add r%d, r0\n", 2+i/2%2)
		}
	}
	for i := range 8 {
		fmt.Fprintf(&b, "add r%d, r%d\n", 2+i%2, 3-i%2)
	}
	b.WriteString("stw r2, [r1+4]\nldw r4, [r1+4]\nadd r4, r3\nhalt\n")
	return b.String()
}

// TestTMAgreement is the oracle check of the data-oriented TM (ROADMAP
// 1(d)): the ring model and refTM, stepped side by side over the package's
// recorded programs, agree on every counter, the pipeline view and the
// command stream after every cycle.
func TestTMAgreement(t *testing.T) {
	traces := map[string][]trace.Entry{
		"loop":              record(t, loopSrc, 10000),
		"structural-stalls": record(t, structuralStallSrc, 10000),
		"store-burst":       record(t, storeBurstSrc, 10000),
		"missy-loads":       record(t, missyLoadsSrc, 100000),
		"branchy":           record(t, branchySrc, 100000),
		"rep-movs": record(t, `
			movi r0, 0x2000
			movi r1, 0x3000
			movi r2, 64
			rep movs
			halt
		`, 1000),
		// A loop-carried chain of FPU µops feeding a store: it fills the
		// stations until only an FPU µop can wake issue, and the memory head
		// waits on an FPU result. (FP arithmetic is NOP-replaced microcode,
		// §4.3; fmov and i2f are the FPU-class µops.)
		"fpu": record(t, `
			movi r1, 0x2000
			movi r0, 150
			i2f  f1, r0
		loop:
			fmov f2, f1
			fmov f1, f2
			fmov f2, f1
			fmov f1, f2
			fst  f1, [r1+8]
			dec  r0
			jnz  loop
			halt
		`, 10000),
		"fan-out":       record(t, fanOutSrc(), 1000),
		"rep-stos-0":    repStoreTrace(0),
		"rep-stos-1":    repStoreTrace(1),
		"rep-stos-4096": repStoreTrace(4096),
		// The FM's fetch-fault placeholder: an entry with no µops, which
		// must crack to one nop that reads and renames r0 — here between a
		// cold-miss load of r0 and a reader of r0, so the nop's place in the
		// dependence chain shows in the timing.
		"fetch-fault": {
			{IN: 0, PC: 0x1000, PPC: 0x1000, Op: isa.OpLdW, Size: 4, Kernel: true,
				MemVA: 0x8000, MemPA: 0x8000, MemSize: 4,
				UOps: microcode.NewTable().Crack(isa.Inst{Op: isa.OpLdW, Rd: 0, Rs: 2}, 1).UOps},
			{IN: 1, PC: 0x1004, PPC: 0x1004, Kernel: true},
			{IN: 2, PC: 0x1008, PPC: 0x1008, Op: isa.OpAddRR, Size: 2, Kernel: true,
				UOps: microcode.NewTable().Crack(isa.Inst{Op: isa.OpAddRR, Rd: 1, Rs: 0}, 1).UOps},
			{IN: 3, PC: 0x100a, PPC: 0x100a, Kernel: true,
				Exception: true, ExcVector: 14},
			{IN: 4, PC: 0x400, PPC: 0x400, Op: isa.OpAddRR, Size: 2, Kernel: true,
				UOps: microcode.NewTable().Crack(isa.Inst{Op: isa.OpAddRR, Rd: 1, Rs: 0}, 1).UOps},
		},
	}
	configs := agreementConfigs()
	for tn, entries := range traces {
		for cn, cfg := range configs {
			t.Run(tn+"/"+cn, func(t *testing.T) { agree(t, entries, cfg) })
		}
	}
}

// agreementConfigs are the target configurations TestTMAgreement runs every
// trace under.
func agreementConfigs() map[string]Config {
	small := DefaultConfig()
	small.ROBEntries, small.RSEntries, small.LSQEntries = 8, 4, 2
	perfect := DefaultConfig()
	perfect.Predictor = "perfect"
	// One row per source of issue's wake cycle: a single busy MSHR, a
	// second blocking LSU, producers that complete in their issue cycle
	// (which pins the non-memory-then-memory scan order) and a long FPU.
	mshr1, lsu2, zeroLat, slowFPU := DefaultConfig(), DefaultConfig(), DefaultConfig(), DefaultConfig()
	mshr1.MSHRs = 1
	lsu2.LoadStoreUnits = 2
	zeroLat.ALULatency, zeroLat.BranchLatency = 0, 0
	slowFPU.FPULatency = 20
	return map[string]Config{
		"default":      DefaultConfig(),
		"perfect":      perfect,
		"future":       DefaultConfig().WithFutureMicroarch(),
		"small":        small,
		"width1":       DefaultConfig().WithIssueWidth(1),
		"width4":       DefaultConfig().WithIssueWidth(4),
		"mshr1":        mshr1,
		"lsu2":         lsu2,
		"zero-latency": zeroLat,
		"slow-fpu":     slowFPU,
	}
}

// fuzzOps are the static instructions FuzzTMAgreement draws from: every
// functional-unit class (fmov for the FPU: FP arithmetic is NOP-replaced
// microcode, §4.3), every branch flavour the front end treats
// differently, string instructions with and without REP, and the
// µop-less fetch-fault placeholder (the zero Inst).
var fuzzOps = []isa.Inst{
	{Op: isa.OpMovRI}, {Op: isa.OpAddRR}, {Op: isa.OpMulRR}, {Op: isa.OpDivRR}, {Op: isa.OpCmpRR},
	{Op: isa.OpLdW}, {Op: isa.OpStW}, {Op: isa.OpPush}, {Op: isa.OpPop}, {Op: isa.OpFMov}, {Op: isa.OpFLd},
	{Op: isa.OpJz}, {Op: isa.OpJnz}, {Op: isa.OpJmp}, {Op: isa.OpJmpR}, {Op: isa.OpCall}, {Op: isa.OpRet}, {Op: isa.OpLoop},
	{Op: isa.OpMovs}, {Op: isa.OpMovs, Rep: true}, {Op: isa.OpStos, Rep: true}, {Op: isa.OpCmps, Rep: true},
	{Op: isa.OpTlbWr}, {Op: isa.OpOut}, {Op: isa.OpSyscall}, {},
}

// fuzzCase turns fuzz bytes into a target configuration (first byte) and a
// trace (four bytes per entry: instruction and registers, outcome flags,
// memory address, branch target / rep count). Every REP runs repBase more
// iterations than its byte picks.
func fuzzCase(data []byte, repBase uint32) ([]trace.Entry, Config) {
	if len(data) == 0 {
		data = []byte{0}
	}
	sel := data[0]
	cfg := DefaultConfig().WithIssueWidth([]int{2, 1, 4}[sel%3])
	if sel&4 != 0 {
		cfg = cfg.WithFutureMicroarch()
	}
	if sel&8 != 0 {
		cfg.ROBEntries, cfg.RSEntries, cfg.LSQEntries = 8, 4, 2
	}
	cfg.Predictor = []string{"gshare", "perfect", "2bit", "95%"}[sel>>4&3]
	// Bits 6–7 pick TestTMAgreement's wake-source rows: mshr1, lsu2, or
	// zero-latency and slow-fpu together.
	switch sel >> 6 {
	case 1:
		cfg.MSHRs = 1
	case 2:
		cfg.LoadStoreUnits, cfg.MSHRs = 2, 0
	case 3:
		cfg.ALULatency, cfg.BranchLatency, cfg.FPULatency = 0, 0, 20
	}

	tab := microcode.NewTable()
	var entries []trace.Entry
	pc := isa.Word(0x1000)
	for data = data[1:]; len(data) >= 4 && len(entries) < 400; data = data[4:] {
		op, flags, addr, arg := data[0], data[1], data[2], data[3]
		inst := fuzzOps[int(op)%len(fuzzOps)]
		inst.Rd, inst.Rs = isa.Reg(flags&3), isa.Reg(flags>>2&3)
		e := trace.Entry{
			IN: uint64(len(entries)), PC: pc, PPC: pc & 0xFFFFF, Op: inst.Op, Size: 4,
			Kernel: flags&0x10 != 0, ReadsCC: flags&0x20 != 0,
			Exception: flags >= 0xF8, Interrupt: flags >= 0xF0 && flags < 0xF8,
			NextPC: pc + 4,
		}
		if inst.Op != 0 {
			info := isa.Lookup(inst.Op)
			if inst.Rep {
				e.RepIterations = repBase + []uint32{0, 1, 2, 5, 33, 300}[arg%6]
			}
			e.UOps = tab.Crack(inst, int(e.RepIterations)).UOps
			e.Branch = info.Class == isa.ClassBranch
			e.Cond = inst.Op == isa.OpJz || inst.Op == isa.OpJnz || inst.Op == isa.OpLoop
			if e.Taken = e.Branch && (!e.Cond || flags&0x40 != 0); e.Taken {
				e.NextPC = 0x1000 + isa.Word(arg&7)*0x124
			}
			if info.Class == isa.ClassLoad || info.Class == isa.ClassStore || info.Class == isa.ClassString || inst.Op == isa.OpFLd {
				e.MemVA = 0x100000 + isa.Word(addr)*isa.Word(1+arg>>4)*64
				e.MemPA, e.MemSize, e.IsStore = e.MemVA&0xFFFFF, 4, info.Class == isa.ClassStore
			}
			e.TLBWrite, e.TLBVPN = inst.Op == isa.OpTlbWr, isa.Word(addr)
		}
		entries = append(entries, e)
		pc = e.NextPC
	}
	return entries, cfg
}

// FuzzTMAgreement holds the ring model to the oracle over arbitrary traces:
// op mix, branch outcomes, memory addresses, rep counts, exceptions and the
// target configuration all come from the fuzz input.
func FuzzTMAgreement(f *testing.F) {
	addFuzzSeeds(f)
	// Issue width 4 and an 8-µop ROB (configuration byte 8): four dependent
	// cold loads hold the ROB's head while independent movs fill the ROB,
	// the rename queue, the decode cursor and the fetch queue — 41 live
	// instructions, exactly the instruction ring's bound.
	full := []byte{8}
	for i := range 4 {
		full = append(full, 5, 0x15, byte(0x40+i*3), byte(i*16))
	}
	for i := range 80 {
		full = append(full, 0, 0x10|byte(2+i%2), 0, 0)
	}
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, cfg := fuzzCase(data, 0)
		agree(t, entries, cfg)
	})
}

// addFuzzSeeds seeds a fuzz target over fuzzCase with pseudo-random traces
// under a spread of configuration bytes.
func addFuzzSeeds(f *testing.F) {
	seed := make([]byte, 1+4*300)
	for sel := 0; sel < 64; sel += 7 {
		x := uint32(sel + 1)
		for i := range seed {
			x = x*1664525 + 1013904223
			seed[i] = byte(x >> 24)
		}
		seed[0] = byte(sel)
		f.Add(append([]byte(nil), seed...))
	}
}
