package tm

import (
	"testing"

	"repro/internal/fm"
	"repro/internal/fpga"
	"repro/internal/isa"
	"repro/internal/trace"
)

// record runs src on the functional model and returns its trace.
func record(t *testing.T, src string, max int) []trace.Entry {
	t.Helper()
	m := fm.New(fm.Config{MemBytes: 1 << 20, DisableInterrupts: true})
	m.LoadProgram(isa.MustAssemble(src, 0x1000))
	var out []trace.Entry
	for i := 0; i < max; i++ {
		e, ok := m.Step()
		if !ok {
			if m.Fatal() != nil {
				t.Fatalf("functional model fatal: %v", m.Fatal())
			}
			break
		}
		out = append(out, e)
	}
	return out
}

// replay runs a recorded trace through a TM with the given config.
func replay(t *testing.T, entries []trace.Entry, cfg Config) *TM {
	t.Helper()
	model, err := New(cfg, &SliceSource{Entries: entries}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if model.Run(10_000_000) >= 10_000_000 {
		t.Fatalf("timing model did not drain: %s", model.Describe())
	}
	return model
}

const loopSrc = `
	movi r0, 200
	movi r1, 0
loop:	add r1, r0
	dec r0
	jnz loop
	halt
`

func TestReplayCommitsEverything(t *testing.T) {
	entries := record(t, loopSrc, 10000)
	cfg := DefaultConfig()
	cfg.Predictor = "perfect"
	model := replay(t, entries, cfg)
	if got := model.Stats.Instructions; got != uint64(len(entries)) {
		t.Errorf("committed %d instructions, want %d", got, len(entries))
	}
	if model.Stats.UOps < model.Stats.Instructions {
		t.Error("fewer µops than instructions")
	}
	if ipc := model.Stats.IPC(); ipc <= 0 || ipc > float64(cfg.IssueWidth) {
		t.Errorf("IPC %v outside (0,%d]", ipc, cfg.IssueWidth)
	}
}

func TestPerfectVsGshareOrdering(t *testing.T) {
	// The loop branch is highly biased; gshare warms up quickly but still
	// mispredicts at least the exit; perfect never does. Perfect must be
	// at least as fast, and must have zero drain cycles.
	entries := record(t, loopSrc, 10000)
	perfect := replay(t, entries, func() Config { c := DefaultConfig(); c.Predictor = "perfect"; return c }())
	gshare := replay(t, entries, DefaultConfig())
	if perfect.Stats.Cycles > gshare.Stats.Cycles {
		t.Errorf("perfect BP slower (%d) than gshare (%d)", perfect.Stats.Cycles, gshare.Stats.Cycles)
	}
	if perfect.Stats.Mispredicts != 0 || perfect.Stats.DrainCycles != 0 {
		t.Errorf("perfect BP mispredicted: %+v", perfect.Stats)
	}
	if gshare.Stats.Mispredicts == 0 {
		t.Error("gshare never mispredicted (loop exit must miss)")
	}
	if gshare.Stats.DrainCycles == 0 {
		t.Error("no drain cycles recorded for gshare mispredicts")
	}
	if acc := gshare.BPStats.Accuracy(); acc < 0.9 {
		t.Errorf("gshare accuracy %.3f on a biased loop, want > 0.9", acc)
	}
}

func TestDependentChainSlowerThanIndependent(t *testing.T) {
	dep := record(t, `
		movi r0, 1
		add r0, r0
		add r0, r0
		add r0, r0
		add r0, r0
		add r0, r0
		add r0, r0
		add r0, r0
		add r0, r0
		halt
	`, 100)
	indep := record(t, `
		movi r0, 1
		movi r1, 1
		movi r2, 1
		movi r3, 1
		movi r4, 1
		movi r5, 1
		movi r6, 1
		movi r7, 1
		movi r8, 1
		halt
	`, 100)
	cfg := DefaultConfig()
	cfg.Predictor = "perfect"
	depTM := replay(t, dep, cfg)
	indepTM := replay(t, indep, cfg)
	if depTM.Stats.Cycles <= indepTM.Stats.Cycles {
		t.Errorf("dependent chain (%d cycles) not slower than independent (%d)",
			depTM.Stats.Cycles, indepTM.Stats.Cycles)
	}
}

func TestCacheMissesSlowExecution(t *testing.T) {
	// Strided loads covering > L1 capacity must miss and take longer than
	// repeatedly hitting one line.
	hot := record(t, `
		movi r0, 100
		movi r1, 0x2000
	loop:	ldw r2, [r1]
		dec r0
		jnz loop
		halt
	`, 10000)
	cold := record(t, `
		movi r0, 100
		movi r1, 0x2000
	loop:	ldw r2, [r1]
		addi r1, 4096
		dec r0
		jnz loop
		halt
	`, 10000)
	cfg := DefaultConfig()
	cfg.Predictor = "perfect"
	hotTM := replay(t, hot, cfg)
	coldTM := replay(t, cold, cfg)
	if hotTM.DL1.Stats().HitRate() < 0.95 {
		t.Errorf("hot loop dL1 hit rate %.3f", hotTM.DL1.Stats().HitRate())
	}
	if coldTM.DL1.Stats().HitRate() > 0.2 {
		t.Errorf("strided loop dL1 hit rate %.3f, want misses", coldTM.DL1.Stats().HitRate())
	}
	// cold has one extra addi per iteration; cycles must still be
	// dominated by miss latency.
	if coldTM.Stats.Cycles < hotTM.Stats.Cycles+uint64(90*cfg.MemLatency/2) {
		t.Errorf("misses too cheap: cold %d vs hot %d cycles",
			coldTM.Stats.Cycles, hotTM.Stats.Cycles)
	}
}

func TestIssueWidthSpeedsUp(t *testing.T) {
	entries := record(t, `
		movi r0, 50
	loop:
		movi r1, 1
		movi r2, 2
		movi r3, 3
		movi r4, 4
		add  r1, r2
		add  r3, r4
		dec  r0
		jnz  loop
		halt
	`, 10000)
	mk := func(w int) Config {
		c := DefaultConfig().WithIssueWidth(w)
		c.Predictor = "perfect"
		return c
	}
	w1 := replay(t, entries, mk(1))
	w4 := replay(t, entries, mk(4))
	if w4.Stats.Cycles >= w1.Stats.Cycles {
		t.Errorf("4-issue (%d cycles) not faster than 1-issue (%d)",
			w4.Stats.Cycles, w1.Stats.Cycles)
	}
	if ipc := w4.Stats.IPC(); ipc <= 1.0 {
		t.Errorf("4-issue IPC %.3f on parallel code, want > 1", ipc)
	}
}

func TestRepMovsOccupiesLSU(t *testing.T) {
	entries := record(t, `
		movi r0, 0x2000
		movi r1, 0x3000
		movi r2, 64
		rep movs
		halt
	`, 1000)
	cfg := DefaultConfig()
	cfg.Predictor = "perfect"
	model := replay(t, entries, cfg)
	// 64 iterations × (4 body + 2 overhead) µops plus setup.
	if model.Stats.UOps < 64*6 {
		t.Errorf("rep movs committed %d µops, want ≥ %d", model.Stats.UOps, 64*6)
	}
	if model.Stats.Instructions != uint64(len(entries)) {
		t.Errorf("instructions %d != %d", model.Stats.Instructions, len(entries))
	}
}

func TestExceptionSerializes(t *testing.T) {
	// Recorded at base 0 so the program can lay out its own IVT.
	m := fm.New(fm.Config{MemBytes: 1 << 20, DisableInterrupts: true})
	m.LoadProgram(isa.MustAssemble(`
		.org 0
		.space 256
		.org 0x400
	handler:
		movi r1, 2
		iret
		.org 0x1000
	entry:
		movi r8, handler
		movi r9, 8
		stw  r8, [r9]
		movi r0, 8
		movi r1, 0
		div  r0, r1
		halt
	.entry entry
	`, 0))
	var entries []trace.Entry
	for {
		e, ok := m.Step()
		if !ok {
			break
		}
		entries = append(entries, e)
	}
	model := replay(t, entries, DefaultConfig())
	if model.Stats.Exceptions == 0 {
		t.Error("no exception observed by the TM")
	}
	if model.Stats.Serializes == 0 {
		t.Error("exception did not serialize the front end")
	}
	if model.Stats.Instructions != uint64(len(entries)) {
		t.Errorf("instructions %d != %d", model.Stats.Instructions, len(entries))
	}
}

func TestNestedBranchLimit(t *testing.T) {
	// A dense run of branches cannot have more than MaxNestedBranches
	// unresolved; with the limit at 1 the run must take longer than with 4.
	src := `
		movi r0, 100
	loop:	cmpi r0, 0
		jz   done
		cmpi r0, 50
		jz   skip1
	skip1:	cmpi r0, 51
		jz   skip2
	skip2:	dec r0
		jmp  loop
	done:	halt
	`
	entries := record(t, src, 100000)
	mk := func(nested int) Config {
		c := DefaultConfig()
		c.Predictor = "perfect"
		c.MaxNestedBranches = nested
		return c
	}
	one := replay(t, entries, mk(1))
	four := replay(t, entries, mk(4))
	if one.Stats.Cycles <= four.Stats.Cycles {
		t.Errorf("nested=1 (%d cycles) not slower than nested=4 (%d)",
			one.Stats.Cycles, four.Stats.Cycles)
	}
}

func TestHostCycleAccounting(t *testing.T) {
	entries := record(t, loopSrc, 10000)
	model := replay(t, entries, DefaultConfig())
	per := model.PerTargetCycle()
	if per < 15 || per > 80 {
		t.Errorf("host cycles per target cycle %.1f outside the plausible "+
			"prototype range [15,80] (§4.5: ~20 is 'reasonable', the "+
			"prototype used more)", per)
	}
	w1, _ := New(DefaultConfig().WithIssueWidth(1), &SliceSource{Entries: entries}, nil)
	w1.Run(10_000_000)
	w8, _ := New(DefaultConfig().WithIssueWidth(8), &SliceSource{Entries: entries}, nil)
	w8.Run(10_000_000)
	if w8.PerTargetCycle() <= w1.PerTargetCycle() {
		t.Errorf("8-issue host cost (%.1f) not above 1-issue (%.1f): "+
			"multi-host-cycle folding missing", w8.PerTargetCycle(), w1.PerTargetCycle())
	}
}

func TestTable2AreaFlatAcrossIssueWidths(t *testing.T) {
	dev := fpga.Virtex4LX200
	var logic [4]float64
	widths := []int{1, 2, 4, 8}
	for i, w := range widths {
		a := DefaultConfig().WithIssueWidth(w).Area()
		logic[i] = dev.LogicFraction(a)
		if !dev.Fits(a) {
			t.Errorf("width %d does not fit the LX200: %v", w, a)
		}
		if bf := dev.BRAMFraction(a); bf < 0.48 || bf > 0.54 {
			t.Errorf("width %d BRAM fraction %.3f outside Table 2's ~0.50-0.512", w, bf)
		}
		if logic[i] < 0.30 || logic[i] > 0.36 {
			t.Errorf("width %d logic fraction %.3f outside Table 2's ~0.328", w, logic[i])
		}
	}
	if spread := logic[3] - logic[0]; spread > 0.01 {
		t.Errorf("logic fraction spread %.4f across widths; Table 2 is flat", spread)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.ROBEntries = 0 },
		func(c *Config) { c.RSEntries = 0 },
		func(c *Config) { c.ALUs = 0 },
		func(c *Config) { c.MaxNestedBranches = 0 },
		func(c *Config) { c.FrontEndDepth = 0 },
		func(c *Config) { c.FPUs = 0 },        // an FPU µop would never issue
		func(c *Config) { c.ITLBEntries = 0 }, // NewTLBTiming(0) cannot fill
		func(c *Config) { c.DTLBEntries = 0 },
		func(c *Config) { c.ALULatency = -1 }, // uint64 wrap: never completes
		func(c *Config) { c.BranchLatency = -1 },
		func(c *Config) { c.FPULatency = -1 },
		func(c *Config) { c.StoreLatency = -1 },
		func(c *Config) { c.TLBMissPenalty = -1 },
		func(c *Config) { c.MemLatency = -1 },
		func(c *Config) { c.MSHRs = -1 },
	}
	for i, f := range bad {
		c := DefaultConfig()
		f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{}, &SliceSource{}, nil); err == nil {
		t.Error("New accepted zero config")
	}
	c := DefaultConfig()
	c.Predictor = "bogus"
	if _, err := New(c, &SliceSource{}, nil); err == nil {
		t.Error("New accepted unknown predictor")
	}
}

func TestDescribeAndConfigDescribe(t *testing.T) {
	entries := record(t, loopSrc, 10000)
	model := replay(t, entries, DefaultConfig())
	if model.Describe() == "" {
		t.Error("empty Describe")
	}
	if DefaultConfig().Describe() == "" {
		t.Error("empty config description")
	}
}

func TestConnectorSemantics(t *testing.T) {
	c := NewConnector[int]("t", ConnectorConfig{
		InputThroughput: 2, OutputThroughput: 1, MinLatency: 2, MaxTransactions: 3,
	})
	if !c.Put(0, 1) || !c.Put(0, 2) {
		t.Fatal("puts within throughput failed")
	}
	if c.Put(0, 3) {
		t.Error("third put same cycle exceeded input throughput")
	}
	if !c.Put(1, 3) {
		t.Error("put next cycle failed")
	}
	if c.Put(1, 4) {
		t.Error("put into full connector succeeded")
	}
	if _, ok := c.Get(1); ok {
		t.Error("get before MinLatency succeeded")
	}
	v, ok := c.Get(2)
	if !ok || v != 1 {
		t.Errorf("get = %d, %v", v, ok)
	}
	if _, ok := c.Get(2); ok {
		t.Error("second get same cycle exceeded output throughput")
	}
	if v, ok := c.Get(3); !ok || v != 2 {
		t.Errorf("FIFO order violated: %d, %v", v, ok)
	}
	st := c.Stats()
	if st.Puts != 3 || st.Gets != 2 || st.PutStalls != 2 || st.GetStalls != 2 {
		t.Errorf("stats = %+v", st)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Error("flush left items")
	}
}

func TestConnectorPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad connector config did not panic")
		}
	}()
	NewConnector[int]("bad", ConnectorConfig{})
}

// TestDeterminism: replaying the same trace through two fresh timing models
// yields identical statistics — the simulator is reproducible by
// construction ("The timing model generates interrupts for
// reproducibility", §3.4; no wall-clock or randomness anywhere).
func TestDeterminism(t *testing.T) {
	entries := record(t, loopSrc, 10000)
	a := replay(t, entries, DefaultConfig())
	b := replay(t, entries, DefaultConfig())
	if a.Stats != b.Stats {
		t.Errorf("stats differ across identical replays:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.BPStats != b.BPStats {
		t.Error("predictor stats differ across identical replays")
	}
	if a.HostCycles() != b.HostCycles() {
		t.Error("host-cycle accounting differs across identical replays")
	}
}

// TestSnapshotInvariants: the transparency view must be consistent — ROB
// instruction numbers nondecreasing (in-order allocation), queue contents
// within the produced window, counts bounded by capacities.
func TestSnapshotInvariants(t *testing.T) {
	entries := record(t, loopSrc, 10000)
	model, err := New(DefaultConfig(), &SliceSource{Entries: entries}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for !model.Done() {
		model.Step()
		s := model.Snapshot()
		if len(s.ROB) > model.Config().ROBEntries {
			t.Fatalf("cycle %d: ROB snapshot %d > capacity", s.Cycle, len(s.ROB))
		}
		for i := 1; i < len(s.ROB); i++ {
			if s.ROB[i].IN < s.ROB[i-1].IN {
				t.Fatalf("cycle %d: ROB INs out of order: %v", s.Cycle, s.ROB)
			}
		}
		for _, in := range s.FetchQ {
			if in >= s.FetchIN {
				t.Fatalf("cycle %d: fetchQ holds unfetched IN %d", s.Cycle, in)
			}
		}
		if s.String() == "" {
			t.Fatal("empty snapshot render")
		}
	}
}
