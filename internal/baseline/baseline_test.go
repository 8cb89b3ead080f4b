package baseline

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/fm"
	"repro/internal/hostlink"
	"repro/internal/isa"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/workload"
)

const prog = `
	movi sp, 0x9000
	movi r0, 500
	movi r4, 0x4000
loop:
	stw  r0, [r4]
	ldw  r1, [r4]
	add  r2, r1
	mov  r3, r2
	andi r3, 7
	cmpi r3, 3
	jz   hit
	addi r2, 1
hit:	dec  r0
	jnz  loop
	cli
	halt
`

func load() *isa.Program { return isa.MustAssemble(prog, 0x1000) }

func fmCfg() fm.Config { return fm.Config{DisableInterrupts: true} }

// replay drains the test program (or p) under the default timing model.
func replay(t *testing.T, p *isa.Program, maxInst uint64) tm.Stats {
	t.Helper()
	model, err := Replay(context.Background(), p, tm.DefaultConfig(), fmCfg(), maxInst)
	if err != nil {
		t.Fatal(err)
	}
	return model.Stats
}

// kips is the Table 3 unit: committed instructions per host millisecond.
func kips(st tm.Stats, nanos float64) float64 { return float64(st.Instructions) / nanos * 1e6 }

func TestMonolithicRuns(t *testing.T) {
	st := replay(t, load(), 0)
	k := kips(st, SimOutorderCost().Nanos(st))
	if st.Instructions == 0 || st.Cycles == 0 || k <= 0 {
		t.Fatalf("bad replay %+v (%.0f KIPS)", st, k)
	}
	// Table 3 territory: a software cycle-accurate simulator runs at
	// hundreds of KIPS, far below FAST's 1.2+ MIPS.
	if k < 100 || k > 2000 {
		t.Errorf("monolithic %.0f KIPS outside software-simulator range", k)
	}
}

func TestGEMSClassSlower(t *testing.T) {
	st := replay(t, load(), 0)
	fast, slow := kips(st, SimOutorderCost().Nanos(st)), kips(st, GEMSCost().Nanos(st))
	if slow*5 > fast {
		t.Errorf("GEMS-class (%.0f KIPS) not ≫ slower than sim-outorder-class (%.0f)", slow, fast)
	}
	// A cost model prices a replay; it cannot change target timing. Two
	// replays of the same program agree on it too.
	if again := replay(t, load(), 0); again.Cycles != st.Cycles {
		t.Errorf("replay not deterministic: %d vs %d target cycles", again.Cycles, st.Cycles)
	}
}

func TestLockstepLimitedByRoundTrips(t *testing.T) {
	st := replay(t, load(), 0)
	k := kips(st, LockstepNanos(st, hostlink.DRC()))
	// Per-cycle round trips bound the rate at ~1/(469+307+350)ns cycles/s;
	// with IPC < 1 the KIPS must be below that.
	maxKIPS := 1e6 / (469 + 307 + 350)
	if k >= maxKIPS*1000 {
		t.Errorf("lockstep %.0f KIPS above the round-trip bound", k)
	}
	if k <= 0 {
		t.Error("lockstep produced nothing")
	}
}

func TestFSBCacheSlowerThanSoftware(t *testing.T) {
	// The [30] result: adding the FPGA cache makes the simulator slower.
	st := replay(t, load(), 0)
	sw := kips(st, SimOutorderCost().Nanos(st))
	withFPGA := kips(st, FSBCacheNanos(st, SimOutorderCost(), hostlink.DRC()))
	if withFPGA >= sw {
		t.Errorf("FPGA-on-FSB (%.0f KIPS) not slower than pure software (%.0f): "+
			"the Intel experiment's outcome is lost", withFPGA, sw)
	}
}

func TestPublishedRows(t *testing.T) {
	rows := PublishedRows()
	if len(rows) != 7 {
		t.Fatalf("%d published rows, want 7", len(rows))
	}
	for _, r := range rows {
		if r.KIPS <= 0 || r.Simulator == "" {
			t.Errorf("bad row %+v", r)
		}
	}
	// Ordering sanity from Table 3: sim-outorder is the fastest software
	// simulator listed; Intel/AMD the slowest.
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Simulator] = r.KIPS
	}
	if byName["sim-outorder"] <= byName["PTLSim"] || byName["Intel"] >= byName["GEMS"] {
		t.Error("published ordering broken")
	}
}

func TestMaxInstructionsBound(t *testing.T) {
	if st := replay(t, load(), 50); st.Instructions > 60 {
		t.Errorf("bound ignored: %d instructions", st.Instructions)
	}
}

// TestStreamingReplayMatchesRecordedTrace: Replay never materialises the
// trace, so a mispredict — which drops the timing model's view — makes it
// re-fetch inside the stream's current chunk. The oracle is the recorded
// trace replayed whole through tm.SliceSource; under the default gshare
// predictor, which mispredicts on this program, the two agree cycle for
// cycle.
func TestStreamingReplayMatchesRecordedTrace(t *testing.T) {
	m := fm.New(fmCfg())
	m.LoadProgram(load())
	var recorded []trace.Entry
	if err := m.Run(func(e *trace.Entry) bool { recorded = append(recorded, *e); return true }); err != nil {
		t.Fatal(err)
	}
	oracle, err := tm.New(tm.DefaultConfig(), &tm.SliceSource{Entries: recorded}, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Run(math.MaxUint64)
	if len(recorded) <= streamChunk || oracle.Stats.Mispredicts == 0 {
		t.Fatalf("%d entries, %d mispredicts: the program no longer spans chunks or re-fetches", len(recorded), oracle.Stats.Mispredicts)
	}
	if got := replay(t, load(), 0); got != oracle.Stats {
		t.Errorf("streamed replay diverged from the recorded trace:\n got %+v\nwant %+v", got, oracle.Stats)
	}

	// The re-fetch itself: after a mispredict at IN 2 the model asks for 3
	// again, and is served the rest of the chunk it was already given.
	m = fm.New(fmCfg())
	m.LoadProgram(load())
	s := &stream{ctx: context.Background(), m: m, chunk: make([]trace.Entry, 0, streamChunk)}
	first, _ := s.FetchChunk(0)
	again, st := s.FetchChunk(3)
	if st != tm.FetchOK || len(first) != streamChunk || len(again) != streamChunk-3 || again[0].IN != 3 || m.IN() != streamChunk {
		t.Errorf("re-fetch at 3: status %v, %d entries after a first view of %d, FM at %d", st, len(again), len(first), m.IN())
	}
}

func TestFatalPropagates(t *testing.T) {
	bad := isa.MustAssemble("movi r0, 0\nmovi r1, 0\ndiv r0, r1\n", 0x1000)
	if _, err := Replay(context.Background(), bad, tm.DefaultConfig(), fmCfg(), 0); err == nil {
		t.Error("fatal functional-model error not propagated")
	}
}

func TestReplayCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, load(), tm.DefaultConfig(), fmCfg(), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestFMAndTMAgreeOnUops ties Table 1's µop count to the timing model's: a
// right-path replay run to completion must crack every committed instruction
// into as many µops in the timing model as the functional model counted into
// its coverage statistics. shell-fork's giant REP stores hold the iteration
// expansion to the same count on both sides.
func TestFMAndTMAgreeOnUops(t *testing.T) {
	for _, name := range []string{"logwrite", "shell-fork", "nicserv", "Linux-2.4"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("no workload %q", name)
			}
			boot, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			m := fm.New(fm.Config{
				ICacheEntries: fm.DefaultICacheEntries,
				SuperblockLen: fm.DefaultSuperblockLen,
				Devices:       boot.Devices(),
			})
			m.LoadProgram(boot.Kernel)
			s := &stream{ctx: context.Background(), m: m, chunk: make([]trace.Entry, 0, streamChunk)}
			model, err := tm.New(tm.DefaultConfig(), s, nil)
			if err != nil {
				t.Fatal(err)
			}
			model.Run(math.MaxUint64)
			if s.err != nil {
				t.Fatal(s.err)
			}
			if !m.Halted() {
				t.Fatalf("replay stopped at IN %d before the target halted", m.IN())
			}
			if got, want := model.Stats.Instructions, m.Coverage.Instructions; got != want {
				t.Errorf("TM committed %d instructions, FM counted %d", got, want)
			}
			if got, want := model.Stats.UOps, m.Coverage.UOps; got != want {
				t.Errorf("TM cracked %d µops, FM counted %d", got, want)
			}
			t.Logf("%d instructions, %d µops", model.Stats.Instructions, model.Stats.UOps)
		})
	}
}
