package sim

import (
	"strings"
	"testing"
)

// confCap keeps conformance runs interactive: the architectural
// equivalences hold at any cap.
const confCap = 10_000

// TestRegistry checks the registry's public contract: the six paper
// engines resolve, unknown names fail listing the valid ones.
func TestRegistry(t *testing.T) {
	want := []string{"fast", "fast-parallel", "fsbcache", "gems", "lockstep", "monolithic"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i, n := range want {
		if got[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], n)
		}
		if !Registered(n) {
			t.Errorf("Registered(%q) = false", n)
		}
	}
	if _, err := New("hasim", Params{}); err == nil {
		t.Fatal("New(hasim) succeeded for an unregistered engine")
	} else if !strings.Contains(err.Error(), "fast-parallel") {
		t.Errorf("unknown-engine error should list registered names, got: %v", err)
	}
	if Registered("hasim") {
		t.Error("Registered(hasim) = true")
	}
}

// TestEngineConformance runs every registered engine on the same small
// workload and checks the cross-engine invariant the baseline package
// promises: every simulator executes the same target, so architectural
// counters agree; only the host-time cost models differ.
func TestEngineConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled runs")
	}
	p := Params{Workload: "164.gzip", MaxInstructions: confCap}
	results := map[string]Result{}
	for _, name := range Names() {
		r, err := Run(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = r
		if r.Engine != name {
			t.Errorf("%s: Result.Engine = %q", name, r.Engine)
		}
		if r.Workload != "164.gzip" {
			t.Errorf("%s: Result.Workload = %q", name, r.Workload)
		}
		// Sanity for every engine: it really simulated something and
		// produced a speed.
		if r.Instructions == 0 || r.TargetCycles == 0 || r.BasicBlocks == 0 {
			t.Errorf("%s: zero architectural counters: %+v", name, r)
		}
		if r.IPC <= 0 || r.KIPS <= 0 || r.SimNanos <= 0 {
			t.Errorf("%s: zero performance results: IPC=%v KIPS=%v nanos=%v",
				name, r.IPC, r.KIPS, r.SimNanos)
		}
		if r.BPAccuracy <= 0 || r.BPAccuracy > 1 {
			t.Errorf("%s: implausible BP accuracy %v", name, r.BPAccuracy)
		}
	}

	// The serial and goroutine-parallel FAST couplings must agree on every
	// architectural counter — instructions, basic blocks, branch outcomes —
	// only cycle timing may differ (fetch bubbles depend on scheduling).
	fast, par := results["fast"], results["fast-parallel"]
	if fast.Instructions != par.Instructions {
		t.Errorf("fast vs fast-parallel instructions: %d vs %d",
			fast.Instructions, par.Instructions)
	}
	if fast.BasicBlocks != par.BasicBlocks {
		t.Errorf("fast vs fast-parallel basic blocks: %d vs %d",
			fast.BasicBlocks, par.BasicBlocks)
	}
	if fast.Mispredicts != par.Mispredicts {
		t.Errorf("fast vs fast-parallel branch outcomes: %d vs %d mispredicts",
			fast.Mispredicts, par.Mispredicts)
	}
	if fast.BPAccuracy != par.BPAccuracy {
		t.Errorf("fast vs fast-parallel BP accuracy: %v vs %v",
			fast.BPAccuracy, par.BPAccuracy)
	}

	// Every engine executes the identical committed path. The FAST engines
	// stop on the cap at a cycle boundary and can commit up to one
	// issue-width extra; the trace-replay baselines cap exactly, so they
	// must agree with each other exactly and with FAST modulo that
	// boundary.
	const capSlack = 2 // default issue width
	for _, name := range []string{"monolithic", "gems", "lockstep", "fsbcache"} {
		r := results[name]
		if r.Instructions != results["monolithic"].Instructions {
			t.Errorf("%s committed %d instructions, monolithic committed %d",
				name, r.Instructions, results["monolithic"].Instructions)
		}
		if r.BasicBlocks != results["monolithic"].BasicBlocks {
			t.Errorf("%s committed %d basic blocks, monolithic committed %d",
				name, r.BasicBlocks, results["monolithic"].BasicBlocks)
		}
		if d := fast.Instructions - r.Instructions; d > capSlack {
			t.Errorf("%s committed %d instructions, fast committed %d (slack %d)",
				name, r.Instructions, fast.Instructions, capSlack)
		}
		if d := fast.BasicBlocks - r.BasicBlocks; d > capSlack {
			t.Errorf("%s committed %d basic blocks, fast committed %d (slack %d)",
				name, r.BasicBlocks, fast.BasicBlocks, capSlack)
		}
	}

	// The paper's ordering must hold even at this small cap: FAST beats
	// lockstep beats nothing; the FSB cache is slower than pure software.
	if results["fast"].KIPS <= results["lockstep"].KIPS {
		t.Errorf("FAST (%.0f KIPS) should beat lockstep (%.0f KIPS)",
			results["fast"].KIPS, results["lockstep"].KIPS)
	}
	if results["monolithic"].KIPS <= results["gems"].KIPS {
		t.Errorf("sim-outorder-class (%.0f KIPS) should beat GEMS-class (%.0f KIPS)",
			results["monolithic"].KIPS, results["gems"].KIPS)
	}
}

// TestEngineTwoPhase checks the Configure/Run lifecycle contracts:
// instrumentation access between the phases, raw-program runs, and
// parameter validation at Configure time.
func TestEngineTwoPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled run")
	}
	eng, err := New("fast", Params{Workload: "164.gzip", MaxInstructions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := eng.(Coupled)
	if !ok {
		t.Fatal("fast engine does not expose the coupled simulator")
	}
	if c.TimingModel() == nil || c.FunctionalModel() == nil {
		t.Fatal("nil TM/FM before Run")
	}
	if b, ok := eng.(Booted); !ok || b.Boot() == nil {
		t.Fatal("workload-driven engine should expose its boot")
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []Params{
		{Workload: "no-such-workload"},
		{Workload: "164.gzip", Link: "fsb"},
	} {
		if _, err := New("fast", bad); err == nil {
			t.Errorf("Configure accepted bad params %+v", bad)
		}
	}
}

// TestFastEngineMulticore drives the N-core target through the registry:
// Cores > 1 on the fast engine instantiates the multicore scheduler, the
// smp-lock workload completes its critical sections, the Result carries the
// multicore summary fields, and a repeat run is bit-identical.
func TestFastEngineMulticore(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled runs")
	}
	p := Params{Workload: "smp-lock", Cores: 2, MaxInstructions: 300_000}
	run := func() (Result, Engine) {
		eng, err := New("fast", p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r, eng
	}
	r, eng := run()
	if r.Cores != 2 {
		t.Errorf("Result.Cores = %d, want 2", r.Cores)
	}
	if r.CoherenceInvalidations == 0 || r.CoherenceHops == 0 {
		t.Errorf("write-shared workload produced no coherence activity: %+v", r)
	}
	if r.Instructions == 0 || r.TargetCycles == 0 {
		t.Errorf("zero architectural counters: %+v", r)
	}
	// The lock test prints 'K' on success, 'X' on a lost update.
	boot := eng.(Booted).Boot()
	if out := string(boot.Console.Output()); !strings.Contains(out, "K") || strings.Contains(out, "X") {
		t.Errorf("smp-lock console = %q, want 'K' and no 'X'", out)
	}
	if c, ok := eng.(Coupled); !ok || c.TimingModel() == nil || c.FunctionalModel() == nil {
		t.Error("multicore engine should expose core 0's TM/FM")
	}
	if again, _ := run(); again != r {
		t.Errorf("repeat multicore run differs:\n  %+v\n  %+v", r, again)
	}

	// Cores: 1 is the plain single-core serial engine — identical to
	// leaving the knob unset.
	one, err := Run("fast", Params{Workload: "164.gzip", MaxInstructions: 5000, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Run("fast", Params{Workload: "164.gzip", MaxInstructions: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if one != zero {
		t.Errorf("-cores 1 differs from the unset knob:\n  %+v\n  %+v", one, zero)
	}
	if one.Cores != 0 {
		t.Errorf("single-core Result.Cores = %d, want 0 (field absent from JSON)", one.Cores)
	}
}

// TestPollPolicyMapping checks the PollEveryBBs tri-state: default,
// explicit N, and poll-on-resteer produce strictly decreasing link reads.
func TestPollPolicyMapping(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled runs")
	}
	read := func(poll int) uint64 {
		r, err := Run("fast", Params{
			Workload: "164.gzip", MaxInstructions: confCap, PollEveryBBs: poll,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.LinkStats.Reads
	}
	perBB, def, resteer := read(1), read(0), read(PollOnResteer)
	if !(perBB > def && def > resteer) {
		t.Errorf("poll reads should strictly decrease per-BB > default > resteer-only: %d, %d, %d",
			perBB, def, resteer)
	}
}

// TestHostKnobMapping checks the ICacheEntries/SuperblockLen tri-state, the
// same rule as PollEveryBBs: zero is the engine default (fast paths on), a
// positive value is itself, Off — or any negative value — disables. The
// zero row is every caller that never spells the knobs: fastd jobs,
// experiments, the goldens.
func TestHostKnobMapping(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		icache, superblock     int
		wantICache, wantBlocks bool
	}{
		{"zero is the default", 0, 0, true, true},
		{"explicit sizes", 16, 8, true, true},
		{"superblocks off", 0, Off, true, false},
		{"icache off takes superblocks with it", Off, 0, false, false},
		{"any negative is off", -7, -7, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New("fast", Params{Workload: "164.gzip", MaxInstructions: confCap,
				ICacheEntries: tc.icache, SuperblockLen: tc.superblock})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			m := eng.(Coupled).FunctionalModel()
			icHits, _, _, _ := m.ICacheStats()
			sbHits, _, _, _ := m.SuperblockStats()
			if got := icHits > 0; got != tc.wantICache {
				t.Errorf("predecode hits = %d, want cache on = %v", icHits, tc.wantICache)
			}
			if m.SuperblocksEnabled() != tc.wantBlocks || (sbHits > 0) != tc.wantBlocks {
				t.Errorf("SuperblocksEnabled = %v with %d block hits, want on = %v",
					m.SuperblocksEnabled(), sbHits, tc.wantBlocks)
			}
		})
	}
}
