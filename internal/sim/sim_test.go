package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
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

// TestReplayEnginesStable pins every byte the trace-replay comparison
// engines report: the SHA-256 of json.Marshal(Result) for monolithic, gems,
// lockstep, fsbcache and fsbcache's Software() on two parameter sets. The
// engines differ only in how they price one drained replay, so a refactor
// of that pricing must keep the floating-point evaluation order of each
// cost expression. The digests were computed at commit 9bcb70a, the tree
// before the three baseline simulators became one replay and three cost
// functions, by adding this test there with empty digests and reading them
// off the failure output of
//
//	go test ./internal/sim -run '^TestReplayEnginesStable$'
func TestReplayEnginesStable(t *testing.T) {
	if testing.Short() {
		t.Skip("replay runs")
	}
	for _, tc := range []struct {
		p       Params
		digests map[string]string
	}{
		{Params{Workload: "164.gzip", MaxInstructions: 60_000}, map[string]string{
			"monolithic":         "b6dcf2fa8c0a1da953ae31b4054bb9045d9470bdd6bbb76134304d41b9af8536",
			"gems":               "60b17b37d296b9d8016fcc75cc8bba642dce0cf09e30004d1cdac7004dd18ef2",
			"lockstep":           "0e82c13f97c9e5c62801732491d40239a09d7411e59d19cf9f9727ad1de10174",
			"fsbcache":           "a8c6e8fecfb54c5246519df0d7aa6f568256e98ef92d7cdb59862e54a793a96c",
			"fsbcache(software)": "745219fe74178376977e59ae674f33ee9d025b56da5d13638b71c9e4313576c4",
		}},
		{Params{Workload: "Linux-2.4", MaxInstructions: 80_000, Link: "coherent", Predictor: "2bit", IssueWidth: 4}, map[string]string{
			"monolithic":         "65caf2d10cbb4b4668ea9dd67a2cf42c9a50ca0dc5c4d0b61c692b6f7aaae455",
			"gems":               "0de403b3efd69522ef2ef08dd767e4db05368af46863a091f5a161eefc4b2218",
			"lockstep":           "003e98e38581dae13a4dac35a62a5dddfe8b1bdc28ccb3ebfa630d0a224c87c9",
			"fsbcache":           "d39a5c329167f29ec5ef957693e471081ef5f3bddf2b40d7e6da2a22184bf57d",
			"fsbcache(software)": "8873e0bf69b5eb4d860c78fcfbc40d5a6341d7d35221c339c66f9d97ac7fce2c",
		}},
	} {
		check := func(r Result) {
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != tc.digests[r.Engine] {
				t.Errorf("%s on %s: result digest %s, want %s", r.Engine, r.Workload, got, tc.digests[r.Engine])
			}
		}
		for _, name := range []string{"monolithic", "gems", "lockstep", "fsbcache"} {
			eng, err := New(name, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			r, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			check(r)
			if sc, ok := eng.(SoftwareComparison); ok {
				check(sc.Software())
			}
		}
	}
}

// TestReplayMemoryBounded: a comparison engine streams its trace — the
// functional model commits behind the timing model's fetch — so a replay's
// heap does not grow with the run. The whole Linux-2.4 boot (856 713
// instructions) peaked at 713 MB when the trace was recorded first over a
// model that never committed; an uncapped comparison job must not be the
// cheapest way to OOM a fastd.
func TestReplayMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("a whole Linux-2.4 replay")
	}
	runtime.GC() // earlier tests' garbage is not this run's heap
	stop, peak := make(chan struct{}), make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var high uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				high = max(high, ms.HeapInuse)
			case <-stop:
				peak <- high
				return
			}
		}
	}()
	r, err := Run("monolithic", Params{Workload: "Linux-2.4"})
	close(stop)
	high := <-peak
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions < 800_000 {
		t.Fatalf("replay committed %d instructions: not the whole boot", r.Instructions)
	}
	t.Logf("%d instructions, heap in use peaked at %d MB", r.Instructions, high>>20)
	if high > 200<<20 {
		t.Errorf("heap in use peaked at %d MB, want under 200 MB", high>>20)
	}
}
