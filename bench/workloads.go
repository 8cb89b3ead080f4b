package main

import (
	"repro/internal/fm"
	"repro/internal/sim"
)

// simPoint is one simulator run of a workload: the engine is always the
// serial "fast" engine, the predecode cache and superblocks are at the CLI
// defaults (what `fastsim` gives a user), and everything else is Params.
type simPoint struct {
	Label  string // key of the point's digest in testdata/digests.json
	Params sim.Params
}

// workloadDef is one row of the workload table. A workload with Points is a
// simulator workload (closed loop of one: the next repetition starts when
// the previous result is in); the one without is the fastd job mix.
type workloadDef struct {
	Name   string
	Why    string // one line, also the "why" of BENCHMARK.json
	Points []simPoint
}

func fast(workload string, maxInst uint64, cores int) simPoint {
	return simPoint{Label: workload, Params: sim.Params{
		Workload:        workload,
		MaxInstructions: maxInst,
		Cores:           cores,
		ICacheEntries:   fm.DefaultICacheEntries,
		SuperblockLen:   fm.DefaultSuperblockLen,
	}}
}

const mixName = "service_mix"

// workloads is the fixed workload table. Input sizes never change with the
// run length: --seconds only decides how many repetitions (or jobs) fit.
//
// shell-fork to completion is eight alike fork+exec rounds of ~2.7 s each;
// the cap stops inside the first (after its 1.84 M-cycle address-space copy
// through `rep` stores and the wrong-path string stores that follow) so that
// a repetition fits a run several times.
var workloads = []workloadDef{
	{
		Name:   "boot_rollback",
		Why:    "Linux-2.4 boot to completion: a rollback every ~14 inst and 0.65 wrong-path inst per committed one, so FM execute, SetPC undo and TB rewind do the work and the TM little.",
		Points: []simPoint{fast("Linux-2.4", 0, 1)},
	},
	{
		Name:   "mcf_stall",
		Why:    "181.mcf capped at 500k inst: almost no rollbacks, 3.3 target cycles per inst, FM parked a full trace buffer ahead, so journal commit at a 512-deep window and the TM cycle loop do the work.",
		Points: []simPoint{fast("181.mcf", 500_000, 1)},
	},
	{
		Name: "server_strings",
		Why:  "shell-fork (capped in its first fork round) + logwrite + nicserv: giant rep string stores, device I/O through the bus journal and mostly idle TM cycles use the FM/journal layer unlike ALU code.",
		Points: []simPoint{
			fast("shell-fork", 8_300, 1),
			fast("logwrite", 0, 1),
			fast("nicserv", 0, 1),
		},
	},
	{
		Name:   "smp_lock4",
		Why:    "smp-lock on 4 cores to completion: the only path through core.Multicore (round-robin quanta, MSI directory, per-cycle cap check), which the one-coupling-driver refactor must not slow.",
		Points: []simPoint{fast("smp-lock", 0, 4)},
	},
	{
		Name: mixName,
		Why:  "2 closed-loop clients over a real fastd (2 workers, disk store, warm-start), 40% cached / 35% warm / 25% cold jobs: key, admission, queue, configure, cache tiers and HTTP dominate, not engine loops.",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizes are the knobs that tests shrink to toy values; a benchmark run always
// uses fullSizes, so run length is the same on every commit.
type sizes struct {
	// InstCap, when non-zero, caps every simulator point (toy runs only).
	InstCap uint64
	// WarmupInst caps the warm-up run of set-up.
	WarmupInst uint64
	// DrillInst bounds the commit and rollback drills of the ladder.
	DrillInst uint64
	// SideInst caps the ladder's side runs (parallel, multicore, serial at
	// one core for a multicore workload).
	SideInst uint64
	// SetupReps is how many times set-up is repeated for its median.
	SetupReps int
	// MinReps is the least number of timed repetitions.
	MinReps int

	// Job mix: MixJobs bounds the job list (0 = as many as fit the run);
	// MixBaseCap is the instruction cap the job caps are offsets from;
	// MixCachedKeys/MixPrefixes size the prefill; MixVerify is the sample
	// re-run through plain sim.Run; ProbeJobs sizes the small mix that the
	// traced run of a simulator workload takes its service numbers from.
	MixJobs       int
	MixSetupReps  int
	MixBaseCap    uint64
	MixCachedKeys int
	MixPrefixes   int
	MixVerify     int
	ProbeJobs     int
	ProbeOps      int // round trips per micro-probe (submit, result, key, ...)
}

var fullSizes = sizes{
	WarmupInst:    20_000,
	DrillInst:     100_000,
	SideInst:      100_000,
	SetupReps:     11,
	MinReps:       3,
	MixSetupReps:  3,
	MixBaseCap:    17_000,
	MixCachedKeys: 32,
	MixPrefixes:   4,
	MixVerify:     32,
	ProbeJobs:     48,
	ProbeOps:      200,
}

func (s sizes) point(p simPoint) simPoint {
	if s.InstCap > 0 && (p.Params.MaxInstructions == 0 || p.Params.MaxInstructions > s.InstCap) {
		p.Params.MaxInstructions = s.InstCap
	}
	return p
}
