// Package baseline implements the comparison points of the paper: a
// monolithic software cycle-accurate simulator (sim-outorder/GEMS class,
// Table 3), a lockstep timing-directed simulator that round-trips every
// target cycle (Asim/Timing-First/HASim class, §5), and the Intel
// FPGA-L1-cache-on-the-front-side-bus experiment [30] that motivated §3.1.
//
// Every baseline executes the *same* target simulation (the internal/fm
// functional model and internal/tm timing model), so architectural results
// are identical across simulators; what differs is the host-time cost
// model — which is exactly the paper's point.
package baseline

import (
	"context"
	"fmt"

	"repro/internal/fm"
	"repro/internal/hostlink"
	"repro/internal/isa"
	"repro/internal/tm"
	"repro/internal/trace"
)

// Result is a baseline run summary, comparable with core.Result and
// liftable into the unified internal/sim result shape: it carries the full
// timing-model statistics so architectural counters (basic blocks, per-
// class issues, mispredicts) are available from every simulator, not just
// FAST.
type Result struct {
	Name         string
	Instructions uint64
	TargetCycles uint64
	IPC          float64
	SimNanos     float64
	KIPS         float64 // Table 3 reports software simulators in KIPS
	BPAccuracy   float64
	TM           tm.Stats
}

func (r Result) String() string {
	return fmt.Sprintf("%s: inst=%d cycles=%d IPC=%.3f %.0f KIPS",
		r.Name, r.Instructions, r.TargetCycles, r.IPC, r.KIPS)
}

// SoftwareCost models the host cost of evaluating one target cycle of the
// timing model in software on the DRC platform's Opteron.
type SoftwareCost struct {
	// BaseNanosPerCycle covers the event loop and stage evaluation.
	BaseNanosPerCycle float64
	// NanosPerUop covers per-µop work: wakeup, select, writeback, commit.
	NanosPerUop float64
	// FunctionalNanosPerInst is the integrated functional execution.
	FunctionalNanosPerInst float64
}

// SimOutorderCost calibrates to Table 3's sim-outorder row (~740 KIPS on
// the DRC platform at the prototype's IPC levels).
func SimOutorderCost() SoftwareCost {
	return SoftwareCost{BaseNanosPerCycle: 700, NanosPerUop: 400, FunctionalNanosPerInst: 100}
}

// GEMSCost calibrates to Table 3's GEMS row (~69 KIPS): a full-system,
// multiprocessor-capable infrastructure pays roughly an order of magnitude
// more per cycle.
func GEMSCost() SoftwareCost {
	return SoftwareCost{BaseNanosPerCycle: 8000, NanosPerUop: 2200, FunctionalNanosPerInst: 800}
}

// ctxCheckInterval bounds cancellation latency: the execution loops test
// ctx.Err() once per this many iterations, keeping the per-step cost of an
// uncancelled run to one counter increment.
const ctxCheckInterval = 1024

// runTarget executes prog to completion on a fresh FM and returns the
// trace. Baselines are trace-equivalent to FAST by construction.
func runTarget(ctx context.Context, prog *isa.Program, fmCfg fm.Config, maxInst uint64) ([]trace.Entry, *fm.Model, error) {
	const idleLimit = 10_000_000 // hung-target guard
	m := fm.New(fmCfg)
	m.LoadProgram(prog)
	var out []trace.Entry
	var ticks uint64
	idle := 0
	for {
		if maxInst > 0 && uint64(len(out)) >= maxInst {
			break
		}
		if ticks++; ticks%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		e, ok := m.Step()
		if !ok {
			if m.Fatal() != nil {
				return nil, nil, fmt.Errorf("baseline: functional model: %w", m.Fatal())
			}
			// Idle-wait for the next interrupt, bounded; bare metal
			// delivers none, so there HALT is final whatever FlagI says.
			if m.Halted() && m.Flags&isa.FlagI != 0 && !fmCfg.DisableInterrupts && idle < idleLimit {
				m.AdvanceIdle(1)
				idle++
				continue
			}
			break
		}
		idle = 0
		out = append(out, e)
	}
	return out, m, nil
}

// Monolithic simulates the classic integrated software simulator: one
// thread interleaves functional execution and cycle-accurate timing; no
// parallelism is available ("Simulators ... have traditionally resisted
// parallelization", §1).
type Monolithic struct {
	TM    tm.Config
	FM    fm.Config
	Cost  SoftwareCost
	Label string
	// MaxInstructions bounds the run (0 = to completion).
	MaxInstructions uint64
}

// Run executes prog and returns the cost-modeled result.
func (b Monolithic) Run(prog *isa.Program) (Result, error) {
	return b.RunContext(context.Background(), prog)
}

// RunContext is Run with cooperative cancellation.
func (b Monolithic) RunContext(ctx context.Context, prog *isa.Program) (Result, error) {
	entries, _, err := runTarget(ctx, prog, b.FM, b.MaxInstructions)
	if err != nil {
		return Result{}, err
	}
	model, err := tm.New(b.TM, &tm.SliceSource{Entries: entries}, nil)
	if err != nil {
		return Result{}, err
	}
	if err := runTiming(ctx, model); err != nil {
		return Result{}, err
	}
	st := model.Stats
	nanos := float64(st.Cycles)*b.Cost.BaseNanosPerCycle +
		float64(st.UOps)*b.Cost.NanosPerUop +
		float64(st.Instructions)*b.Cost.FunctionalNanosPerInst
	name := b.Label
	if name == "" {
		name = "monolithic"
	}
	return finish(name, model, nanos), nil
}

// Lockstep simulates the timing-directed partitioning (Asim, Timing-First,
// current M5): "both components must run in essentially lock-step order
// with each other and generally must round-trip communicate every simulated
// cycle" (§5). With the timing model on the FPGA this is the HASim shape:
// the host pays the full link round trip per target cycle.
type Lockstep struct {
	TM   tm.Config
	FM   fm.Config
	Link hostlink.Config
	// FunctionalNanosPerCycle is the software functional model's work per
	// target cycle (it executes piecewise, when the TM tells it to).
	FunctionalNanosPerCycle float64
	FPGANanosPerCycle       float64 // TM host time per target cycle
	MaxInstructions         uint64
}

// Run executes prog under the lockstep cost model.
func (b Lockstep) Run(prog *isa.Program) (Result, error) {
	return b.RunContext(context.Background(), prog)
}

// RunContext is Run with cooperative cancellation.
func (b Lockstep) RunContext(ctx context.Context, prog *isa.Program) (Result, error) {
	entries, _, err := runTarget(ctx, prog, b.FM, b.MaxInstructions)
	if err != nil {
		return Result{}, err
	}
	model, err := tm.New(b.TM, &tm.SliceSource{Entries: entries}, nil)
	if err != nil {
		return Result{}, err
	}
	if err := runTiming(ctx, model); err != nil {
		return Result{}, err
	}
	st := model.Stats
	// Every cycle: round trip + both sides' work, fully serialized.
	perCycle := b.Link.ReadNanos + b.Link.WriteNanos +
		b.FunctionalNanosPerCycle + b.FPGANanosPerCycle
	nanos := float64(st.Cycles) * perCycle
	return finish("lockstep(F=1)", model, nanos), nil
}

// FSBCache reproduces the Intel experiment of [30]/§1: the L1 data cache of
// a software simulator moved into an FPGA on the front-side bus. Every data
// memory access becomes a round trip, and the result is *slower* than the
// unmodified software simulator.
type FSBCache struct {
	TM              tm.Config
	FM              fm.Config
	Cost            SoftwareCost // the software simulator around the FPGA cache
	Link            hostlink.Config
	MaxInstructions uint64
}

// Run executes prog under the FSB-cache cost model and also returns the
// pure-software result it should be compared against.
func (b FSBCache) Run(prog *isa.Program) (withFPGA, pureSoftware Result, err error) {
	return b.RunContext(context.Background(), prog)
}

// RunContext is Run with cooperative cancellation.
func (b FSBCache) RunContext(ctx context.Context, prog *isa.Program) (withFPGA, pureSoftware Result, err error) {
	entries, _, err := runTarget(ctx, prog, b.FM, b.MaxInstructions)
	if err != nil {
		return Result{}, Result{}, err
	}
	model, err := tm.New(b.TM, &tm.SliceSource{Entries: entries}, nil)
	if err != nil {
		return Result{}, Result{}, err
	}
	if err := runTiming(ctx, model); err != nil {
		return Result{}, Result{}, err
	}
	st := model.Stats

	memAccesses := st.IssuedByClass[isa.ClassLoad] + st.IssuedByClass[isa.ClassStore]
	swNanos := float64(st.Cycles)*b.Cost.BaseNanosPerCycle +
		float64(st.UOps)*b.Cost.NanosPerUop +
		float64(st.Instructions)*b.Cost.FunctionalNanosPerInst
	pureSoftware = finish("software (unmodified)", model, swNanos)

	// Offloading the dL1 removes its software cost (a fraction of per-µop
	// work) but adds a blocking round trip per access.
	offloaded := swNanos - float64(memAccesses)*b.Cost.NanosPerUop*0.5
	fpgaNanos := offloaded + float64(memAccesses)*(b.Link.ReadNanos+b.Link.WriteNanos)
	withFPGA = finish("software + FPGA L1 on FSB", model, fpgaNanos)
	return withFPGA, pureSoftware, nil
}

// runTiming drains the timing model in bounded slices so cancellation is
// honoured between slices rather than only at end of trace.
func runTiming(ctx context.Context, model *tm.TM) error {
	const slice = 1 << 16
	for !model.Done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		model.Run(slice)
	}
	return nil
}

func finish(name string, model *tm.TM, nanos float64) Result {
	st := model.Stats
	r := Result{
		Name:         name,
		Instructions: st.Instructions,
		TargetCycles: st.Cycles,
		IPC:          st.IPC(),
		SimNanos:     nanos,
		BPAccuracy:   model.BPStats.Accuracy(),
		TM:           st,
	}
	if nanos > 0 {
		r.KIPS = float64(st.Instructions) / nanos * 1e6
	}
	return r
}

// Table3Published holds the published rows of Table 3 that come from
// proprietary simulators we cannot run (personal communications in the
// paper); speeds in KIPS.
type PublishedRow struct {
	Simulator, ISA, Uarch string
	KIPS                  float64
	FullSystem            bool
}

// PublishedRows returns Table 3's constants. Intel's and AMD's "1-10KHz"
// cycle rates are recorded at their midpoint as ~5 KIPS-equivalents
// (cycle-rate ≈ instruction rate at IPC ~1).
func PublishedRows() []PublishedRow {
	return []PublishedRow{
		{"Intel", "x86-64", "Core 2", 5, true},
		{"AMD", "x86-64", "Opteron", 5, true},
		{"IBM", "Power", "Power5", 200, true},
		{"Freescale", "PPC", "e500", 80, false},
		{"PTLSim", "x86-64", "Athlon", 270, true},
		{"sim-outorder", "Alpha", "21264", 740, false},
		{"GEMS", "Sparc", "generic", 69, true},
	}
}
