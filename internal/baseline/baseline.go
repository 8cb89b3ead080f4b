// Package baseline holds what the paper's comparison simulators share and
// what sets them apart. They share the target: Replay executes a program on
// the internal/fm functional model and replays its trace through the
// internal/tm timing model — streamed a chunk at a time, the functional model
// committing behind the timing model's fetch, so a replay's memory does not
// grow with the run — and architectural results are identical across
// simulators by construction. They differ only in what a target cycle costs
// on the host — which is exactly the paper's point — so each is one pure
// cost function over the drained replay's tm.Stats: a monolithic software
// cycle-accurate simulator (SoftwareCost.Nanos; sim-outorder/GEMS class,
// Table 3), a lockstep timing-directed simulator that round-trips every
// target cycle (LockstepNanos; Asim/Timing-First/HASim class, §5), and the
// Intel FPGA-L1-cache-on-the-front-side-bus experiment [30] that motivated
// §3.1 (FSBCacheNanos).
package baseline

import (
	"context"
	"fmt"
	"math"

	"repro/internal/fm"
	"repro/internal/hostlink"
	"repro/internal/isa"
	"repro/internal/tm"
	"repro/internal/trace"
)

// SoftwareCost models the host cost of evaluating one target cycle of the
// timing model in software on the DRC platform's Opteron: the classic
// integrated simulator, one thread interleaving functional execution and
// cycle-accurate timing with no parallelism available ("Simulators ... have
// traditionally resisted parallelization", §1).
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

// Nanos prices a replay as the monolithic software simulator.
func (c SoftwareCost) Nanos(st tm.Stats) float64 {
	return float64(st.Cycles)*c.BaseNanosPerCycle +
		float64(st.UOps)*c.NanosPerUop +
		float64(st.Instructions)*c.FunctionalNanosPerInst
}

// LockstepNanos prices a replay as the timing-directed partitioning (Asim,
// Timing-First, current M5): "both components must run in essentially
// lock-step order with each other and generally must round-trip communicate
// every simulated cycle" (§5). With the timing model on the FPGA this is the
// HASim shape: every cycle pays the full link round trip plus both sides'
// work, fully serialized.
func LockstepNanos(st tm.Stats, link hostlink.Config) float64 {
	const (
		// The software functional model's work per target cycle (it
		// executes piecewise, when the TM tells it to).
		functionalNanosPerCycle = 50
		// The FPGA timing model's host time per target cycle.
		fpgaNanosPerCycle = 300
	)
	perCycle := link.ReadNanos + link.WriteNanos +
		functionalNanosPerCycle + fpgaNanosPerCycle
	return float64(st.Cycles) * perCycle
}

// FSBCacheNanos prices a replay as the Intel experiment of [30]/§1: the L1
// data cache of the software simulator cost moved into an FPGA on the
// front-side bus. Offloading the dL1 removes its software cost (a fraction
// of per-µop work) but makes every data memory access a blocking round trip,
// and the result is *slower* than cost.Nanos, the unmodified simulator.
func FSBCacheNanos(st tm.Stats, cost SoftwareCost, link hostlink.Config) float64 {
	memAccesses := st.IssuedByClass[isa.ClassLoad] + st.IssuedByClass[isa.ClassStore]
	offloaded := cost.Nanos(st) - float64(memAccesses)*cost.NanosPerUop*0.5
	return offloaded + float64(memAccesses)*(link.ReadNanos+link.WriteNanos)
}

// Replay is the one target run every comparison simulator prices: prog
// executes on a fresh functional model to completion (or maxInst committed
// instructions; 0 = no bound) while a fresh timing model replays its trace,
// pulling it a chunk at a time (stream), and the drained model — Stats,
// BPStats — comes back. A fatal functional-model condition or a cancelled ctx
// is an error.
func Replay(ctx context.Context, prog *isa.Program, tmCfg tm.Config, fmCfg fm.Config, maxInst uint64) (*tm.TM, error) {
	m := fm.New(fmCfg)
	m.LoadProgram(prog)
	s := &stream{ctx: ctx, m: m, maxInst: maxInst, chunk: make([]trace.Entry, 0, streamChunk)}
	model, err := tm.New(tmCfg, s, nil)
	if err != nil {
		return nil, err
	}
	// The stream ends at the first error, so the model always drains.
	model.Run(math.MaxUint64)
	if s.err != nil {
		return nil, s.err
	}
	return model, nil
}

// streamChunk is how far the functional model runs ahead of the timing
// model's fetch in a replay — the coupled core's default trace-buffer
// capacity. It bounds the replay's memory: one chunk of entries and as many
// uncommitted instructions in the rollback journal.
const streamChunk = 512

// stream is a replay's tm.Source: the right-path trace of m, produced a chunk
// at a time as the timing model asks for it and never materialised whole.
// Nothing re-steers a replay, so the timing model's fetch pointer only moves
// forward: a fetch is either inside the current chunk (a mispredict dropped
// the model's view and it re-fetches) or exactly the next instruction m will
// produce — at which point everything before it is released (Commit) and the
// chunk refilled.
type stream struct {
	ctx     context.Context
	m       *fm.Model
	maxInst uint64        // instruction bound; 0 = none
	chunk   []trace.Entry // instructions [base, base+len(chunk))
	base    uint64
	err     error // what ended the stream early
}

// FetchChunk implements tm.Source.
func (s *stream) FetchChunk(in uint64) ([]trace.Entry, tm.FetchStatus) {
	if off := in - s.base; off < uint64(len(s.chunk)) {
		return s.chunk[off:], tm.FetchOK
	}
	if in > 0 {
		s.m.Commit(in - 1)
	}
	s.base, s.chunk = in, s.chunk[:0]
	if s.err == nil {
		s.err = s.refill()
	}
	if len(s.chunk) == 0 {
		return nil, tm.FetchEnd
	}
	return s.chunk, tm.FetchOK
}

// refill runs m until the chunk is full, the instruction bound is reached or
// the target can go no further.
func (s *stream) refill() error {
	if s.maxInst != 0 && s.base >= s.maxInst {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if err := s.m.Run(s.fill); err != nil {
		return fmt.Errorf("baseline: functional model: %w", err)
	}
	return nil
}

// fill is the sink refill runs m into: it stops the run at a full chunk or
// at the instruction bound.
func (s *stream) fill(e *trace.Entry) bool {
	s.chunk = append(s.chunk, *e)
	return len(s.chunk) < cap(s.chunk) && e.IN+1 != s.maxInst
}

// PublishedRow is one published row of Table 3 that comes from a
// proprietary simulator we cannot run (personal communications in the
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
