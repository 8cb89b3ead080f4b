// Package core implements the FAST simulator proper: the speculative
// functional model (internal/fm) coupled to the FPGA-hosted timing model
// (internal/tm) through the trace buffer (internal/trace), over the DRC
// host link (internal/hostlink).
//
// There is one coupled core, Sim: FM + trace buffer + appender + host link +
// host-time accounting, one tm.Source and one tm.Control. Every TM→FM
// message is a command handed to the single apply — a commit releases
// rollback resources (TB.Commit + FM.Commit); a re-steer (mispredict or
// resolve) rewinds the trace, SetPCs the FM, flips wrongPath, marks the
// timeline and charges the poll, the rollback and the replay. What differs
// between the engines is only the scheduling policy — who runs when, and
// therefore who calls apply — chosen once per run:
//
//	engine         policy             apply is called by       a fetch miss
//	fast           inline             Control, directly        returns FetchWait (a bubble)
//	fast-parallel  producer           the FM goroutine, from   blocks until the producer
//	                                  the command channel      publishes or the stream ends
//	fast -cores N  round-robin quanta Control, directly (per   returns FetchWait; converge
//	                                  core, one goroutine)     drains it at the boundary
//
// The policies in turn:
//
//   - Inline (New): a deterministic co-simulation. Each target cycle the FM
//     receives a host-time budget equal to the host time the TM consumed
//     last cycle, produces trace entries (including wrong-path run-ahead)
//     as that budget allows, then the TM executes one cycle (stepCycle).
//     This models the two components running in parallel at their real
//     relative rates — reproducibly.
//
//   - Producer (NewParallel): the same Sim plus an asyncLink. The FM runs
//     free in its own goroutine (produce, parallel.go) and Control posts
//     commands instead of applying them: commits one-way and batched,
//     re-steers as round trips (§3.1). This realizes §3's claim that the
//     speculative FM makes the functional/timing boundary latency-tolerant.
//
//   - Round-robin quanta (NewMulticore): N inline cores over one shared
//     memory, L2 and directory, each advanced a quantum at a time through
//     the same run loop, with converge as the quantum-boundary step.
//
// Four constraints hold the design in place. The hot path is direct: the
// policy is a nil check on Sim.async, never an interface or func value per
// entry or per cycle. A single core is not a 1-core container: Cores <= 1
// keeps the private cache hierarchy and Sim.Snapshot's layout. The producer
// goroutine never reads TM state (onFlush keeps each policy's own timeline
// clock). And the names bench/ builds against keep their signatures.
//
// The performance model (Result) accounts host time the way §4.5 does:
// trace burst writes at the link's per-word cost, blocking poll reads every
// other basic block (or per re-steer, ablation A2), FM instruction
// execution at the modified-QEMU rate, and FPGA host cycles per target
// cycle for the TM. Reported MIPS are target-path MIPS: committed
// instructions plus TM-requested wrong-path instructions, like the paper's
// Figure 4.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/cache"
	"repro/internal/fm"
	"repro/internal/fpga"
	"repro/internal/hostlink"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/tm"
	"repro/internal/trace"
)

// Config assembles a FAST simulator.
type Config struct {
	TM tm.Config
	FM fm.Config

	// TBCapacity bounds functional-model run-ahead (trace buffer entries).
	TBCapacity int

	// TraceChunk is how many trace entries the FM accumulates locally
	// before publishing them to the TB with one synchronized operation
	// (and one modeled link burst — the packed records stream a chunk at
	// a time). 0 selects trace.DefaultChunk; 1 degenerates to per-entry
	// coupling. Architectural results are identical for every value ≥ 1,
	// but the knob moves link.writes (the modeled transfer count) and is
	// the multicore quantum, so sim.Params.Key hashes it.
	TraceChunk int

	// Link is the host CPU↔FPGA channel.
	Link hostlink.Config

	// PollEveryBBs makes the FM poll the FPGA queue every N basic blocks
	// (the prototype's 2, §4). 0 polls only on re-steers — the architected
	// behaviour the prototype had not reached yet (ablation A2/A6).
	PollEveryBBs int

	// BPP enables the FM-side branch-predictor-predictor (§2.1): the FM
	// anticipates target-path divergence, so a Mispredict re-steer needs
	// no rollback work or extra poll read (ablation A3).
	BPP bool

	// MaxInstructions stops the run after this many committed
	// instructions (0 = run to completion).
	MaxInstructions uint64

	// SnapshotHook, when non-nil, arms a one-shot warm-start capture: at
	// the first quiescent boundary at or after the FM's first user-mode
	// instruction (boot complete), the coupled state is serialized and the
	// hook receives the committed instruction count and the blob. Arming
	// it changes no modeled quantity — capture is pure observation.
	SnapshotHook func(in uint64, blob []byte)

	// Telemetry, when non-nil, receives the run's metrics (fm_*, tm_*,
	// hostlink_*, core_* series) and — when it carries a TraceLog — a
	// Chrome trace_event timeline of the FM/TM/link phases: re-steer
	// instants, trace-buffer occupancy samples and per-side host-time
	// spans. Nil telemetry costs a nil check per instrumented event.
	Telemetry *obs.Telemetry
}

// The host-cost model and the safety net every configuration shares. The
// FPGA host clock runs at 100 MHz (fpga.CycleNanos, §4.4).
const (
	// FMNanosPerInst is the functional model's execution cost per
	// instruction: 87 ns for the paper's modified QEMU with tracing and
	// checkpointing (11.5 MIPS, §4.5).
	FMNanosPerInst float64 = 87
	// FMRollbackNanosPerInst is the per-instruction cost of undoing
	// speculative work on a set_pc.
	FMRollbackNanosPerInst float64 = 30
	// MaxCycles bounds target cycles as a safety net.
	MaxCycles uint64 = 2_000_000_000
)

// DefaultConfig returns the prototype configuration of §4.
func DefaultConfig() Config {
	return Config{
		TM: tm.DefaultConfig(),
		FM: fm.Config{
			ICacheEntries: fm.DefaultICacheEntries,
			SuperblockLen: fm.DefaultSuperblockLen,
		},
		TBCapacity:   trace.DefaultCapacity,
		Link:         hostlink.DRC(),
		PollEveryBBs: 2,
	}
}

// Result summarizes one run.
type Result struct {
	Instructions uint64 // committed (right-path) instructions
	WrongPath    uint64 // TM-requested wrong-path instructions produced
	TargetCycles uint64
	IPC          float64

	// Host-time accounting (performance model).
	FMNanos    float64 // FM execution + trace writes + polls + rollbacks
	TMNanos    float64 // FPGA host cycles × cycle time
	SimNanos   float64 // end-to-end simulated wall time
	TargetMIPS float64 // paper's Figure 4 metric

	BPAccuracy     float64
	Mispredicts    uint64
	Rollbacks      uint64
	TraceWords     uint64
	LinkStats      hostlink.Stats
	TM             tm.Stats
	TBMaxOccupancy int

	// The multicore summary, nil and zero on a single Sim: each core's own
	// Result (len(PerCore) is the core count) and the directory counters.
	PerCore   []Result
	Coherence cache.CoherentStats
}

func (r Result) String() string {
	return fmt.Sprintf("inst=%d cycles=%d IPC=%.3f bp=%.2f%% MIPS=%.2f (fm=%.1fms tm=%.1fms)",
		r.Instructions, r.TargetCycles, r.IPC, 100*r.BPAccuracy, r.TargetMIPS,
		r.FMNanos/1e6, r.TMNanos/1e6)
}

// Sim is the coupled FAST simulator: one FM/TM pair around a trace buffer.
// It is the whole simulator under the inline and producer policies and one
// core of a Multicore under round-robin quanta.
type Sim struct {
	cfg Config
	FM  *fm.Model
	TM  *tm.TM
	TB  *trace.Buffer

	// app is the producer side of TB: the FM's entries are written straight
	// into their ring slots and published per chunk. pump flushes it before
	// every TM.Step, so entry visibility at cycle boundaries — and therefore
	// every architectural result — is independent of the chunk size.
	app *trace.Appender

	link *hostlink.Link
	// pendingWords accumulates the trace words of the open chunk; the
	// flush records them as one link burst (each entry's cost still enters
	// the FM budget per entry, keeping the inline host-time arithmetic
	// identical to per-entry coupling).
	pendingWords int
	chunkH       *obs.Histogram

	// Observability: tlog is non-nil only when the run captures a
	// timeline; pid is its trace track.
	tlog *obs.TraceLog
	pid  int

	// FM-side accounting. Under the producer policy these are owned by the
	// FM goroutine (apply and entryCost run there, so no lock is needed);
	// RunContext reads them only after the producer's WaitGroup establishes
	// the happens-before edge.
	fmNanos       float64
	bbSincePoll   int
	wrongPath     bool
	wrongProduced uint64

	// TM-side accounting, owned by the goroutine that steps the TM under
	// every policy. committed counts this core's retirements; total is the
	// whole-target count the instruction cap checks — the core's own under
	// New/NewParallel, the container's shared one in a Multicore.
	budget    float64 // host nanoseconds available to the FM (inline policy)
	lastHost  uint64
	committed uint64
	total     *uint64
	ticks     uint64 // run-loop iterations, for ctxCheckInterval

	// async is the producer policy's TM→FM transport; nil means commands
	// are applied inline by the caller.
	async *asyncLink

	// Warm-start capture: trackUser latches sawUser at the FM's first
	// user-mode instruction. The armed one-shot callback is
	// cfg.SnapshotHook, cleared when it fires (single-core runs own
	// theirs, multicore containers keep it at the container and arm only
	// the tracking on the boot core).
	trackUser bool
	sawUser   bool

	// sink is the bound pumpSink handed to FM.Produce and parkedFn the bound
	// parked handed to TM.FastForward, created once at construction (a fresh
	// method value per call would allocate).
	sink     func(*trace.Entry) bool
	parkedFn func() bool
	// stepOnly keeps the TM from fast-forwarding (tests).
	stepOnly bool

	err error
}

// Trace track ids within a run's process: one per simulator phase.
const (
	tidTM   = 1 // FPGA-hosted timing model
	tidFM   = 2 // speculative functional model
	tidLink = 3 // host CPU↔FPGA channel
)

// New builds a simulator under the inline policy; load a program into s.FM
// before Run.
func New(cfg Config) (*Sim, error) { return newSim(cfg, nil) }

// newSim assembles the coupled core; a non-nil async link selects the
// producer policy. cfg is taken as given: DefaultConfig is where every
// default lives.
func newSim(cfg Config, async *asyncLink) (*Sim, error) {
	cfg.FM.Telemetry = cfg.Telemetry
	coupling := "serial"
	if async != nil {
		coupling = "parallel"
	}
	s := &Sim{
		cfg:       cfg,
		FM:        fm.New(cfg.FM),
		TB:        trace.NewBuffer(cfg.TBCapacity),
		link:      hostlink.New(cfg.Link),
		async:     async,
		trackUser: cfg.SnapshotHook != nil,
	}
	s.total = &s.committed
	s.link.Attach(cfg.Telemetry)
	s.sink, s.parkedFn = s.pumpSink, s.parked
	s.app = s.TB.NewAppender(cfg.TraceChunk)
	s.app.OnFlush = s.onFlush
	s.chunkH = cfg.Telemetry.Histogram(
		obs.L("core_trace_chunk_entries", "coupling", coupling), obs.ChunkBuckets)
	if tlog := cfg.Telemetry.TraceLog(); tlog != nil {
		s.tlog, s.pid = tlog, obs.NextPID()
		tlog.ProcessName(s.pid, "FAST "+coupling+" run")
		tlog.ThreadName(s.pid, tidTM, "TM (timing model)")
		tlog.ThreadName(s.pid, tidFM, "FM (functional model)")
		tlog.ThreadName(s.pid, tidLink, "host link")
	}
	t, err := tm.New(cfg.TM, (*source)(s), (*control)(s))
	if err != nil {
		return nil, err
	}
	s.TM = t
	return s, nil
}

// LoadProgram loads an assembled image into the functional model.
func (s *Sim) LoadProgram(p *isa.Program) { s.FM.LoadProgram(p) }

// pump lets the functional model spend its accumulated host-time budget
// producing trace entries (running ahead speculatively, §3). Entries land
// in their ring slots unpublished; the trailing Flush publishes them so the
// TM.Step that follows sees exactly what per-entry coupling would have shown
// it. The FM runs a superblock at a time (Produce, which degrades to one
// instruction where no block can run); pumpSink re-checks the loop
// predicates after every entry, so the block path stops at exactly the
// instruction per-instruction stepping would.
func (s *Sim) pump() {
	// A halted FM produces nothing: idle time passes at the TM's rate.
	for !s.FM.Terminal() && !s.FM.Halted() && s.room() {
		if s.FM.Produce(s.sink) == 0 {
			break
		}
	}
	s.app.Flush()
}

// room reports whether the inline FM may produce one more entry: the
// budget covers the cost of an instruction and the trace buffer has a free
// slot. pump checks it between instructions and pumpSink inside a
// superblock.
func (s *Sim) room() bool {
	return s.budget >= FMNanosPerInst && s.app.Live() < s.TB.Cap()
}

// pumpSink accounts one produced entry and reports whether the current
// superblock may keep running.
func (s *Sim) pumpSink(e *trace.Entry) bool {
	s.budget -= s.entryCost(e)
	if !s.app.Append(e) {
		panic("core: trace buffer overflow despite occupancy check")
	}
	return s.room()
}

// onFlush observes every published chunk, on whichever goroutine runs the
// FM: the accumulated words of its entries ship as one link burst,
// telemetry sees the chunk size and post-publish TB occupancy, and under
// the producer policy a blocked consumer is woken.
func (s *Sim) onFlush(entries, occupancy int) {
	if s.pendingWords > 0 {
		s.link.BurstWrite(s.pendingWords)
		s.pendingWords = 0
	}
	s.chunkH.Observe(float64(entries))
	if s.tlog != nil {
		// Each policy samples on its own clock. The producer goroutine
		// must not read TM state (a data race), so it stamps FM host time.
		ts := s.fmNanos
		if s.async == nil {
			ts = fpga.Nanos(s.TM.HostCycles())
		}
		s.tlog.CounterSample("tb_occupancy", s.pid, ts,
			map[string]any{"entries": occupancy})
	}
	if s.async != nil {
		s.async.tick()
	}
}

// entryCost charges one produced entry to the FM side — execution, its
// share of the chunk's burst write at the FM's own encoding, the periodic
// poll, and the wrong-path count — and returns the host time it cost. The burst cost is charged
// here, per entry (keeping the host-time arithmetic chunk-size-independent);
// the words accumulate and are recorded against the link when the chunk
// publishes.
func (s *Sim) entryCost(e *trace.Entry) float64 {
	cost := FMNanosPerInst
	words := s.FM.Encoding().Words(e)
	cost += s.link.BurstNanos(words)
	s.pendingWords += words
	if e.Branch {
		s.bbSincePoll++
		if s.cfg.PollEveryBBs > 0 && s.bbSincePoll >= s.cfg.PollEveryBBs {
			s.bbSincePoll = 0
			cost += s.link.Poll(1)
		}
	}
	s.fmNanos += cost
	if s.wrongPath {
		s.wrongProduced++
	}
	return cost
}

// Run executes the coupled simulation to completion (or the configured
// limits) and returns the result.
func (s *Sim) Run() (Result, error) { return s.RunContext(context.Background()) }

// ctxCheckInterval is how many iterations of the run loop pass between
// context-cancellation checks: frequent enough that SIGINT lands within
// microseconds of simulated work, rare enough to cost nothing.
const ctxCheckInterval = 1024

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// the loop stops at the next cycle boundary and returns the partial result
// alongside ctx.Err(). Under the producer policy the FM goroutine lives
// exactly as long as this call: it is shut down through the done channel
// and waited for, so no goroutine is abandoned and its accounting fields
// are safe to read in result.
func (s *Sim) RunContext(ctx context.Context) (Result, error) {
	var wg sync.WaitGroup
	if s.async != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.produce()
		}()
	}
	s.advance(ctx, math.MaxUint64)
	if s.async != nil {
		close(s.async.done)
		wg.Wait()
	}
	return s.result(), s.err
}

// advance is the one run loop: it steps the core until its TM drains or
// reaches target cycle end (a quantum boundary; MaxUint64 for a whole run),
// or until a limit stops it — the whole-target instruction cap, the cycle
// cap, or a cancelled context (the latter two, and a target that died,
// leave s.err set).
func (s *Sim) advance(ctx context.Context, end uint64) {
	for s.TM.Cycle() < end && !s.TM.Done() {
		if s.capped() {
			break
		}
		if s.TM.Cycle() >= MaxCycles {
			s.err = fmt.Errorf("core: exceeded max cycles %d", MaxCycles)
			break
		}
		if s.ticks++; s.ticks%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				s.err = err
				break
			}
		}
		if s.async != nil {
			// The FM side runs itself; a fetch miss blocks inside Step.
			s.TM.Step()
			continue
		}
		if s.TM.RepArmed() && !s.stepOnly {
			if periods, charges := s.TM.FastForward(min(end, MaxCycles), s.parkedFn); periods > 0 {
				s.grantSkipped(periods, charges)
				continue
			}
		}
		s.stepCycle()
		// Deadlock guard: if the FM is terminally halted and the TB is
		// drained, the TM will see FetchEnd and drain itself.
	}
	// A drained TM has committed everything the FM will ever produce, so a
	// fatal FM stop is on the committed path: the target died. That is an
	// error here as it is in the trace-replay baselines, not a short run.
	if s.err == nil && s.TM.Done() && s.FM.Fatal() != nil {
		s.err = fmt.Errorf("core: functional model: %w", s.FM.Fatal())
	}
}

// capped reports whether the whole-target committed-instruction budget is
// exhausted.
func (s *Sim) capped() bool {
	return s.cfg.MaxInstructions > 0 && *s.total >= s.cfg.MaxInstructions
}

// stepCycle advances the inline coupling by one target cycle: the FM is
// granted the host time the TM consumed last cycle, produces trace entries
// as that budget allows, then the TM executes one cycle. Single-core runs
// and the multicore quanta share this body, so a core inside a container
// runs exactly the single-core coupled simulation within its quantum.
func (s *Sim) stepCycle() {
	if s.trackUser {
		s.observeBoot()
	}
	h := s.TM.HostCycles()
	s.budget += fpga.Nanos(h - s.lastHost)
	s.lastHost = h
	if s.FM.Halted() && !s.FM.Terminal() {
		s.FM.AdvanceIdle(1)
	}
	s.pump()
	s.TM.Step()
}

// parked reports whether the inline FM can do nothing until the TM commits:
// it is running (a halted one advances idle time every cycle) and the trace
// buffer is full, so pump produces nothing.
func (s *Sim) parked() bool { return !s.FM.Halted() && s.app.Live() == s.TB.Cap() }

// grantSkipped does for the cycles TM.FastForward skipped what stepCycle
// does for a stepped one: it grants the FM the host time the TM charged the
// cycle before.
func (s *Sim) grantSkipped(periods uint64, charges []uint64) {
	s.budget, s.lastHost = grant(s.budget, s.lastHost, s.TM.HostCycles(), periods, charges)
}

// grant returns the budget and lastHost after periods skipped periods, each
// of whose cycles charged charges host cycles in order, when the TM now
// stands at host cycle host. Stepping adds the grants one cycle at a time
// and the budget is a float, so grant adds their sum at once only where that
// is exact; otherwise it adds them one at a time, in order.
func grant(budget float64, lastHost, host, periods uint64, charges []uint64) (float64, uint64) {
	var sum uint64
	for _, c := range charges {
		sum += c
	}
	last := host - periods*sum - lastHost // the last stepped cycle's charge
	final := charges[len(charges)-1]      // the last skipped cycle's, granted next step
	if b, ok := addExact(budget, last+periods*sum-final); ok {
		return b, host - final
	}
	for range periods {
		for _, c := range charges {
			budget += fpga.Nanos(last)
			last = c
		}
	}
	return budget, host - last
}

// addExact returns budget plus the host time of cycles, and whether that one
// addition equals adding the time of each cycle of them in turn. Every such
// grant is an integer (fpga.CycleNanos is), so it does when budget is an
// integer and every partial sum stays inside ±2^53, where float64 addition
// of integers does not round.
func addExact(budget float64, cycles uint64) (float64, bool) {
	const exact = 1 << 53
	g := fpga.Nanos(cycles)
	sum := budget + g
	return sum, budget == math.Trunc(budget) && budget > -exact && g < exact && sum < exact
}

// converged reports whether the core's shared-memory state is stable: the
// FM is not inside a wrong-path episode and the TM's fetch pointer has
// consumed every produced entry, so any future re-steer targets an IN
// beyond everything already produced and no store in memory can be undone.
// This is the multicore quantum boundary condition.
func (s *Sim) converged() bool {
	return !s.wrongPath && s.TM.NextFetchIN() >= s.app.NextIN()
}

// converge steps the TM — without granting the FM budget to produce new
// entries (new entries would be new unstable state, and the boundary would
// never arrive) — until the core converges or its TM drains. The cycles
// spent here are the modeled cost of quantum synchronization. Past the
// boundary the FM checkpoints, so a later rollback cannot restore memory
// the other cores have seen since.
func (s *Sim) converge() {
	s.app.Flush()
	for !s.TM.Done() && !s.converged() {
		if s.TM.Cycle() >= MaxCycles {
			s.err = fmt.Errorf("core: exceeded max cycles %d during convergence", MaxCycles)
			return
		}
		h := s.TM.HostCycles()
		s.budget += fpga.Nanos(h - s.lastHost)
		s.lastHost = h
		s.TM.Step()
	}
	s.FM.Checkpoint()
}

// result assembles the canonical run summary and publishes it to the
// configured telemetry.
func (s *Sim) result() Result {
	// Drain trace words whose chunk was discarded by a re-steer before it
	// ever published: their burst cost was charged at production time (as
	// in per-entry coupling) and must reach the link totals.
	if s.pendingWords > 0 {
		s.link.BurstWrite(s.pendingWords)
		s.pendingWords = 0
	}
	st := s.TM.Stats
	tmNanos := fpga.Nanos(s.TM.HostCycles())
	r := Result{
		Instructions:   st.Instructions,
		WrongPath:      s.wrongProduced,
		TargetCycles:   st.Cycles,
		IPC:            st.IPC(),
		FMNanos:        s.fmNanos,
		TMNanos:        tmNanos,
		SimNanos:       tmNanos,
		BPAccuracy:     s.TM.BPStats.Accuracy(),
		Mispredicts:    st.Mispredicts,
		Rollbacks:      s.FM.Rollbacks,
		TraceWords:     s.FM.TraceWords,
		LinkStats:      s.link.Stats(),
		TM:             st,
		TBMaxOccupancy: s.TB.MaxOccupancy(),
	}
	if r.SimNanos < r.FMNanos {
		// The FM never finished streaming inside the TM's time: it is the
		// bottleneck (possible with PollEveryBBs and slow links).
		r.SimNanos = r.FMNanos
	}
	if r.SimNanos > 0 {
		r.TargetMIPS = float64(r.Instructions+r.WrongPath) / r.SimNanos * 1e3
	}
	s.publishRun(r)
	return r
}

// publishRun flushes the finished run into the configured telemetry: the
// per-layer metric series and the FM/TM/link phase spans of the timeline.
func (s *Sim) publishRun(r Result) {
	tel := s.cfg.Telemetry
	if tel == nil {
		return
	}
	s.TM.PublishTelemetry(tel)
	s.FM.PublishTelemetry(tel)
	tel.Counter("core_runs_total").Inc()
	tel.Counter("core_wrong_path_instructions_total").Add(r.WrongPath)
	tel.Counter("core_fm_nanos_total").Add(uint64(r.FMNanos))
	tel.Counter("core_tm_nanos_total").Add(uint64(r.TMNanos))
	tel.Counter("core_link_nanos_total").Add(uint64(r.LinkStats.Nanos))
	tel.Gauge("core_tb_max_occupancy").SetMax(int64(r.TBMaxOccupancy))
	if s.tlog != nil {
		// Phase spans: the modeled host time each side consumed, starting
		// at t=0 of the run's process — the §3.1 FM ∥ TM picture rendered
		// literally.
		s.tlog.Complete("phase", "TM: target execution", s.pid, tidTM, 0, r.TMNanos,
			map[string]any{"cycles": r.TargetCycles, "instructions": r.Instructions})
		s.tlog.Complete("phase", "FM: trace production", s.pid, tidFM, 0, r.FMNanos,
			map[string]any{"rollbacks": r.Rollbacks, "wrong_path": r.WrongPath})
		s.tlog.Complete("phase", "link: trace stream + polls", s.pid, tidLink, 0, r.LinkStats.Nanos,
			map[string]any{"reads": r.LinkStats.Reads, "writes": r.LinkStats.Writes,
				"burst_words": r.LinkStats.BurstWords})
	}
}

// source adapts the Sim to the TM's Source interface (TM side).
type source Sim

// FetchChunk implements tm.Source: the TM's view is the buffer's own
// published slots (TB.View), read in place until it drains or a re-steer
// drops it. What a miss does is the policy's: inline it is a fetch bubble
// (pump flushes before every TM.Step, so the live set the view captures is
// exactly what per-entry fetches would have seen); under the producer policy
// it blocks on the link's notify channel (the buffer itself never blocks)
// until the FM goroutine publishes, so host-scheduling hiccups do not
// masquerade as target fetch bubbles.
//
// The stream ends only when the FM is halted forever on the RIGHT path (a
// wrong-path HALT is speculative and the pending resolution will roll it
// back) and the TM — which only fetches when not recovering — wants an
// entry past everything produced. Inline, the TM side reads the FM
// directly; under the producer policy it may not, so the producer publishes
// the condition through the link's terminal flag.
func (src *source) FetchChunk(in uint64) ([]trace.Entry, tm.FetchStatus) {
	s := (*Sim)(src)
	for {
		if v := s.TB.View(in); v != nil {
			return v, tm.FetchOK
		}
		if s.async == nil {
			if in >= s.app.NextIN() && s.FM.Terminal() && !s.wrongPath {
				return nil, tm.FetchEnd
			}
			return nil, tm.FetchWait
		}
		if (s.async.terminal.Load() && in >= s.TB.Produced()) || !s.async.wait() {
			return nil, tm.FetchEnd
		}
	}
}

// control adapts the Sim to the TM's Control interface (TM side): each
// method builds a command and sends it.
type control Sim

// Commit implements tm.Control. The retirement is counted here, on the TM
// side, because the run loop's instruction cap reads the count and apply
// may run on another goroutine.
func (c *control) Commit(in uint64) {
	s := (*Sim)(c)
	s.committed++
	if s.total != &s.committed {
		*s.total++
	}
	s.send(command{kind: cmdCommit, in: in})
}

// Mispredict implements tm.Control: re-steer the FM down the predicted
// (wrong) path.
func (c *control) Mispredict(in uint64, wrongPC isa.Word) {
	(*Sim)(c).send(command{kind: cmdMispredict, in: in, pc: wrongPC})
}

// Resolve implements tm.Control: return the FM to the right path.
func (c *control) Resolve(in uint64, rightPC isa.Word) {
	(*Sim)(c).send(command{kind: cmdResolve, in: in, pc: rightPC})
}

// send hands a command to the policy: applied here and now, or posted to
// the FM goroutine. Either way a commit is one-way and a re-steer returns
// only once the FM has been rewound — a round-trip communication (§3.1),
// which is also what makes it safe for the TM to resume fetching after a
// recovery: the stale wrong-path entries are guaranteed gone.
func (s *Sim) send(c command) {
	if s.async != nil {
		// The chunk size is fixed at construction, so reading it from the
		// TM side is safe.
		s.async.post(c, s.app.ChunkSize())
		return
	}
	s.apply(c)
}

type cmdKind uint8

const (
	cmdCommit cmdKind = iota
	cmdMispredict
	cmdResolve
)

func (k cmdKind) String() string {
	return [...]string{"commit", "mispredict", "resolve"}[k]
}

// command is one TM→FM message.
type command struct {
	kind cmdKind
	in   uint64
	pc   isa.Word
	// ack, set only on a re-steer posted over an asyncLink, is closed by
	// the producer once the command has been applied.
	ack chan struct{}
}

// apply executes one TM→FM command against the FM side. It is the only
// place a commit releases rollback resources and the only place a re-steer
// is performed and charged, under every policy; it runs on whichever
// goroutine owns the FM.
func (s *Sim) apply(c command) {
	if c.kind == cmdCommit {
		s.TB.Commit(c.in)
		s.FM.Commit(c.in)
		return
	}
	rolled, reExec := s.FM.RolledBack, s.FM.ReExecuted()
	s.app.Rewind(c.in)
	if err := s.FM.SetPC(c.in, c.pc); err != nil {
		// The TM only re-steers to an IN it has fetched, which the FM has
		// therefore produced.
		panic(fmt.Sprintf("core: %v re-steer failed: %v", c.kind, err))
	}
	s.wrongPath = c.kind == cmdMispredict
	rolled = s.FM.RolledBack - rolled
	if s.tlog != nil {
		s.tlog.Instant("resteer", c.kind.String(), s.pid, tidFM, s.fmNanos,
			map[string]any{"in": c.in, "rolled_back": rolled})
	}
	if c.kind == cmdMispredict && s.cfg.BPP {
		// The FM anticipated the divergence: no extra read, no undo work.
		return
	}
	s.fmNanos += s.link.Poll(1) // the extra re-steer read (§4.5)
	s.fmNanos += float64(rolled) * FMRollbackNanosPerInst
	// Checkpoint-engine rollbacks really re-execute instructions; charge
	// them at full FM speed (§3.1's αBA).
	s.fmNanos += float64(s.FM.ReExecuted()-reExec) * FMNanosPerInst
}
