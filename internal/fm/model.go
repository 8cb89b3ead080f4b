// Package fm implements FAST's speculative functional model: a full-system
// FISA interpreter that executes the target sequentially, emits the
// functional-path instruction trace, and supports the set_pc roll-back
// operation (§3.2) so the timing model can re-steer it down wrong paths and
// back.
//
// The paper's prototype modified QEMU, implementing set_pc with "periodic
// software checkpoints of architectural state along with memory and I/O
// logging", keeping "at least two checkpoints that leapfrog each other ...
// to ensure that the functional model can rollback to any non-committed
// instruction". We implement the same contract with a per-instruction undo
// journal: each record holds the pre-instruction scalar state plus memory,
// TLB and device undo data, and records are released as the timing model
// commits — functionally identical to leapfrog checkpoints + logs (a
// checkpoint interval of one), and it makes the "rollback to any
// non-committed instruction" invariant directly testable.
//
// The front end has one of each thing. predecode derives one record per
// static instruction (predecoded: the decoded form, its µop instantiation,
// the trace's register names); a predecode-cache slot embeds it, a superblock
// op carries a copy, and the cache-off fetch returns it from a scratch. Step
// and Produce run every instruction through one body (issue) that assembles
// the trace entry in the Model's one scratch entry and finishes it in place;
// Produce and Run hand the sink a pointer to it, and the entry is copied only
// where the API is by value — Step's return and StepBlock's sink call. Run is
// the one loop that drives the target down the right path when no timing
// model is steering it.
package fm

import (
	"fmt"
	"strconv"

	"repro/internal/fullsys"
	"repro/internal/isa"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Scalars is the architectural scalar state: everything except memory, TLB
// and device state.
type Scalars struct {
	GPR   [isa.NumGPR]isa.Word
	FPR   [isa.NumFPR]float64
	Flags isa.Word
	PC    isa.Word
	CR    [isa.NumCR]isa.Word

	// The ll/sc link register: LL records the address and value it loaded,
	// SC succeeds iff the linked word still holds that value. Keeping the
	// link in Scalars (rather than as hidden model state) means rollback
	// restores it exactly, so a re-executed ll/sc sequence reproduces its
	// original outcome and checkpoint replay stays deterministic.
	LLValid bool
	LLAddr  isa.Word
	LLVal   isa.Word
}

// DefaultMemBytes is the target's physical memory size when Config leaves
// MemBytes zero.
const DefaultMemBytes = 16 << 20

// Config parameterizes a functional model instance.
type Config struct {
	// MemBytes is the physical memory size (0 = DefaultMemBytes).
	MemBytes int
	// Devices are attached to the port bus (a default console and timer
	// are created when nil).
	Devices []fullsys.Device
	// RepCap bounds dynamic REP iterations. Wrong-path execution can reach
	// a REP with a garbage count register; the cap keeps wrong-path work
	// bounded without affecting correct-path programs (which stay far
	// below it). 0 means the default of 65536.
	RepCap int
	// ICacheEntries sizes the predecode cache (icache.go): direct-mapped
	// slots keyed by physical address, rounded up to a power of two.
	// 0 disables the cache. Architected state and the emitted trace are
	// bit-identical at any value — the knob trades host memory for FM
	// speed only.
	ICacheEntries int
	// SuperblockLen caps superblock length (superblock.go): straight-line
	// runs of predecoded instructions executed back to back with one
	// rollback/interrupt/device check per block. 0 disables
	// superblocks; they also require the predecode cache (ICacheEntries >
	// 0) and the journal rollback engine — under RollbackCheckpoint,
	// block-granular accounting would move checkpoint placement and hence
	// the modeled re-execution cost, so the knob is ignored there. Like
	// ICacheEntries, architected state and the emitted trace are
	// bit-identical at any value.
	SuperblockLen int
	// Encoding selects the trace compression model for link accounting.
	Encoding trace.EncodeOptions
	// DisableInterrupts prevents autonomous interrupt delivery; used by
	// unit tests that want pure sequential semantics.
	DisableInterrupts bool
	// Rollback selects the rollback engine: the per-instruction undo
	// journal (default) or the paper's leapfrog checkpoints + replay.
	Rollback RollbackMode
	// CheckpointInterval is the instruction distance between leapfrog
	// checkpoints (RollbackCheckpoint only; 0 = DefaultCheckpointInterval).
	CheckpointInterval int
	// Telemetry, when non-nil, receives rollback/re-execution counters and
	// the journal-depth distribution (fm_* series). Nil telemetry costs one
	// nil check per rollback event.
	Telemetry *obs.Telemetry
	// CoreID is this core's index in a multicore target (0 in a single-core
	// one); it is what MOVRC from CRCpuID reads.
	CoreID int
	// SharedMem, when non-nil, is the physical memory shared by all cores of
	// a multicore target; the model attaches to it instead of allocating its
	// own. MemBytes is ignored for sizing when set.
	SharedMem *fullsys.Memory
	// Coherence, when non-nil, fans store notifications out to every
	// attached core's predecode cache so cross-core self-modifying code
	// invalidates remotely cached instructions (coherence.go).
	Coherence *Coherence
}

// Model is the speculative functional model.
type Model struct {
	Scalars
	Mem *fullsys.Memory
	TLB fullsys.TLB
	Bus *fullsys.Bus

	icache *icache  // predecode cache; nil when disabled
	sb     *sbCache // superblock cache; nil when disabled
	// ent is the one scratch trace entry every instruction is assembled in
	// (issue, finishEntry) and Produce's sink is pointed at; it is copied out
	// only where the API is by value: Step's return and StepBlock's sink
	// call. decoded is the cache-off fetch's scratch record.
	ent     trace.Entry
	decoded predecoded
	cfg     Config

	in     uint64 // next instruction number to produce
	halted bool
	idle   uint64 // device-time ticks accumulated while halted
	fatal  error  // unrecoverable condition (unhandled trap)
	replay bool   // inside a checkpoint-engine replay: skip statistics

	engine rollbackEngine
	jeng   *journalEngine // engine when journal mode; nil under checkpoints
	obs    fmInstruments

	// Statistics.
	Coverage   microcode.CoverageStats
	TraceWords uint64 // 32-bit words emitted into the trace
	Rollbacks  uint64 // set_pc invocations
	RolledBack uint64 // instructions undone by set_pc
	Interrupts uint64
	Exceptions uint64
}

// New builds a functional model with the given configuration.
func New(cfg Config) *Model {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = DefaultMemBytes
	}
	if cfg.RepCap == 0 {
		cfg.RepCap = 65536
	}
	if cfg.Encoding == (trace.EncodeOptions{}) {
		cfg.Encoding = trace.DefaultEncoding
	}
	devs := cfg.Devices
	if devs == nil {
		devs = []fullsys.Device{fullsys.NewConsole(), fullsys.NewTimer()}
	}
	mem := cfg.SharedMem
	if mem == nil {
		mem = fullsys.NewMemory(cfg.MemBytes)
	} else {
		cfg.MemBytes = mem.Size()
	}
	m := &Model{
		Mem: mem,
		Bus: fullsys.NewBus(devs...),
		cfg: cfg,
	}
	if cfg.Rollback == RollbackCheckpoint {
		m.engine = newCheckpointEngine(cfg.CheckpointInterval)
	} else {
		m.jeng = &journalEngine{}
		m.engine = m.jeng
	}
	if cfg.ICacheEntries > 0 {
		m.icache = newICache(cfg.ICacheEntries, cfg.MemBytes)
		if cfg.SuperblockLen > 0 && m.jeng != nil {
			m.sb = newSBCache(cfg.SuperblockLen, m.icache)
		}
	}
	cfg.Coherence.attach(m)
	m.obs.attach(cfg.Telemetry, m.series())
	return m
}

// fmInstruments are the functional model's observability handles. Fields
// are nil when telemetry is disabled; every obs method is nil-safe.
type fmInstruments struct {
	rollbacks    *obs.Counter
	rolledBack   *obs.Counter
	reExecuted   *obs.Counter
	journalDepth *obs.Histogram
	rollbackDist *obs.Histogram
}

func (i *fmInstruments) attach(tel *obs.Telemetry, series func(string) string) {
	if tel == nil {
		return
	}
	i.rollbacks = tel.Counter(series("fm_rollbacks_total"))
	i.rolledBack = tel.Counter(series("fm_rolled_back_instructions_total"))
	i.reExecuted = tel.Counter(series("fm_reexecuted_instructions_total"))
	i.journalDepth = tel.Histogram(series("fm_journal_depth"), obs.DepthBuckets)
	// Distance distribution of set_pc re-steers, in instructions undone:
	// how far the speculative run-ahead had gone when the TM pulled it
	// back (0 = pure redirect). The chunked trace coupling discards the
	// same entries from the TB, so this is also the rewind-depth profile.
	i.rollbackDist = tel.Histogram(series("fm_rollback_distance"), obs.ChunkBuckets)
}

// series returns the telemetry series namer for this model: identity on a
// single-core target, a core label on every multicore series.
func (m *Model) series() func(string) string {
	if m.cfg.Coherence == nil {
		return func(name string) string { return name }
	}
	id := strconv.Itoa(m.cfg.CoreID)
	return func(name string) string { return obs.AddLabel(name, "core", id) }
}

// PublishTelemetry flushes the run-total FM statistics that are not worth
// counting incrementally (interrupts, exceptions, trace words) into tel.
// The coupled simulator calls it once when a run finishes.
func (m *Model) PublishTelemetry(tel *obs.Telemetry) {
	if tel == nil {
		return
	}
	series := m.series()
	tel.Counter(series("fm_interrupts_total")).Add(m.Interrupts)
	tel.Counter(series("fm_exceptions_total")).Add(m.Exceptions)
	tel.Counter(series("fm_trace_words_total")).Add(m.TraceWords)
	if c := m.icache; c != nil {
		tel.Counter(series("fm_icache_hits_total")).Add(c.hits)
		tel.Counter(series("fm_icache_misses_total")).Add(c.misses)
		tel.Counter(series("fm_icache_invalidations_total")).Add(c.invalidations)
		tel.Counter(series("fm_icache_flushes_total")).Add(c.flushes)
	}
	if c := m.sb; c != nil {
		tel.Counter(series("fm_superblock_hits_total")).Add(c.hits)
		tel.Counter(series("fm_superblock_misses_total")).Add(c.misses)
		tel.Counter(series("fm_superblock_splits_total")).Add(c.splits)
		tel.Counter(series("fm_superblock_invalidations_total")).Add(c.invalidations)
	}
}

// ICacheStats reports the predecode-cache counters (all zero when the
// cache is disabled): probe hits, probe misses, store-driven page
// invalidations and whole-cache flushes.
func (m *Model) ICacheStats() (hits, misses, invalidations, flushes uint64) {
	if m.icache == nil {
		return 0, 0, 0, 0
	}
	return m.icache.hits, m.icache.misses, m.icache.invalidations, m.icache.flushes
}

// LoadProgram copies the image into physical memory and jumps to its entry.
func (m *Model) LoadProgram(p *isa.Program) {
	m.Mem.Load(p.Base, p.Code)
	m.icache.flush()
	// Page generations survive an icache flush, so block entries would
	// still generation-match stale bytes: drop them outright.
	m.sb.flush()
	m.PC = p.Entry
}

// Encoding returns the resolved trace encoding the model counts
// TraceWords with.
func (m *Model) Encoding() trace.EncodeOptions { return m.cfg.Encoding }

// IN returns the next instruction number the model will produce.
func (m *Model) IN() uint64 { return m.in }

// Halted reports whether the target executed HALT and no interrupt has
// woken it yet.
func (m *Model) Halted() bool { return m.halted }

// Terminal reports whether the target can never execute another
// instruction: it hit a fatal condition, or it halted where nothing can wake
// it. HALT with interrupts masked is the shutdown idiom; a model configured
// with DisableInterrupts (bare metal) delivers none whatever FlagI says.
func (m *Model) Terminal() bool {
	return m.fatal != nil || m.halted && (m.Flags&isa.FlagI == 0 || m.cfg.DisableInterrupts)
}

// Now is the model's device time: retired instructions plus idle ticks.
func (m *Model) Now() uint64 { return m.in + m.idle }

// AdvanceIdle moves device time forward by n ticks while the target is
// halted, then delivers any interrupt that became pending. It reports
// whether the target woke up.
func (m *Model) AdvanceIdle(n uint64) bool {
	if !m.halted {
		return true
	}
	m.engine.noteIdle(m, n)
	m.idle += n
	m.Bus.Tick(m.Now())
	if m.cfg.DisableInterrupts {
		return false
	}
	// HALT waits for an interrupt regardless of FlagI; delivery still
	// requires interrupts enabled (the kernel idles with STI; a CLI+HALT
	// would hang real hardware too, and toyOS never does it).
	if m.Flags&isa.FlagI != 0 && m.Bus.Pending() >= 0 {
		m.halted = false
		return true
	}
	return false
}

// idleLimit is Run's hung-target guard: a target halted with interrupts
// enabled that no device wakes within this many idle ticks is given up on.
const idleLimit = 10_000_000

// Run drives the target down the right path: the one loop every caller that
// runs the FM without a timing model re-steering it needs (trace replay,
// Table 1, fastsim -trace). The target executes a superblock at a time
// (Produce) and, while halted, waits one idle tick at a time — the coupled
// engines' stride — for a device to wake it. Every trace entry goes to sink
// in order, by pointer and valid until the next instruction; sink returning
// false stops the run after that entry, and calling Run again resumes there.
// Run also returns once the target is Terminal or has idled idleLimit ticks
// without waking; a fatal condition is the returned error.
func (m *Model) Run(sink func(*trace.Entry) bool) error {
	more := true
	each := func(e *trace.Entry) bool {
		more = sink(e)
		return more
	}
	for idle := 0; more && !m.Terminal() && idle < idleLimit; {
		if m.Produce(each) > 0 {
			idle = 0
			continue
		}
		m.AdvanceIdle(1)
		idle++
	}
	return m.fatal
}

// Kernel reports whether the target is in kernel mode.
func (m *Model) Kernel() bool { return m.Flags&isa.FlagU == 0 }

// fault carries an exception discovered during execution.
type fault struct {
	vector  uint8
	faultVA isa.Word
	// retry: EPC points at the faulting instruction (TLB miss) rather
	// than past it (syscall/break).
	retry bool
}

func (f *fault) Error() string { return fmt.Sprintf("fault vector %d", f.vector) }

// translate maps a virtual address to physical. In kernel mode, or with
// paging disabled, addresses are physical. wr marks stores (permission
// check).
func (m *Model) translate(va isa.Word, wr bool) (isa.Word, *fault) {
	if m.Kernel() || m.CR[isa.CRPaging] == 0 {
		return va, nil
	}
	vpn := va >> fullsys.PageShift
	e, ok := m.TLB.Lookup(vpn)
	if !ok {
		return 0, &fault{vector: isa.VecTLBMiss, faultVA: va, retry: true}
	}
	if !e.User || wr && !e.Write {
		return 0, &fault{vector: isa.VecProt, faultVA: va, retry: true}
	}
	return e.PFN<<fullsys.PageShift | va&(fullsys.PageSize-1), nil
}

// load reads n bytes of data memory at virtual address va.
func (m *Model) load(va isa.Word, n int) (uint64, isa.Word, *fault) {
	pa, f := m.translate(va, false)
	if f != nil {
		return 0, 0, f
	}
	if !m.Mem.InRange(pa, n) {
		return 0, 0, &fault{vector: isa.VecProt, faultVA: va, retry: true}
	}
	return m.Mem.Read(pa, n), pa, nil
}

// store writes n bytes at va, journaling the old contents.
func (m *Model) store(va isa.Word, v uint64, n int) (isa.Word, *fault) {
	pa, f := m.translate(va, true)
	if f != nil {
		return 0, f
	}
	if !m.Mem.InRange(pa, n) {
		return 0, &fault{vector: isa.VecProt, faultVA: va, retry: true}
	}
	m.journalMem(pa, n)
	m.noteStore(pa, n)
	m.Mem.Write(pa, v, n)
	return pa, nil
}
