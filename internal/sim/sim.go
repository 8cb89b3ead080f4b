// Package sim is the unified simulator-engine layer. The paper's headline
// results (Figure 4, Table 3) are *comparisons* of simulators — FAST under
// its inline and goroutine-producer policies against the monolithic, lockstep
// and FPGA-cache-on-FSB baselines — so every engine lives behind one
// interface (Engine), is configured by one parameter struct (Params),
// populates one canonical result shape (Result), and is constructed by name
// through one registry. Sweeps over {workloads × engines × parameter
// variants} are declared as a Sweep and executed — sequentially or fanned
// out over a bounded worker pool — by a Fleet (fleet.go).
//
// Adding a simulator is one Register call; adding an experiment is one
// Sweep literal.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fm"
	"repro/internal/hostlink"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PollOnResteer selects the architected polling behaviour for
// Params.PollEveryBBs: the functional model polls the FPGA queue only on
// re-steers instead of every N basic blocks (ablation A2/A6).
const PollOnResteer = -1

// DefaultWorkload is the workload an empty Params.Workload selects.
const DefaultWorkload = "Linux-2.4"

// Off disables Params.ICacheEntries or Params.SuperblockLen (any negative
// value does): zero is taken, as for every other field, so "off" needs a
// value of its own.
const Off = -1

// Params configures any engine. The zero value of every field means "engine
// default"; Resolved is the one place each default is applied.
//
// The JSON tags are a stable serialization schema: internal/service accepts
// a Params overlay on its API boundary (strictly — unknown fields are
// rejected, see DecodeParams) and the omitempty tags make the zero value
// round-trip as `{}`. Program, Telemetry and Snapshots deliberately carry
// `json:"-"`: raw images, live instrumentation and local stores never cross
// the wire. Add fields freely — a tagged field is part of Key and
// SnapshotPrefix the day it lands — but never rename or repurpose a tag.
type Params struct {
	// Workload names a workload from internal/workload ("164.gzip",
	// "nicserv", ...). Empty selects DefaultWorkload unless Program is set.
	Workload string `json:"workload,omitempty"`
	// Program, when non-nil, is a raw assembled image run bare-metal
	// (no toyOS boot, interrupts disabled) instead of a named workload.
	Program *isa.Program `json:"-"`

	// Predictor is the branch predictor ("gshare", "2bit", "97%", "95%",
	// "perfect"); empty = the timing model's default (gshare).
	Predictor string `json:"predictor,omitempty"`
	// IssueWidth is the target issue width; 0 = the prototype's default.
	IssueWidth int `json:"issue_width,omitempty"`
	// Link names the host CPU↔FPGA channel: "drc" (default), "pins",
	// "coherent".
	Link string `json:"link,omitempty"`
	// PollEveryBBs is the FM polling policy: 0 = engine default (every
	// 2 basic blocks, the §4 prototype), N>0 = every N basic blocks,
	// PollOnResteer = only on re-steers.
	PollEveryBBs int `json:"poll_every_bbs,omitempty"`
	// BPP enables the FM-side branch-predictor-predictor (§2.1).
	BPP bool `json:"bpp,omitempty"`
	// MaxInstructions bounds committed instructions (0 = run to
	// completion).
	MaxInstructions uint64 `json:"max_instructions,omitempty"`

	// Cores is the number of coupled FM/TM pairs in the target. 0 or 1 is
	// the single-core target (bit-identical to builds predating the knob);
	// 2..64 instantiates N cores over shared memory and a modeled coherent
	// interconnect. Only the "fast" engine runs multicore targets.
	Cores int `json:"cores,omitempty"`
	// InterconnectLatency is the per-hop core↔L2 interconnect delay of the
	// multicore target, in target cycles; 0 = the default
	// (cache.DefaultInterconnectLatency). Meaningless — and ignored — at
	// Cores <= 1, where no interconnect exists.
	InterconnectLatency int `json:"interconnect_latency,omitempty"`

	// DiskLatency is the modeled disk latency of the boot environment in
	// target time units — command (or, for writes, last streamed word) to
	// completion; 0 = the device default (workload.DiskLatency). The
	// server-workload experiments sweep it. Ignored for bare-metal
	// programs, which boot no devices.
	DiskLatency int `json:"disk_latency,omitempty"`

	// TraceChunk is the FM→TM trace-buffer publish granularity in entries:
	// the FM accumulates a chunk locally and publishes it (one buffer
	// synchronization, one modeled link transfer) when it fills. 0 = the
	// engine default (trace.DefaultChunk); 1 = per-entry coupling; values
	// above the trace-buffer capacity mean the capacity. Architectural
	// results are identical for every value ≥ 1, but the knob moves
	// link.writes (one modeled transfer per chunk) and is the multicore
	// quantum, so it is part of the content address. FAST engines only.
	TraceChunk int `json:"trace_chunk,omitempty"`

	// ICacheEntries sizes the functional model's predecode cache
	// (direct-mapped slots keyed by physical address, rounded up to a
	// power of two): code is decoded and µop-instantiated once and
	// replayed from the cache until a store into its bytes (or a
	// rollback's undo of one) invalidates it; a mapping change needs no
	// invalidation, since the next fetch translates afresh. 0 = the
	// engine default (fm.DefaultICacheEntries),
	// N>0 = N slots, Off (or any negative value) disables the cache.
	// Architected state, the emitted trace and every modeled number are
	// bit-identical at any value — the knob trades host memory for FM
	// speed only.
	ICacheEntries int `json:"icache_entries,omitempty"`

	// SuperblockLen caps the functional model's superblock length:
	// straight-line runs of predecoded instructions, walked in the
	// predecode cache and executed back to back with one
	// rollback/interrupt/device check per block.
	// 0 = the engine default (fm.DefaultSuperblockLen), N>0 = N, Off (or
	// any negative value) disables superblocks; they additionally require
	// the predecode cache and are ignored under Rollback "checkpoint".
	// Like ICacheEntries the knob is bit-invariant: architected state, the
	// emitted trace and every modeled number are identical at any value.
	// FAST engines only.
	SuperblockLen int `json:"superblock_len,omitempty"`

	// Rollback selects how far apart the FM's rollback journal takes its
	// checkpoints (fm.Config.CheckpointInterval): "" or "journal" (a
	// record per instruction, or per superblock: nothing re-executes),
	// "checkpoint" (the paper's leapfrog checkpoints every
	// CheckpointInterval instructions, re-executed forward on rollback:
	// ablation A7). FAST engines only.
	Rollback string `json:"rollback,omitempty"`
	// CheckpointInterval is the instructions-per-checkpoint spacing when
	// Rollback is "checkpoint"; 0 = fm.DefaultCheckpointInterval.
	CheckpointInterval int `json:"checkpoint_interval,omitempty"`
	// UncompressedTrace disables the trace-word compression of §2.2, so
	// every entry ships full-width over the link (ablation A5). FAST
	// engines only.
	UncompressedTrace bool `json:"uncompressed_trace,omitempty"`
	// FutureMicroarch swaps in the scaled-up future target
	// microarchitecture (ablation A8). FAST engines only.
	FutureMicroarch bool `json:"future_microarch,omitempty"`

	// Telemetry, when non-nil, receives the run's metrics and (if it
	// carries a TraceLog) its timeline. Safe to share across concurrent
	// fleet points: metric hot paths are atomic and trace appends are
	// locked.
	Telemetry *obs.Telemetry `json:"-"`

	// Snapshots, when non-nil, is the warm-start tier: the FAST engine
	// resumes from a stored boot snapshot whose SnapshotPrefix matches
	// (skipping the boot instructions) or, on a miss, captures one at the
	// first quiescent boundary after boot completion. Results are
	// bit-identical with the store attached, absent, hitting or missing —
	// the tier trades host time only — so the field never reaches Key.
	// Local infrastructure, like Telemetry: it never crosses the wire.
	Snapshots SnapshotStore `json:"-"`
}

// links are the host CPU↔FPGA channels Params.Link names.
var links = map[string]func() hostlink.Config{
	"drc":      hostlink.DRC,
	"pins":     hostlink.DRCPinRegisters,
	"coherent": hostlink.CoherentHT,
}

// Resolved returns the parameter set p actually configures, and is the only
// place a "zero means default" or dead-knob rule is written: every zero
// field takes its default from the layer that owns it, every knob the
// selected target cannot feel is cleared, and the "off" spellings (Off,
// PollOnResteer) pass through. It is idempotent. Key and SnapshotPrefix
// hash the result and every Configure consumes it, so the content address
// cannot drift from what an engine runs.
func (p Params) Resolved() Params {
	def := core.DefaultConfig()
	p.Workload = cmp.Or(p.Workload, DefaultWorkload)
	p.Predictor = cmp.Or(p.Predictor, def.TM.Predictor)
	p.IssueWidth = cmp.Or(p.IssueWidth, def.TM.IssueWidth)
	p.Link = cmp.Or(p.Link, "drc") // def.Link, by its name in links
	p.PollEveryBBs = cmp.Or(p.PollEveryBBs, def.PollEveryBBs)
	p.Cores = cmp.Or(p.Cores, 1)
	p.InterconnectLatency = cmp.Or(p.InterconnectLatency, cache.DefaultInterconnectLatency)
	p.DiskLatency = cmp.Or(p.DiskLatency, workload.DiskLatency)
	// trace.NewAppender clamps a chunk to the buffer it publishes into.
	p.TraceChunk = min(cmp.Or(p.TraceChunk, trace.DefaultChunk), def.TBCapacity)
	p.ICacheEntries = cmp.Or(p.ICacheEntries, def.FM.ICacheEntries)
	p.SuperblockLen = cmp.Or(p.SuperblockLen, def.FM.SuperblockLen)
	p.Rollback = cmp.Or(p.Rollback, "journal") // fm.Config.CheckpointInterval 0
	p.CheckpointInterval = cmp.Or(p.CheckpointInterval, fm.DefaultCheckpointInterval)
	if p.Program != nil {
		// A raw image replaces the named workload and boots no devices.
		p.Workload, p.DiskLatency = "", 0
	}
	if p.Cores == 1 {
		p.InterconnectLatency = 0 // a single-core target has no interconnect
	}
	if p.Rollback != "checkpoint" {
		p.CheckpointInterval = 0 // the journal has no checkpoints to space
	}
	return p
}

// Validate rejects parameters no engine can honour, without building
// anything. Every Configure runs it, so every engine rejects the same bad
// inputs with the same messages, and API boundaries (internal/service) call
// it to fail a submission before it costs a queue slot.
func (p Params) Validate() error {
	if p.IssueWidth < 0 {
		return fmt.Errorf("sim: negative issue width %d", p.IssueWidth)
	}
	if p.PollEveryBBs < PollOnResteer {
		return fmt.Errorf("sim: poll cadence %d (want N > 0, 0 for the default or PollOnResteer)", p.PollEveryBBs)
	}
	if p.CheckpointInterval < 0 {
		return fmt.Errorf("sim: negative checkpoint interval %d", p.CheckpointInterval)
	}
	if p.TraceChunk < 0 {
		return fmt.Errorf("sim: negative trace chunk %d", p.TraceChunk)
	}
	if p.Cores < 0 || p.Cores > 64 {
		return fmt.Errorf("sim: cores %d out of range (want 0..64)", p.Cores)
	}
	if p.InterconnectLatency < 0 {
		return fmt.Errorf("sim: negative interconnect latency %d", p.InterconnectLatency)
	}
	if p.DiskLatency < 0 {
		return fmt.Errorf("sim: negative disk latency %d", p.DiskLatency)
	}
	p = p.Resolved()
	if p.Rollback != "journal" && p.Rollback != "checkpoint" {
		return fmt.Errorf("sim: unknown rollback %q (want journal, checkpoint)", p.Rollback)
	}
	if !bpred.Known(p.Predictor) {
		return fmt.Errorf("sim: unknown predictor %q", p.Predictor)
	}
	if links[p.Link] == nil {
		return fmt.Errorf("sim: unknown link %q (want drc, pins, coherent)", p.Link)
	}
	if p.Program == nil {
		if _, ok := workload.Lookup(p.Workload, p.Cores); !ok {
			return fmt.Errorf("sim: unknown workload %q", p.Workload)
		}
	}
	return nil
}

// tmConfig assembles the timing-model configuration shared by every engine
// from Resolved parameters.
func (p Params) tmConfig() tm.Config {
	cfg := tm.DefaultConfig().WithIssueWidth(p.IssueWidth)
	cfg.Predictor = p.Predictor
	return cfg
}

// Result is the canonical run summary every engine populates. Engines that
// have no host-partitioned cost model (the baselines) leave the FM/TM
// breakdown and link statistics zero; everything architectural is always
// filled in, which is what makes cross-engine conformance checkable.
//
// The JSON tags are a stable serialization schema: `fastsim -json` emits
// one Result object per run, and downstream tooling may rely on the field
// names. Add fields freely; never rename or repurpose a tag.
type Result struct {
	Engine   string `json:"engine"` // registry name of the engine that produced this
	Workload string `json:"workload"`

	// Architectural counters — identical across engines by construction
	// (every simulator executes the same target).
	Instructions uint64  `json:"instructions"` // committed (right-path) instructions
	BasicBlocks  uint64  `json:"basic_blocks"` // committed control transfers
	TargetCycles uint64  `json:"target_cycles"`
	IPC          float64 `json:"ipc"`

	// Host-time accounting.
	FMNanos    float64 `json:"fm_nanos"`    // functional-model side (FAST engines only)
	TMNanos    float64 `json:"tm_nanos"`    // timing-model side (FAST engines only)
	SimNanos   float64 `json:"sim_nanos"`   // end-to-end simulated wall time
	TargetMIPS float64 `json:"target_mips"` // the paper's Figure 4 metric
	KIPS       float64 `json:"kips"`        // the paper's Table 3 metric

	// Speculation and predictor statistics.
	BPAccuracy  float64 `json:"bp_accuracy"`
	Mispredicts uint64  `json:"mispredicts"`
	WrongPath   uint64  `json:"wrong_path"` // wrong-path instructions produced (FAST engines)
	Rollbacks   uint64  `json:"rollbacks"`
	TraceWords  uint64  `json:"trace_words"`

	LinkStats      hostlink.Stats `json:"link"`
	TM             tm.Stats       `json:"tm"`
	TBMaxOccupancy int            `json:"tb_max_occupancy"`

	// Multicore target summary. All zero (and absent from the JSON) on
	// single-core runs, so single-core output is byte-identical to builds
	// predating the knob. Scalars only: Result must stay a pure value type.
	Cores                  int    `json:"cores,omitempty"`
	CoherenceTransfers     uint64 `json:"coherence_transfers,omitempty"`
	CoherenceInvalidations uint64 `json:"coherence_invalidations,omitempty"`
	CoherenceHops          uint64 `json:"coherence_hops,omitempty"`
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s: inst=%d cycles=%d IPC=%.3f bp=%.2f%% %.2f MIPS (%.0f KIPS)",
		r.Engine, r.Workload, r.Instructions, r.TargetCycles, r.IPC,
		100*r.BPAccuracy, r.TargetMIPS, r.KIPS)
}

// Engine is one simulator behind the registry. Configure validates the
// parameters and builds the underlying simulator (so instrumentation — a
// stats sampler, a power model — can be attached before execution);
// RunContext executes it. An Engine runs once: build a fresh one per run.
type Engine interface {
	// Describe returns a short human-readable description of the engine
	// and its cost model.
	Describe() string
	// Configure validates p and assembles the simulator.
	Configure(p Params) error
	// Run executes the configured simulation to completion (or its
	// instruction cap) and returns the canonical result. Equivalent to
	// RunContext(context.Background()).
	Run() (Result, error)
	// RunContext is Run with cooperative cancellation: when ctx is
	// cancelled the simulation stops at the next cycle boundary and the
	// partial result returns alongside ctx.Err().
	RunContext(ctx context.Context) (Result, error)
}

// Coupled is implemented by engines that expose a live coupled simulator
// for instrumentation: the FAST engines' timing model accepts probes,
// power models and connector reports, and the functional model exposes
// rollback/re-execution counters.
type Coupled interface {
	TimingModel() *tm.TM
	FunctionalModel() *fm.Model
}

// Booted is implemented by engines that boot a full-system workload and
// can hand back its device set (console output, disk, NIC) after the run.
type Booted interface {
	Boot() *workload.Boot
}

// registry maps engine names to constructors. It is populated at init time
// and read-only afterwards, so concurrent Fleet workers need no locking.
var registry = map[string]func() Engine{}

// Register adds an engine constructor under name. Registering a duplicate
// name panics: names are the public contract of the layer.
func Register(name string, ctor func() Engine) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sim: duplicate engine %q", name))
	}
	registry[name] = ctor
}

// Names returns the registered engine names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Registered reports whether name is a registered engine.
func Registered(name string) bool {
	_, ok := registry[name]
	return ok
}

// Describe returns the named engine's description without configuring one:
// a description reads nothing Configure sets, so listings need build nothing.
func Describe(name string) (string, bool) {
	ctor, ok := registry[name]
	if !ok {
		return "", false
	}
	return ctor().Describe(), true
}

// New constructs and configures the named engine.
func New(name string, p Params) (Engine, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown engine %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	e := ctor()
	if err := e.Configure(p); err != nil {
		return nil, fmt.Errorf("engine %s: %w", name, err)
	}
	return e, nil
}

// Run constructs, configures and runs the named engine in one call — the
// path every sweep point takes.
func Run(name string, p Params) (Result, error) {
	return RunContext(context.Background(), name, p)
}

// RunContext is Run with cooperative cancellation. An engine panic — a
// model bug, whatever input reached it — ends this run with an error rather
// than the process, which may be a fleet mid-sweep or a fastd serving other
// jobs.
func RunContext(ctx context.Context, name string, p Params) (r Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r, err = Result{}, fmt.Errorf("engine %s panicked: %v", name, rec)
		}
	}()
	e, err := New(name, p)
	if err != nil {
		return Result{}, err
	}
	r, err = e.RunContext(ctx)
	if err != nil {
		return r, fmt.Errorf("engine %s: %w", name, err)
	}
	return r, nil
}
