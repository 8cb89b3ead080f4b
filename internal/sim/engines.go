package sim

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fm"
	"repro/internal/hostlink"
	"repro/internal/isa"
	"repro/internal/tm"
	"repro/internal/workload"
)

// The five simulator families of the paper's comparison, as registry
// entries. "fast" and "fast-parallel" are the same coupled core (core.Sim)
// under its deterministic inline and goroutine-producer scheduling policies.
// The other four are the same trace replay (replayEngine) under four
// host-time cost functions: "monolithic" and "gems" are the integrated
// software simulator under two calibrated cost models (Table 3's
// sim-outorder and GEMS rows); "lockstep" is the round-trip-per-cycle
// partitioning (§5); "fsbcache" is the Intel
// FPGA-L1-on-the-front-side-bus experiment [30].
func init() {
	Register("fast", func() Engine { return &fastEngine{} })
	Register("fast-parallel", func() Engine { return &fastEngine{parallel: true} })
	software := func(cost baseline.SoftwareCost) func(tm.Stats, hostlink.Config) float64 {
		return func(st tm.Stats, _ hostlink.Config) float64 { return cost.Nanos(st) }
	}
	Register("monolithic", func() Engine {
		return &replayEngine{name: "monolithic", nanos: software(baseline.SimOutorderCost()),
			desc: "integrated software simulator, sim-outorder-class cost model (Table 3)"}
	})
	Register("gems", func() Engine {
		return &replayEngine{name: "gems", nanos: software(baseline.GEMSCost()),
			desc: "integrated full-system software simulator, GEMS-class cost model (Table 3)"}
	})
	Register("lockstep", func() Engine {
		return &replayEngine{name: "lockstep", nanos: baseline.LockstepNanos,
			desc: "lockstep timing-directed partitioning, one link round trip per target cycle (§5)"}
	})
	Register("fsbcache", func() Engine {
		return &fsbEngine{replayEngine: replayEngine{name: "fsbcache",
			nanos: func(st tm.Stats, link hostlink.Config) float64 {
				return baseline.FSBCacheNanos(st, baseline.SimOutorderCost(), link)
			},
			desc: "software simulator with its L1 data cache offloaded to an FPGA on the FSB [30]"}}
	})
}

// prepare builds the shared parts of a Resolved parameter set: the program
// image, the boot environment (nil for raw bare-metal programs) and the FM
// configuration.
func prepare(p Params) (*isa.Program, *workload.Boot, fm.Config, error) {
	// Params spells "off" as a negative value, fm.Config as zero.
	fmCfg := fm.Config{
		ICacheEntries: max(p.ICacheEntries, 0),
		SuperblockLen: max(p.SuperblockLen, 0),
	}
	if p.Program != nil {
		// Bare metal: no toyOS underneath, so nothing can service
		// interrupts.
		fmCfg.DisableInterrupts = true
		return p.Program, nil, fmCfg, nil
	}
	image, err := bootImage(p.Workload, p.Cores)
	if err != nil {
		return nil, nil, fm.Config{}, err
	}
	boot := image.Fork(uint64(p.DiskLatency))
	fmCfg.Devices = boot.Devices()
	return boot.Kernel, boot, fmCfg, nil
}

// images memoises bootImage: imageKey → func() (*workload.Boot, error), one
// entry per (workload, cores) ever asked for, so the registry bounds it.
var images sync.Map

type imageKey struct {
	workload string
	cores    int
}

// bootImage returns the boot of a registered workload at a core count (smp-*
// bake the count into the user program; other workloads park idle
// secondaries in the kernel), assembled once per process. It is only ever
// forked: a job gets devices of its own over it and nothing a job does —
// a disk write, a consumed NIC arrival — reaches the image or another job.
func bootImage(name string, cores int) (*workload.Boot, error) {
	key := imageKey{name, cores}
	build, ok := images.Load(key)
	if !ok {
		spec, ok := workload.Lookup(name, cores)
		if !ok {
			return nil, fmt.Errorf("sim: unknown workload %q", name)
		}
		build, _ = images.LoadOrStore(key, sync.OnceValues(spec.Build))
	}
	return build.(func() (*workload.Boot, error))()
}

// fastEngine runs the FAST simulator proper. The engine name selects the
// scheduling policy (parallel = the producer-goroutine policy); Cores > 1
// wraps the core in an N-core container.
type fastEngine struct {
	parallel bool
	params   Params
	boot     *workload.Boot
	target   target    // the whole simulated target: a Sim or a Multicore
	sim      *core.Sim // the coupled core; core 0 of a Multicore

	resumed   bool   // warm-started from a stored snapshot
	resumedIN uint64 // committed instructions skipped by the warm start
}

// target is what the engine runs and warm-starts: a core.Sim or a
// core.Multicore, whose Result already carries the multicore summary.
type target interface {
	RunContext(ctx context.Context) (core.Result, error)
	Restore(blob []byte) error
}

func (e *fastEngine) Describe() string {
	if e.parallel {
		return "FAST, FM ∥ TM in goroutines coupled by the trace buffer (§3)"
	}
	return "FAST, deterministic rate-matched serial coupling (§3)"
}

func (e *fastEngine) Configure(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	p = p.Resolved()
	prog, boot, fmCfg, err := prepare(p)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.TM = p.tmConfig()
	cfg.FM = fmCfg
	cfg.FM.CheckpointInterval = p.CheckpointInterval // 0 unless Rollback is "checkpoint"
	cfg.Link = links[p.Link]()
	cfg.BPP = p.BPP
	cfg.MaxInstructions = p.MaxInstructions
	cfg.TraceChunk = p.TraceChunk
	cfg.Telemetry = p.Telemetry
	cfg.PollEveryBBs = max(p.PollEveryBBs, 0) // core spells PollOnResteer as 0
	if p.UncompressedTrace {
		cfg.FM.Encoding.Uncompressed = true
	}
	if p.FutureMicroarch {
		cfg.TM = cfg.TM.WithFutureMicroarch()
	}
	e.params, e.boot = p, boot
	if p.Cores > 1 && e.parallel {
		// The round-robin quanta run inline cores (deterministic by
		// construction); multicore under the producer policy does not exist.
		return fmt.Errorf("sim: fast-parallel runs single-core targets only (got %d cores); use the fast engine", p.Cores)
	}

	// Warm-start tier. A stored snapshot whose prefix matches (and whose
	// capture point sits inside this run's instruction budget) seeds the
	// simulator past boot; a miss arms the one-shot capture hook instead.
	// Excluded: fast-parallel (capture rides the inline scheduler) and raw
	// bare-metal programs (no boot to skip).
	var resume *Snapshot
	var capture func(in uint64, blob []byte)
	if p.Snapshots != nil && !e.parallel && p.Program == nil {
		store, prefix := p.Snapshots, p.SnapshotPrefix()
		capture = func(in uint64, blob []byte) {
			store.PutSnapshot(Snapshot{Prefix: prefix, IN: in, Blob: blob})
		}
		got, ok := store.GetSnapshot(prefix)
		switch {
		case ok && (p.MaxInstructions == 0 || got.IN < p.MaxInstructions):
			resume = &got
		case !ok:
			cfg.SnapshotHook = capture
		}
	}

	newCore := core.New
	if e.parallel {
		newCore = core.NewParallel
	}
	build := func() error {
		if p.Cores > 1 {
			m, err := core.NewMulticore(cfg, core.MulticoreConfig{
				Cores:               p.Cores,
				InterconnectLatency: p.InterconnectLatency,
			})
			if err != nil {
				return err
			}
			m.LoadProgram(prog)
			e.target, e.sim = m, m.Cores()[0]
			return nil
		}
		s, err := newCore(cfg)
		if err != nil {
			return err
		}
		s.LoadProgram(prog)
		e.target, e.sim = s, s
		return nil
	}
	if err := build(); err != nil {
		return err
	}
	if resume != nil {
		if err := e.target.Restore(resume.Blob); err != nil {
			// A corrupt stored snapshot must not fail the run: rebuild cold
			// with the capture hook armed, so the bad blob is overwritten.
			cfg.SnapshotHook = capture
			return build()
		}
		e.resumed, e.resumedIN = true, resume.IN
	}
	return nil
}

// ResumedFrom reports whether (and at which committed-instruction count)
// the configured run was warm-started from a stored snapshot.
func (e *fastEngine) ResumedFrom() (uint64, bool) { return e.resumedIN, e.resumed }

func (e *fastEngine) Run() (Result, error) { return e.RunContext(context.Background()) }

func (e *fastEngine) RunContext(ctx context.Context) (Result, error) {
	r, err := e.target.RunContext(ctx)
	return fromCore(e.name(), e.params, r), err
}

func (e *fastEngine) name() string {
	if e.parallel {
		return "fast-parallel"
	}
	return "fast"
}

// TimingModel and FunctionalModel expose the coupled core's pair — core 0's
// on a multicore engine.
func (e *fastEngine) TimingModel() *tm.TM { return e.sim.TM }

func (e *fastEngine) FunctionalModel() *fm.Model { return e.sim.FM }

func (e *fastEngine) Boot() *workload.Boot { return e.boot }

// fromCore lifts a core.Result into the canonical shape, multicore summary
// included.
func fromCore(engine string, p Params, r core.Result) Result {
	return Result{
		Engine:         engine,
		Workload:       workloadName(p),
		Instructions:   r.Instructions,
		BasicBlocks:    r.TM.BasicBlocks,
		TargetCycles:   r.TargetCycles,
		IPC:            r.IPC,
		FMNanos:        r.FMNanos,
		TMNanos:        r.TMNanos,
		SimNanos:       r.SimNanos,
		TargetMIPS:     r.TargetMIPS,
		KIPS:           r.TargetMIPS * 1000,
		BPAccuracy:     r.BPAccuracy,
		Mispredicts:    r.Mispredicts,
		WrongPath:      r.WrongPath,
		Rollbacks:      r.Rollbacks,
		TraceWords:     r.TraceWords,
		LinkStats:      r.LinkStats,
		TM:             r.TM,
		TBMaxOccupancy: r.TBMaxOccupancy,

		Cores:                  len(r.PerCore),
		CoherenceTransfers:     r.Coherence.Transfers,
		CoherenceInvalidations: r.Coherence.Invalidations,
		CoherenceHops:          r.Coherence.Hops,
	}
}

// workloadName labels the target of a Resolved parameter set.
func workloadName(p Params) string {
	if p.Program != nil {
		return "(raw program)"
	}
	return p.Workload
}

// replayEngine is every comparison simulator of the paper: each runs the
// one baseline.Replay of the target and differs only in nanos, the host-time
// cost function that prices the drained timing model's statistics (the
// monolithic engines ignore the link). None models a multicore target.
type replayEngine struct {
	name, desc string
	nanos      func(tm.Stats, hostlink.Config) float64

	params Params
	boot   *workload.Boot
	prog   *isa.Program
	fm     fm.Config
	link   hostlink.Config
}

func (e *replayEngine) Describe() string { return e.desc }

func (e *replayEngine) Configure(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Cores > 1 {
		return fmt.Errorf("sim: engine %s runs single-core targets only (got %d cores); use the fast engine", e.name, p.Cores)
	}
	p = p.Resolved()
	e.params, e.link = p, links[p.Link]()
	var err error
	e.prog, e.boot, e.fm, err = prepare(p)
	return err
}

// replay runs the configured target once and returns the drained model.
func (e *replayEngine) replay(ctx context.Context) (*tm.TM, error) {
	return baseline.Replay(ctx, e.prog, e.params.tmConfig(), e.fm, e.params.MaxInstructions)
}

func (e *replayEngine) Run() (Result, error) { return e.RunContext(context.Background()) }

func (e *replayEngine) RunContext(ctx context.Context) (Result, error) {
	model, err := e.replay(ctx)
	if err != nil {
		return Result{}, err
	}
	return e.result(e.name, model, e.nanos(model.Stats, e.link)), nil
}

// result lifts a drained replay priced at nanos of host time into the
// canonical shape.
func (e *replayEngine) result(engine string, model *tm.TM, nanos float64) Result {
	st := model.Stats
	r := Result{
		Engine:       engine,
		Workload:     workloadName(e.params),
		Instructions: st.Instructions,
		BasicBlocks:  st.BasicBlocks,
		TargetCycles: st.Cycles,
		IPC:          st.IPC(),
		SimNanos:     nanos,
		BPAccuracy:   model.BPStats.Accuracy(),
		Mispredicts:  st.Mispredicts,
		TM:           st,
	}
	if nanos > 0 {
		r.KIPS = float64(st.Instructions) / nanos * 1e6
	}
	r.TargetMIPS = r.KIPS / 1000
	return r
}

func (e *replayEngine) Boot() *workload.Boot { return e.boot }

// fsbEngine is the Intel FPGA-L1-cache-on-the-front-side-bus experiment:
// the result is the FPGA-assisted simulator; the same drained replay priced
// as the pure-software simulator it must be compared against is kept for
// Software().
type fsbEngine struct {
	replayEngine
	software Result
}

func (e *fsbEngine) Run() (Result, error) { return e.RunContext(context.Background()) }

func (e *fsbEngine) RunContext(ctx context.Context) (Result, error) {
	model, err := e.replay(ctx)
	if err != nil {
		return Result{}, err
	}
	e.software = e.result("fsbcache(software)", model, baseline.SimOutorderCost().Nanos(model.Stats))
	return e.result(e.name, model, e.nanos(model.Stats, e.link)), nil
}

// Software returns the unmodified pure-software result of the same run —
// the comparison point that shows the FSB cache makes things *slower*.
func (e *fsbEngine) Software() Result { return e.software }

// SoftwareComparison re-exposes the fsbcache engine's second result via the
// Engine interface: fastsim prints both sides of the experiment.
type SoftwareComparison interface{ Software() Result }
