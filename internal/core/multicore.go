package core

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/fm"
	"repro/internal/fullsys"
	"repro/internal/isa"
)

// MulticoreConfig shapes an N-core target built from one per-core Config.
type MulticoreConfig struct {
	Cores int
	// InterconnectLatency is the per-hop core↔L2 delay of the shared
	// hierarchy (0 selects cache.DefaultInterconnectLatency).
	InterconnectLatency int
}

// Multicore is the round-robin-quanta policy: N coupled cores over one
// shared physical memory and a modeled shared L2 + directory. It owns what
// is whole-target — the shared hierarchy, the committed-instruction total,
// result aggregation and the snapshot — and runs each core through the
// same run loop as a single Sim (Sim.advance), a bounded quantum at a time
// on a single goroutine. Every quantum ends with a convergence phase
// (Sim.converge) that retires the core's speculative run-ahead, so a core
// only ever observes the *stable* memory state of its peers:
//
//   - Within its quantum a core runs exactly the inline coupled
//     simulation, including wrong-path FM run-ahead into shared memory.
//   - At the quantum boundary the core's TM has consumed every produced
//     entry and no wrong-path episode is in flight, so every store it has
//     made is final — nothing a later re-steer could undo remains visible.
//   - Only then does the next core run. Cross-core visibility therefore
//     happens exclusively at quantum boundaries (bounded lag), and the
//     whole schedule is a deterministic function of the configuration —
//     byte-identical results at any host parallelism, by construction.
type Multicore struct {
	cores     []*Sim
	shared    *cache.Coherent
	sharedMem *fullsys.Memory
	// committed is the whole-target retirement count every core's
	// instruction cap checks (Sim.total points here).
	committed uint64
	// snapHook is the container-owned warm-start capture: it fires at the
	// first round boundary where the boot core has reached user mode and
	// every core is quiescent (state.go).
	snapHook func(in uint64, blob []byte)
	err      error
}

// MulticoreResult is the run summary: the aggregate view plus each core's
// own Result and the directory counters.
type MulticoreResult struct {
	Aggregate Result
	PerCore   []Result
	Coherence cache.CoherentStats
}

// NewMulticore builds an N-core simulator from the per-core configuration:
// one shared physical memory and predecode-coherence domain on the FM side,
// one shared L2 + directory on the TM side, and N inline Sims around them.
func NewMulticore(cfg Config, mc MulticoreConfig) (*Multicore, error) {
	if mc.Cores < 1 || mc.Cores > 64 {
		return nil, fmt.Errorf("core: multicore supports 1..64 cores, got %d", mc.Cores)
	}
	sharedMem := fullsys.NewMemory(cmp.Or(cfg.FM.MemBytes, fm.DefaultMemBytes))
	coh := fm.NewCoherence()
	shared := cache.NewCoherent(cache.CoherentConfig{
		L2:                  cfg.TM.L2,
		MemLatency:          cfg.TM.MemLatency,
		InterconnectLatency: mc.InterconnectLatency,
		Cores:               mc.Cores,
	})
	m := &Multicore{shared: shared, sharedMem: sharedMem, snapHook: cfg.SnapshotHook}
	for i := 0; i < mc.Cores; i++ {
		ci := cfg
		// Capture is a whole-target decision: the container owns the hook
		// and arms only boot-completion tracking on core 0.
		ci.SnapshotHook = nil
		ci.FM.SharedMem = sharedMem
		ci.FM.Coherence = coh
		ci.FM.CoreID = i
		ci.TM.Shared = shared
		ci.TM.CoreID = i
		if i > 0 {
			// Boot devices (disk, NIC) hang off core 0; secondaries get
			// the default per-core console + timer.
			ci.FM.Devices = nil
		}
		s, err := New(ci)
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", i, err)
		}
		if s.tlog != nil {
			s.tlog.ProcessName(s.pid, fmt.Sprintf("FAST core %d", i))
		}
		// The instruction cap is a whole-target budget.
		s.total = &m.committed
		m.cores = append(m.cores, s)
	}
	m.cores[0].trackUser = m.snapHook != nil
	return m, nil
}

// Cores exposes the per-core simulators (core 0 carries the boot devices).
func (m *Multicore) Cores() []*Sim { return m.cores }

// LoadProgram loads the image into the shared memory — once, through core 0
// — and points every core's PC at its entry; the per-CPU boot path
// dispatches on CPUID. The other cores load the image without its bytes,
// which is the rest of what a load does: flush the core's predecode and
// superblock caches and take the entry.
func (m *Multicore) LoadProgram(p *isa.Program) {
	m.cores[0].LoadProgram(p)
	entry := &isa.Program{Base: p.Base, Entry: p.Entry}
	for _, s := range m.cores[1:] {
		s.LoadProgram(entry)
	}
}

// Run executes the multicore simulation to completion or its limits.
func (m *Multicore) Run() (MulticoreResult, error) { return m.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation.
func (m *Multicore) RunContext(ctx context.Context) (MulticoreResult, error) {
	// The bounded-lag quantum is the trace chunk size, so the cross-core
	// skew bound rides the same granule as the FM→TM coupling.
	quantum := uint64(m.cores[0].app.ChunkSize())
	for m.err == nil {
		if m.snapHook != nil {
			m.maybeCapture()
		}
		live := false
		for _, s := range m.cores {
			if s.TM.Done() || s.err != nil {
				continue
			}
			live = true
			s.advance(ctx, s.TM.Cycle()+quantum)
			// Quantum boundary: retire the run-ahead so the next core sees
			// only stable memory.
			s.converge()
			if s.err != nil {
				m.err = s.err
			}
		}
		if !live || m.cores[0].capped() {
			break
		}
	}
	return m.result(), m.err
}

// result aggregates the per-core runs. Host-time semantics: the N
// functional models run on N host cores while the single FPGA hosts all N
// timing models, so the end-to-end wall time is the slowest core's
// SimNanos; FM work is reported summed.
func (m *Multicore) result() MulticoreResult {
	var r MulticoreResult
	var weightedBP float64
	a := &r.Aggregate
	for _, s := range m.cores {
		cr := s.result()
		r.PerCore = append(r.PerCore, cr)
		a.Instructions += cr.Instructions
		a.WrongPath += cr.WrongPath
		a.FMNanos += cr.FMNanos
		a.Mispredicts += cr.Mispredicts
		a.Rollbacks += cr.Rollbacks
		a.TraceWords += cr.TraceWords
		weightedBP += cr.BPAccuracy * float64(cr.Instructions)
		a.LinkStats.Nanos += cr.LinkStats.Nanos
		a.LinkStats.Reads += cr.LinkStats.Reads
		a.LinkStats.Writes += cr.LinkStats.Writes
		a.LinkStats.BurstWords += cr.LinkStats.BurstWords
		if cr.TargetCycles > a.TargetCycles {
			a.TargetCycles = cr.TargetCycles
		}
		if cr.TMNanos > a.TMNanos {
			a.TMNanos = cr.TMNanos
		}
		if cr.SimNanos > a.SimNanos {
			a.SimNanos = cr.SimNanos
		}
		if cr.TBMaxOccupancy > a.TBMaxOccupancy {
			a.TBMaxOccupancy = cr.TBMaxOccupancy
		}
		// The aggregate TM stats keep the whole-target totals the study
		// tables read (cycles stay the max, not the sum).
		a.TM.Instructions += cr.TM.Instructions
		a.TM.UOps += cr.TM.UOps
		a.TM.BasicBlocks += cr.TM.BasicBlocks
		a.TM.Mispredicts += cr.TM.Mispredicts
		if cr.TM.Cycles > a.TM.Cycles {
			a.TM.Cycles = cr.TM.Cycles
		}
	}
	if a.Instructions > 0 {
		a.BPAccuracy = weightedBP / float64(a.Instructions)
	}
	if a.TargetCycles > 0 {
		a.IPC = float64(a.Instructions) / float64(a.TargetCycles)
	}
	if a.SimNanos > 0 {
		a.TargetMIPS = float64(a.Instructions+a.WrongPath) / a.SimNanos * 1e3
	}
	r.Coherence = m.shared.Stats()
	return r
}
