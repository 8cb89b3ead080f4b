package tm

// refTM is the pointer-based timing model this package shipped until the
// in-flight storage moved into fixed rings (ISSUE 23): one heap object per
// µop and per instruction, a map rename table, slices re-sliced from the
// front, every rep iteration cracked up front, the slice-shifting connector.
// It is kept verbatim, test-only, as the oracle TestTMAgreement and
// FuzzTMAgreement step the ring model against cycle for cycle. Do not
// "fix" or tidy it: its quirks (the dead dispatched flag, the zero-MReg
// fetch-fault placeholder) are what the goldens pin.

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/fullsys"
	"repro/internal/isa"
	"repro/internal/microcode"
	"repro/internal/trace"
)

// refConnector is the paper's inter-module coupling primitive [10]: a FIFO
// "that enforce[s] timing and throughput constraints. Connectors can be
// configured for input throughput, output throughput, minimum latency and
// maximum transactions", and gathers statistics. Reconfiguring Connector
// parameters is how a single-issue target becomes multi-issue (§4).
type refConnector[T any] struct {
	name string
	cfg  ConnectorConfig

	items []refConnItem[T]

	// Per-cycle throughput bookkeeping.
	putCycle uint64
	putsThis int
	getCycle uint64
	getsThis int

	stats ConnectorStats
}

type refConnItem[T any] struct {
	v     T
	ready uint64 // first cycle the item may be taken
}

// newRefConnector builds a connector.
func newRefConnector[T any](name string, cfg ConnectorConfig) *refConnector[T] {
	if cfg.InputThroughput < 1 || cfg.OutputThroughput < 1 || cfg.MaxTransactions < 1 {
		panic(fmt.Sprintf("tm: connector %s: bad config %+v", name, cfg))
	}
	return &refConnector[T]{name: name, cfg: cfg}
}

// Name returns the connector's instance name.
func (c *refConnector[T]) Name() string { return c.name }

// Config returns the connector's parameters.
func (c *refConnector[T]) Config() ConnectorConfig { return c.cfg }

// Stats returns accumulated statistics.
func (c *refConnector[T]) Stats() ConnectorStats { return c.stats }

// Len returns current occupancy.
func (c *refConnector[T]) Len() int { return len(c.items) }

// CanPut reports whether a Put at cycle would succeed.
func (c *refConnector[T]) CanPut(cycle uint64) bool {
	if len(c.items) >= c.cfg.MaxTransactions {
		return false
	}
	return cycle != c.putCycle || c.putsThis < c.cfg.InputThroughput
}

// Put inserts v at cycle, honoring capacity and input throughput.
func (c *refConnector[T]) Put(cycle uint64, v T) bool {
	if cycle != c.putCycle {
		c.putCycle, c.putsThis = cycle, 0
	}
	if len(c.items) >= c.cfg.MaxTransactions || c.putsThis >= c.cfg.InputThroughput {
		c.stats.PutStalls++
		return false
	}
	c.putsThis++
	c.stats.Puts++
	c.stats.OccupancySum += uint64(len(c.items))
	c.items = append(c.items, refConnItem[T]{v: v, ready: cycle + c.cfg.MinLatency})
	return true
}

// Peek returns the head item if one is gettable at cycle.
func (c *refConnector[T]) Peek(cycle uint64) (T, bool) {
	var zero T
	if len(c.items) == 0 || c.items[0].ready > cycle {
		return zero, false
	}
	if cycle == c.getCycle && c.getsThis >= c.cfg.OutputThroughput {
		return zero, false
	}
	return c.items[0].v, true
}

// Get removes and returns the head item, honoring latency and output
// throughput.
func (c *refConnector[T]) Get(cycle uint64) (T, bool) {
	var zero T
	if cycle != c.getCycle {
		c.getCycle, c.getsThis = cycle, 0
	}
	if len(c.items) == 0 || c.items[0].ready > cycle || c.getsThis >= c.cfg.OutputThroughput {
		c.stats.GetStalls++
		return zero, false
	}
	v := c.items[0].v
	copy(c.items, c.items[1:])
	c.items = c.items[:len(c.items)-1]
	c.getsThis++
	c.stats.Gets++
	return v, true
}

// Flush discards all in-flight items (pipeline flush on recovery).
func (c *refConnector[T]) Flush() { c.items = c.items[:0] }

// instr is one in-flight instruction.
type refInstr struct {
	e            trace.Entry
	mispredicted bool
	serialize    bool // exception/interrupt: fetch stalls until it commits
}

// uop is one in-flight micro-operation.
type refUop struct {
	ins      *refInstr
	last     bool
	kind     microcode.UKind
	class    isa.Class
	dst      microcode.MReg
	srcA     microcode.MReg
	srcB     microcode.MReg
	readsCC  bool
	writesCC bool
	deps     [3]*refUop

	dispatched bool
	issued     bool
	done       bool
	doneCycle  uint64
	isMem      bool
}

// refTM is the cycle-accurate timing model.
type refTM struct {
	cfg Config
	src Source
	ctl Control

	// Chunked consumption: fetch reads from view (a run of entries starting
	// at IN viewBase) and refills it with one FetchChunk per chunk. A
	// re-steer invalidates the view: the entries past the re-steered IN are
	// wrong-path and will be overwritten (Figure 2).
	view     []trace.Entry
	viewBase uint64

	BP      bpred.Predictor
	BPStats bpred.Stats
	IL1     *cache.Cache
	DL1     *cache.Cache
	L2      *cache.Cache
	Memory  *cache.FixedMemory
	ITLB    *cache.TLBTiming
	DTLB    *cache.TLBTiming

	cycle   uint64
	fetchIN uint64
	ended   bool

	// Front-end connectors: Fetch→Decode and Decode→Rename. Their
	// MinLatency values realize the front-end pipeline depth.
	fetchQ *refConnector[*refInstr]
	uopQ   *refConnector[*refUop]

	decodeBuf []*refUop // µops of the instruction currently being decoded

	rob       []*refUop
	rsCount   int
	lsqCount  int
	regWriter map[microcode.MReg]*refUop
	ccWriter  *refUop

	lsuFreeAt []uint64

	pendingBranches []*refUop
	pendingMisses   []*refUop // outstanding non-blocking cache misses (MSHRs)

	// Recovery state: a mispredicted branch or serializing instruction is
	// in flight; fetch resumes FrontEndDepth cycles after it commits.
	recovering       bool
	recoverIN        uint64
	refillUntil      uint64
	icacheStallUntil uint64

	unresolved int // in-flight predicted branches (nested-branch limit)

	// ras is the front end's return-address stack: calls push their
	// fall-through PC, returns predict from the top. Without it every
	// subroutine returning to more than one site mispredicts its target.
	ras    [8]isa.Word
	rasTop int

	Stats Stats
	host  hostModel

	// Probe, when set, observes every target cycle (cycle number, µops
	// issued that cycle). It models dedicated statistics hardware: it
	// sees everything and costs the simulation nothing (§3, §4.6).
	Probe func(cycle uint64, issued int)
}

// New builds a timing model over the given trace source and control
// channel.
func newRefTM(cfg Config, src Source, ctl Control) (*refTM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bp, err := bpred.New(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	if ctl == nil {
		ctl = NopControl{}
	}
	var (
		mem  *cache.FixedMemory
		l2   *cache.Cache
		next cache.Level
	)
	if cfg.Shared != nil {
		mem, l2 = cfg.Shared.Memory(), cfg.Shared.L2()
		next = cfg.Shared.Port(cfg.CoreID)
	} else {
		mem = cache.NewFixedMemory(cfg.MemLatency)
		l2 = cache.New(cfg.L2, mem)
		next = l2
	}
	t := &refTM{
		cfg:       cfg,
		src:       src,
		ctl:       ctl,
		BP:        bp,
		IL1:       cache.New(cfg.L1I, next),
		DL1:       cache.New(cfg.L1D, next),
		L2:        l2,
		Memory:    mem,
		ITLB:      cache.NewTLBTiming(cfg.ITLBEntries),
		DTLB:      cache.NewTLBTiming(cfg.DTLBEntries),
		regWriter: make(map[microcode.MReg]*refUop),
		lsuFreeAt: make([]uint64, cfg.LoadStoreUnits),
		fetchQ: newRefConnector[*refInstr]("fetch→decode", ConnectorConfig{
			InputThroughput:  cfg.IssueWidth,
			OutputThroughput: cfg.IssueWidth,
			MinLatency:       uint64(cfg.FrontEndDepth) / 2,
			MaxTransactions:  4 * cfg.IssueWidth,
		}),
		uopQ: newRefConnector[*refUop]("decode→rename", ConnectorConfig{
			InputThroughput:  cfg.IssueWidth,
			OutputThroughput: cfg.IssueWidth,
			MinLatency:       uint64((cfg.FrontEndDepth + 1) / 2),
			MaxTransactions:  4 * cfg.IssueWidth,
		}),
	}
	if cfg.Shared != nil {
		// Register the private caches with the directory so remote write
		// transitions back-invalidate this core's copies.
		cfg.Shared.AttachL1(cfg.CoreID, t.IL1, t.DL1)
	}
	t.host.init(cfg)
	return t, nil
}

// fetchEntry returns the entry for in, serving from the chunk view. On a
// view miss it pulls the next run of live entries with one synchronized
// call; consecutive fetch-group slots then hit the view for free.
func (t *refTM) fetchEntry(in uint64) (trace.Entry, FetchStatus) {
	if off := in - t.viewBase; in >= t.viewBase && off < uint64(len(t.view)) {
		return t.view[off], FetchOK
	}
	es, st := t.src.FetchChunk(in)
	if st != FetchOK {
		return trace.Entry{}, st
	}
	t.view, t.viewBase = es, in
	return es[0], FetchOK
}

// dropView discards the chunk view. Called when the TM re-steers the FM:
// entries past the re-steered IN are about to be overwritten, so any cached
// copies are stale.
func (t *refTM) dropView() { t.view = nil }

// Config returns the target configuration.
func (t *refTM) Config() Config { return t.cfg }

// Cycle returns the current target cycle.
func (t *refTM) Cycle() uint64 { return t.cycle }

// HostCycles returns the host (FPGA) cycles consumed so far.
func (t *refTM) HostCycles() uint64 { return t.host.total }

// NextFetchIN returns the next instruction number fetch will request.
func (t *refTM) NextFetchIN() uint64 { return t.fetchIN }

// Done reports whether the stream ended and the pipeline fully drained.
func (t *refTM) Done() bool {
	return t.ended && len(t.rob) == 0 && t.fetchQ.Len() == 0 && t.uopQ.Len() == 0 && len(t.decodeBuf) == 0
}

// Run advances the model until Done or maxCycles elapses; it returns the
// number of cycles executed.
func (t *refTM) Run(maxCycles uint64) uint64 {
	start := t.cycle
	for !t.Done() && t.cycle-start < maxCycles {
		t.Step()
	}
	return t.cycle - start
}

// Step evaluates one target cycle: commit → resolve → issue → dispatch →
// decode → fetch (reverse pipeline order, so a value produced this cycle is
// consumed next cycle).
func (t *refTM) Step() {
	w := workCounts{}
	t.commit()
	t.resolveBranches()
	t.issue(&w)
	t.dispatch()
	t.decode(&w)
	t.fetch(&w)
	t.host.account(w)
	if t.Probe != nil {
		t.Probe(t.cycle, w.issued)
	}
	t.Stats.Cycles++
	t.cycle++
}

// commit retires completed µops in order, up to IssueWidth per cycle.
func (t *refTM) commit() {
	n := 0
	for n < t.cfg.IssueWidth && len(t.rob) > 0 {
		u := t.rob[0]
		if !u.done || u.doneCycle > t.cycle {
			break
		}
		t.rob = t.rob[1:]
		if u.isMem {
			t.lsqCount--
		}
		n++
		t.Stats.UOps++
		if u.last {
			t.Stats.Instructions++
			e := u.ins.e
			if e.Branch {
				t.Stats.BasicBlocks++
			}
			t.ctl.Commit(e.IN)
			if t.recovering && t.recoverIN == e.IN {
				// The mispredicted/serializing instruction has committed:
				// the pipeline has flushed through the ROB (§4.1) and the
				// front end refills.
				t.recovering = false
				t.refillUntil = t.cycle + uint64(t.cfg.FrontEndDepth)
			}
		}
	}
}

// resolveBranches processes branch µops whose execution completed: train
// the predictor and, on a misprediction, re-steer the FM to the right path.
func (t *refTM) resolveBranches() {
	keep := t.pendingBranches[:0]
	for _, u := range t.pendingBranches {
		if !u.done || u.doneCycle > t.cycle {
			keep = append(keep, u)
			continue
		}
		e := u.ins.e
		t.BP.Update(e.PC, e.Taken, e.NextPC)
		t.unresolved--
		if u.ins.mispredicted {
			t.dropView()
			t.ctl.Resolve(e.IN+1, e.NextPC)
			if t.cfg.FastRecovery && t.recovering && t.recoverIN == e.IN {
				// §4.1 fix: resume fetch at resolution instead of waiting
				// for the branch to flush through the ROB.
				t.recovering = false
				t.refillUntil = t.cycle + uint64(t.cfg.FrontEndDepth)
			}
		}
	}
	t.pendingBranches = keep
	// Retire completed misses from the MSHRs.
	misses := t.pendingMisses[:0]
	for _, u := range t.pendingMisses {
		if !u.done || u.doneCycle > t.cycle {
			misses = append(misses, u)
		}
	}
	t.pendingMisses = misses
}

// latency returns the execution latency of a non-memory µop.
func (t *refTM) latency(u *refUop) uint64 {
	switch u.class {
	case isa.ClassBranch:
		return uint64(t.cfg.BranchLatency)
	case isa.ClassFPU:
		return uint64(t.cfg.FPULatency)
	default:
		return uint64(t.cfg.ALULatency)
	}
}

// depsReady reports whether all of u's producers have completed.
func refDepsReady(u *refUop, cycle uint64) bool {
	for _, d := range u.deps {
		if d != nil && (!d.done || d.doneCycle > cycle) {
			return false
		}
	}
	return true
}

// issue selects ready µops oldest-first and sends them to functional units.
func (t *refTM) issue(w *workCounts) {
	aluLeft := t.cfg.ALUs
	bruLeft := t.cfg.BranchUnits
	fpuLeft := t.cfg.FPUs
	memIssued := false
	for _, u := range t.rob {
		if !u.dispatched || u.issued {
			if u.isMem && !u.issued && u.dispatched {
				// In-order memory issue (blocking caches): a younger
				// memory µop cannot bypass this one.
				memIssued = true
			}
			continue
		}
		if u.isMem {
			if memIssued {
				continue
			}
			memIssued = true // whether or not it issues, younger mem µops wait
			if !refDepsReady(u, t.cycle) {
				continue
			}
			lsu := -1
			for i, freeAt := range t.lsuFreeAt {
				if freeAt <= t.cycle {
					lsu = i
					break
				}
			}
			if lsu < 0 {
				continue
			}
			if t.cfg.MSHRs > 0 && len(t.pendingMisses) >= t.cfg.MSHRs {
				continue // all miss-status registers busy
			}
			lat := t.memLatency(u)
			if t.cfg.MSHRs > 0 {
				// Non-blocking cache (§4.1 fix): the LSU frees after the
				// issue cycle; the miss rides an MSHR.
				t.lsuFreeAt[lsu] = t.cycle + 1
				if lat > uint64(t.cfg.L1D.HitLatency)+1 {
					t.pendingMisses = append(t.pendingMisses, u)
				}
			} else {
				t.lsuFreeAt[lsu] = t.cycle + lat // blocking LSU
			}
			t.issueUop(u, lat, w)
			continue
		}
		if !refDepsReady(u, t.cycle) {
			continue
		}
		switch u.class {
		case isa.ClassBranch:
			if bruLeft == 0 {
				continue
			}
			bruLeft--
		case isa.ClassFPU:
			if fpuLeft == 0 {
				continue
			}
			fpuLeft--
		default:
			if aluLeft == 0 {
				continue
			}
			aluLeft--
		}
		t.issueUop(u, t.latency(u), w)
	}
}

func (t *refTM) issueUop(u *refUop, lat uint64, w *workCounts) {
	u.issued = true
	u.done = true
	u.doneCycle = t.cycle + lat
	t.rsCount--
	t.Stats.IssuedByClass[u.class]++
	w.issued++
	if u.isMem {
		w.memIssued = true
	}
	if u.kind == microcode.UBr {
		t.pendingBranches = append(t.pendingBranches, u)
	}
}

// memLatency models the data-side access: dTLB, then the blocking dL1/L2/
// memory hierarchy.
func (t *refTM) memLatency(u *refUop) uint64 {
	e := u.ins.e
	lat := uint64(1) // address to the LSU
	if e.MemSize != 0 {
		if !e.Kernel && !t.DTLB.Access(e.MemVA>>fullsys.PageShift) {
			lat += uint64(t.cfg.TLBMissPenalty)
		}
		store := u.kind == microcode.UStore
		lat += uint64(t.DL1.Access(e.MemPA, store))
		if store && t.cfg.Shared != nil {
			// Stores consult the directory even on an L1 write hit: the
			// ownership upgrade a private write-back cache would hide.
			lat += uint64(t.cfg.Shared.Upgrade(t.cfg.CoreID, e.MemPA))
		}
	} else if u.kind == microcode.UStore {
		lat += uint64(t.cfg.StoreLatency)
	}
	return lat
}

// dispatch renames µops into the ROB/RS/LSQ, up to IssueWidth per cycle.
func (t *refTM) dispatch() {
	for n := 0; n < t.cfg.IssueWidth; n++ {
		u, ok := t.uopQ.Peek(t.cycle)
		if !ok {
			return
		}
		if len(t.rob) >= t.cfg.ROBEntries {
			t.Stats.ROBFullStalls++
			return
		}
		if t.rsCount >= t.cfg.RSEntries {
			t.Stats.RSFullStalls++
			return
		}
		if u.isMem && t.lsqCount >= t.cfg.LSQEntries {
			t.Stats.LSQFullStalls++
			return
		}
		t.uopQ.Get(t.cycle)
		u.dispatched = true
		t.rob = append(t.rob, u)
		t.rsCount++
		if u.isMem {
			t.lsqCount++
		}
	}
}

// decode cracks fetched instructions into µops via the microcode table and
// feeds the rename queue; bandwidth is IssueWidth µops per cycle.
func (t *refTM) decode(w *workCounts) {
	for n := 0; n < t.cfg.IssueWidth; n++ {
		if len(t.decodeBuf) == 0 {
			ins, ok := t.fetchQ.Get(t.cycle)
			if !ok {
				return
			}
			t.decodeBuf = t.expand(ins)
		}
		u := t.decodeBuf[0]
		if !t.uopQ.Put(t.cycle, u) {
			return
		}
		t.renameDeps(u)
		t.decodeBuf = t.decodeBuf[1:]
		w.decoded++
	}
}

// expand cracks one instruction into its dynamic µop sequence (REP
// iterations repeated) from the trace entry's instantiated microcode.
func (t *refTM) expand(ins *refInstr) []*refUop {
	tmpl := ins.e.UOps
	iters := 1
	if ins.e.RepIterations > 1 {
		iters = int(ins.e.RepIterations)
	}
	out := make([]*refUop, 0, len(tmpl)*iters)
	for it := 0; it < iters; it++ {
		for _, mu := range tmpl {
			u := &refUop{
				ins:   ins,
				kind:  mu.Kind,
				class: mu.Kind.Class(),
				dst:   mu.Dst,
			}
			u.isMem = mu.Kind == microcode.ULoad || mu.Kind == microcode.UStore
			u.srcsFrom(mu)
			out = append(out, u)
		}
	}
	if len(out) == 0 {
		out = append(out, &refUop{ins: ins, kind: microcode.UNop, class: isa.ClassALU})
	}
	out[len(out)-1].last = true
	return out
}

// srcsFrom records the µop's source register names for rename.
func (u *refUop) srcsFrom(mu microcode.UOp) {
	u.srcA, u.srcB = mu.A, mu.B
	u.readsCC = mu.Kind == microcode.UBr && u.ins.e.ReadsCC
	u.writesCC = mu.WritesCC
}

// renameDeps links the µop to its producers through the register writer
// table (data dependencies only — names, not values: §2's orthogonality).
func (t *refTM) renameDeps(u *refUop) {
	look := func(r microcode.MReg) *refUop {
		if r == microcode.MRegNone {
			return nil
		}
		return t.regWriter[r]
	}
	u.deps[0] = look(u.srcA)
	u.deps[1] = look(u.srcB)
	if u.readsCC {
		u.deps[2] = t.ccWriter
	}
	if u.dst != microcode.MRegNone {
		t.regWriter[u.dst] = u
	}
	if u.writesCC {
		t.ccWriter = u
	}
}

// fetch brings instructions from the trace source into the pipeline,
// modeling the iTLB, the iL1, branch prediction and the nested-branch
// limit.
func (t *refTM) fetch(w *workCounts) {
	if t.recovering {
		t.Stats.DrainCycles++
		return
	}
	if t.cycle < t.refillUntil {
		t.Stats.DrainCycles++
		return
	}
	if t.cycle < t.icacheStallUntil {
		t.Stats.ICacheStalls++
		return
	}
	if t.ended {
		return
	}
	var lastLine isa.Word
	haveLine := false
	for n := 0; n < t.cfg.IssueWidth; n++ {
		if t.unresolved >= t.cfg.MaxNestedBranches {
			return
		}
		if !t.fetchQ.CanPut(t.cycle) {
			return
		}
		e, st := t.fetchEntry(t.fetchIN)
		switch st {
		case FetchWait:
			if n == 0 {
				t.Stats.FetchBubbles++
			}
			return
		case FetchEnd:
			t.ended = true
			return
		}
		// iTLB.
		if !e.Kernel && !t.ITLB.Access(e.PC>>fullsys.PageShift) {
			t.icacheStallUntil = t.cycle + uint64(t.cfg.TLBMissPenalty)
		}
		// One iL1 line per cycle: a second line ends the fetch group.
		line := e.PPC / isa.Word(t.cfg.L1I.LineBytes)
		if haveLine && line != lastLine {
			return
		}
		lat := t.IL1.Access(e.PPC, false)
		if lat > t.cfg.L1I.HitLatency {
			t.icacheStallUntil = t.cycle + uint64(lat)
		}
		lastLine, haveLine = line, true

		if e.TLBWrite {
			// Mirror software TLB fills into the timing structures (§2).
			t.DTLB.Insert(e.TLBVPN)
			t.ITLB.Insert(e.TLBVPN)
		}

		ins := &refInstr{e: e}
		if e.Exception {
			t.Stats.Exceptions++
			ins.serialize = true
		}
		if e.Interrupt {
			ins.serialize = true
		}
		hasBr := false
		for _, mu := range e.UOps {
			if mu.Kind == microcode.UBr {
				hasBr = true
				break
			}
		}
		if e.Branch && hasBr && !ins.serialize {
			pred := t.BP.Predict(e.PC, e.Taken, e.NextPC)
			if !e.Cond {
				// Unconditional control transfers don't consult the
				// direction predictor: a decode-stage front end knows they
				// are taken; only the target (BTB/RAS) can be wrong.
				pred.Taken = true
			}
			switch e.Op {
			case isa.OpCall, isa.OpCallR, isa.OpCallFar:
				t.ras[t.rasTop&7] = e.PC + isa.Word(e.Size)
				t.rasTop++
			case isa.OpRet:
				if t.rasTop > 0 {
					t.rasTop--
					pred = bpred.Prediction{Taken: true, Target: t.ras[t.rasTop&7], BTBHit: true}
				}
			}
			miss := t.BPStats.Record(pred, e.Taken, e.NextPC)
			w.predicted = true
			t.unresolved++
			if miss {
				t.Stats.Mispredicts++
				ins.mispredicted = true
				wrongPC := e.PC + isa.Word(e.Size)
				if pred.Taken && pred.BTBHit {
					wrongPC = pred.Target
				}
				t.dropView()
				t.ctl.Mispredict(e.IN+1, wrongPC)
			}
		}
		t.fetchQ.Put(t.cycle, ins)
		t.fetchIN = e.IN + 1

		takenBranch := e.Branch && e.Taken

		if ins.mispredicted || ins.serialize {
			if ins.serialize {
				t.Stats.Serializes++
			}
			t.recovering = true
			t.recoverIN = e.IN
			return
		}
		if takenBranch {
			return // the fetch group ends at a taken branch (redirect)
		}
		if t.cycle < t.icacheStallUntil {
			return // miss latency applies to the following fetch group
		}
	}
}

// ConnectorReport renders the §4 Connector statistics (throughput stalls,
// average occupancy) for the front-end connectors.
func (t *refTM) ConnectorReport() string {
	report := func(name string, st ConnectorStats, cfg ConnectorConfig) string {
		avg := 0.0
		if st.Puts > 0 {
			avg = float64(st.OccupancySum) / float64(st.Puts)
		}
		return fmt.Sprintf("  %-14s lat=%d cap=%d puts=%d gets=%d putStalls=%d getStalls=%d avgOcc=%.2f\n",
			name, cfg.MinLatency, cfg.MaxTransactions, st.Puts, st.Gets,
			st.PutStalls, st.GetStalls, avg)
	}
	return "connectors:\n" +
		report(t.fetchQ.Name(), t.fetchQ.Stats(), t.fetchQ.Config()) +
		report(t.uopQ.Name(), t.uopQ.Stats(), t.uopQ.Config())
}

// snapshotInto captures the current pipeline state into s, reusing its
// slices, as TM.snapshotInto does.
func (t *refTM) snapshotInto(s *Snapshot) {
	*s = Snapshot{Cycle: t.cycle, FetchIN: t.fetchIN, DecodeBuf: len(t.decodeBuf), Recovering: t.recovering,
		DrainFor: t.recoverIN, FetchQ: s.FetchQ[:0], RenameQ: s.RenameQ[:0], ROB: s.ROB[:0]}
	for _, it := range t.fetchQ.items {
		s.FetchQ = append(s.FetchQ, it.v.e.IN)
	}
	for _, u := range t.uopQ.items {
		s.RenameQ = append(s.RenameQ, u.v.ins.e.IN)
	}
	for _, u := range t.rob {
		s.ROB = append(s.ROB, ROBSlot{
			IN:     u.ins.e.IN,
			Kind:   u.kind.String(),
			Issued: u.issued,
			Done:   u.done && u.doneCycle <= t.cycle,
		})
	}
}
