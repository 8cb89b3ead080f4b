package tm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/fullsys"
	"repro/internal/isa"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/trace"
)

// FetchStatus is the result of asking the trace source for an instruction.
type FetchStatus int

const (
	// FetchOK delivered an entry.
	FetchOK FetchStatus = iota
	// FetchWait means the functional model has not produced the entry yet
	// (or the target is halted): the timing model sees a fetch bubble.
	FetchWait
	// FetchEnd means the stream is over.
	FetchEnd
)

// Source supplies functional-path trace entries by instruction number: a
// run of consecutive entries starting at in with one call — the consumer
// half of the chunked coupling. After a re-steer, re-fetching an IN returns
// the replacement entry. The returned slice is a view the TM may read until
// it issues a re-steer (Mispredict/Resolve), which invalidates it, and a
// FetchOK view is never empty. The view may alias the source's own storage
// (the coupled simulator's is the trace buffer's ring): entries the TM has
// already fetched may be rewritten once committed, but entries at or past
// its fetch frontier stay unchanged until a re-steer, so fetch copies each
// entry out exactly once.
type Source interface {
	FetchChunk(in uint64) ([]trace.Entry, FetchStatus)
}

// Control is the TM→FM command channel: commits release rollback resources;
// Mispredict/Resolve implement §2.1's path re-steering.
type Control interface {
	// Commit tells the FM instruction in is fully committed.
	Commit(in uint64)
	// Mispredict asks the FM to produce wrong-path instructions starting
	// at instruction number in, fetching from wrongPC.
	Mispredict(in uint64, wrongPC isa.Word)
	// Resolve asks the FM to return to the right path at in.
	Resolve(in uint64, rightPC isa.Word)
}

// NopControl is the replay-mode control: the trace is already the right
// path and nothing is coupled behind it.
type NopControl struct{}

// Commit implements Control.
func (NopControl) Commit(uint64) {}

// Mispredict implements Control.
func (NopControl) Mispredict(uint64, isa.Word) {}

// Resolve implements Control.
func (NopControl) Resolve(uint64, isa.Word) {}

// instr is one in-flight instruction: a slot of the TM's instruction ring,
// filled once at fetch with the only copy the TM makes of the trace entry.
type instr struct {
	e            trace.Entry
	mispredicted bool
	serialize    bool // exception/interrupt: fetch stalls until it commits
}

// uop is one in-flight micro-operation: a slot of the TM's µop ring. It
// names its instruction, its producers and its consumers by sequence
// number, so the ring holds no pointers and slot reuse needs no clean-up.
//
// Rename links each µop to the producers it waits for, as the hardware's
// tag broadcast does: a producer that has not issued yet gets an edge on its
// consumer list (cons, threaded through the consumers' next), and when it
// issues it folds its doneCycle into each consumer's at and takes one off its
// waits. A µop whose waits is 0 can issue from cycle at on. An edge names a
// consumer's dependence i on the list's producer as consumer·3 + i, stored
// + 1 (0 ends the list).
type uop struct {
	ins       uint64    // sequence number of the owning instruction
	deps      [3]uint64 // producers' sequence numbers + 1 (0 = none): A, B, condition codes
	doneCycle uint64    // result available from this cycle on, once issued
	at        uint64    // the latest doneCycle of the producers already issued
	cons      uint64    // first edge of this µop's consumer list
	next      [3]uint64 // next edge of the list of producer deps[i]
	kind      microcode.UKind
	class     isa.Class
	waits     uint8 // producers not yet issued
	last      bool  // commits the instruction
	isMem     bool
	issued    bool
}

// doneBy reports whether the µop's result is available at cycle.
func (u *uop) doneBy(cycle uint64) bool { return u.issued && u.doneCycle <= cycle }

// Stats aggregates the timing model's counters. The JSON tags are a stable
// serialization schema shared by `fastsim -json` and the obs exporters.
type Stats struct {
	Cycles        uint64 `json:"cycles"`
	Instructions  uint64 `json:"instructions"`
	UOps          uint64 `json:"uops"`
	BasicBlocks   uint64 `json:"basic_blocks"`  // committed control transfers
	DrainCycles   uint64 `json:"drain_cycles"`  // fetch stalled by mispredict recovery (Fig. 6)
	FetchBubbles  uint64 `json:"fetch_bubbles"` // fetch stalled because the FM had nothing for us
	ICacheStalls  uint64 `json:"icache_stalls"`
	Mispredicts   uint64 `json:"mispredicts"`
	Exceptions    uint64 `json:"exceptions"`
	Serializes    uint64 `json:"serializes"`
	RSFullStalls  uint64 `json:"rs_full_stalls"`
	ROBFullStalls uint64 `json:"rob_full_stalls"`
	LSQFullStalls uint64 `json:"lsq_full_stalls"`

	// Per-class issue counts (the "active functional units" query of §3).
	IssuedByClass [isa.NumClasses]uint64 `json:"issued_by_class"`
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// TM is the cycle-accurate timing model.
type TM struct {
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

	// In-flight storage is two fixed rings addressed by monotonic sequence
	// number (slot = seq & mask), like the hardware's ROB and its
	// instruction-side twin: nothing in flight is ever heap-allocated. µops
	// are numbered at decode and rename is in order, so the ROB is the
	// contiguous range [robHead, robTail) and the rename queue
	// [robTail, nextUop). A slot is reused only by decode/fetch, which run
	// last in Step: a µop that commits in cycle c is still intact when
	// resolveBranches retires it from the pending lists in c.
	uops      []uop
	uopMask   uint64
	robHead   uint64
	robTail   uint64
	nextUop   uint64
	instrs    []instr
	instrMask uint64
	nextInstr uint64

	// Front-end connectors: Fetch→Decode and Decode→Rename, carrying
	// instruction and µop sequence numbers. Their MinLatency values realize
	// the front-end pipeline depth.
	fetchQ *Connector[uint64]
	uopQ   *Connector[uint64]

	// Decode cursor: the instruction being cracked, the template index of
	// its next µop and how many µops (rep iterations included) it still
	// owes. µops are cracked one at a time as the rename queue takes them,
	// so a rep's cost is its bandwidth, never its iteration count in memory.
	decIns  uint64
	decIdx  int
	decLeft uint64

	// The occupied reservation stations. rs lists, oldest first, the
	// renamed, unissued non-memory µops whose producers have all issued —
	// all issue has to look at; blocked counts those still waiting for a
	// producer, which its issue moves into rs. memQ is the in-order memory
	// port's FIFO of unissued memory µops (a ring addressed by the monotonic
	// memHead/memTail), of which only the head can issue. Together they hold
	// at most RSEntries µops.
	rs               []uint64
	blocked          int
	memQ             []uint64
	memMask          uint64
	memHead, memTail uint64
	lsqCount         int
	// wake is the earliest cycle at which issue could do anything: a scan
	// that issues nothing sets it, dispatch clears it, and until then issue
	// returns at once.
	wake uint64
	// Rename table: the youngest writer of each µop register and of the
	// condition codes, as sequence number + 1 (0 = none).
	regWriter [256]uint64
	ccWriter  uint64

	lsuFreeAt []uint64

	pendingBranches []uint64 // issued branch µops awaiting resolution
	pendingMisses   []uint64 // outstanding non-blocking cache misses (MSHRs)

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

	// ff is the REP fast-forward (fastforward.go), nil until a long REP
	// first arms it; ffOff keeps it from arming (tests).
	ff    *fastForward
	ffOff bool
}

// New builds a timing model over the given trace source and control
// channel.
func New(cfg Config, src Source, ctl Control) (*TM, error) {
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
	// Ring capacities, the smallest power of two above the most that can be
	// live. Every live µop is in the ROB or the rename queue: at most
	// ROBEntries + queue. Every live instruction is in the fetch queue (at
	// most queue), under the decode cursor (1) or owns a live µop (at most
	// ROBEntries + queue owners). Instructions are numbered at fetch and
	// leave in order, each owning at least one µop, so the live ones are
	// the contiguous range below nextInstr, at most 2·queue + 1 +
	// ROBEntries long.
	queue := 4 * cfg.IssueWidth
	uopCap := 1 << bits.Len(uint(cfg.ROBEntries+queue))
	instrCap := 1 << bits.Len(uint(2*queue+1+cfg.ROBEntries))
	memCap := 1 << bits.Len(uint(cfg.RSEntries-1))
	t := &TM{
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
		uops:      make([]uop, uopCap),
		uopMask:   uint64(uopCap - 1),
		instrs:    make([]instr, instrCap),
		instrMask: uint64(instrCap - 1),
		rs:        make([]uint64, 0, cfg.RSEntries),
		memQ:      make([]uint64, memCap),
		memMask:   uint64(memCap - 1),
		lsuFreeAt: make([]uint64, cfg.LoadStoreUnits),
		// An unresolved branch µop is still in the ROB; issue stops at MSHRs
		// outstanding misses.
		pendingBranches: make([]uint64, 0, cfg.ROBEntries),
		pendingMisses:   make([]uint64, 0, cfg.MSHRs),
		fetchQ: NewConnector[uint64]("fetch→decode", ConnectorConfig{
			InputThroughput:  cfg.IssueWidth,
			OutputThroughput: cfg.IssueWidth,
			MinLatency:       uint64(cfg.FrontEndDepth) / 2,
			MaxTransactions:  queue,
		}),
		uopQ: NewConnector[uint64]("decode→rename", ConnectorConfig{
			InputThroughput:  cfg.IssueWidth,
			OutputThroughput: cfg.IssueWidth,
			MinLatency:       uint64((cfg.FrontEndDepth + 1) / 2),
			MaxTransactions:  queue,
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

// uop returns the ring slot of µop seq.
func (t *TM) uop(seq uint64) *uop { return &t.uops[seq&t.uopMask] }

// instr returns the ring slot of instruction seq.
func (t *TM) instr(seq uint64) *instr { return &t.instrs[seq&t.instrMask] }

// fetchEntry returns the entry for in, serving from the chunk view. On a
// view miss it pulls the next run of live entries with one synchronized
// call; consecutive fetch-group slots then hit the view for free. The
// pointer is into the view: fetch copies it once, into the instruction ring.
func (t *TM) fetchEntry(in uint64) (*trace.Entry, FetchStatus) {
	if off := in - t.viewBase; in >= t.viewBase && off < uint64(len(t.view)) {
		return &t.view[off], FetchOK
	}
	es, st := t.src.FetchChunk(in)
	if st != FetchOK {
		return nil, st
	}
	t.view, t.viewBase = es, in
	return &es[0], FetchOK
}

// dropView discards the chunk view. Called when the TM re-steers the FM:
// entries past the re-steered IN are about to be overwritten, so any cached
// copies are stale.
func (t *TM) dropView() { t.view = nil }

// Config returns the target configuration.
func (t *TM) Config() Config { return t.cfg }

// Cycle returns the current target cycle.
func (t *TM) Cycle() uint64 { return t.cycle }

// HostCycles returns the host (FPGA) cycles consumed so far.
func (t *TM) HostCycles() uint64 { return t.host.total }

// NextFetchIN returns the next instruction number fetch will request.
func (t *TM) NextFetchIN() uint64 { return t.fetchIN }

// Done reports whether the stream ended and the pipeline fully drained.
func (t *TM) Done() bool {
	return t.ended && t.robHead == t.nextUop && t.fetchQ.Len() == 0 && t.decLeft == 0
}

// Run advances the model until Done or maxCycles elapses; it returns the
// number of cycles executed. A long REP's steady state is jumped over whole
// periods at a time (FastForward), with the same result as stepping it.
func (t *TM) Run(maxCycles uint64) uint64 {
	start := t.cycle
	limit := start + min(maxCycles, math.MaxUint64-start)
	for !t.Done() && t.cycle < limit {
		if t.RepArmed() {
			if n, _ := t.FastForward(limit, nil); n > 0 {
				continue
			}
		}
		t.Step()
	}
	return t.cycle - start
}

// Step evaluates one target cycle: commit → resolve → issue → dispatch →
// decode → fetch (reverse pipeline order, so a value produced this cycle is
// consumed next cycle).
func (t *TM) Step() {
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
func (t *TM) commit() {
	n := 0
	for n < t.cfg.IssueWidth && t.robHead < t.robTail {
		u := t.uop(t.robHead)
		if !u.doneBy(t.cycle) {
			break
		}
		t.robHead++
		if u.isMem {
			t.lsqCount--
		}
		n++
		t.Stats.UOps++
		if u.last {
			t.Stats.Instructions++
			e := &t.instr(u.ins).e
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
func (t *TM) resolveBranches() {
	keep := t.pendingBranches[:0]
	for _, seq := range t.pendingBranches {
		u := t.uop(seq)
		if !u.doneBy(t.cycle) {
			keep = append(keep, seq)
			continue
		}
		ins := t.instr(u.ins)
		e := &ins.e
		t.BP.Update(e.PC, e.Taken, e.NextPC)
		if f := t.ff; f != nil && f.recording {
			f.logUpdate(e, ins.mispredicted)
		}
		t.unresolved--
		if ins.mispredicted {
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
	for _, seq := range t.pendingMisses {
		if !t.uop(seq).doneBy(t.cycle) {
			misses = append(misses, seq)
		}
	}
	t.pendingMisses = misses
}

// latency returns the execution latency of a non-memory µop.
func (t *TM) latency(u *uop) uint64 {
	switch u.class {
	case isa.ClassBranch:
		return uint64(t.cfg.BranchLatency)
	case isa.ClassFPU:
		return uint64(t.cfg.FPULatency)
	default:
		return uint64(t.cfg.ALULatency)
	}
}

// issue selects ready µops oldest-first from the non-memory stations, then
// considers the memory port's head, and sends them to functional units.
//
// rs holds only stations whose producers have all issued, and the scan
// walks it by index, freeing the stations it issues as it goes. A producer
// that issues wakes its consumers (issueUop): one whose last producer that
// was is inserted into rs in age order, which is after the scan's place, so
// the scan still reaches it — a consumer of a zero-latency producer issues
// in its producer's cycle, as it would in a scan over every station.
//
// Scanning the memory head last keeps that single age-ordered scan's
// decisions: a memory µop's latency is at least 1, so nothing it produces
// can issue in its cycle, and a zero-latency producer of it is scanned
// first, as its age already put it.
//
// A scan that issues nothing records in wake the earliest cycle anything
// could change: the ready cycle of each station in rs, and for a ready
// memory head the next free LSU or, with every MSHR busy, the next miss to
// complete. A blocked station needs no entry — its producer waits in a
// station too and issues only at a scan — so no scan before wake can issue,
// and issue skips them.
func (t *TM) issue(w *workCounts) {
	if t.cycle < t.wake {
		return
	}
	aluLeft := t.cfg.ALUs
	bruLeft := t.cfg.BranchUnits
	fpuLeft := t.cfg.FPUs
	wake := uint64(math.MaxUint64)
	kept := 0
	for i := 0; i < len(t.rs); i++ {
		seq := t.rs[i]
		u := t.uop(seq)
		if u.at > t.cycle {
			wake = min(wake, u.at)
			t.rs[kept] = seq
			kept++
			continue
		}
		free := &aluLeft
		switch u.class {
		case isa.ClassBranch:
			free = &bruLeft
		case isa.ClassFPU:
			free = &fpuLeft
		}
		if *free == 0 {
			t.rs[kept] = seq
			kept++
			continue
		}
		*free--
		t.issueUop(seq, t.latency(u), w)
	}
	t.rs = t.rs[:kept]
	if t.memHead != t.memTail {
		wake = min(wake, t.issueMem(w))
	}
	if w.issued == 0 {
		t.wake = wake
	}
}

// issueMem issues the memory port's head if it can (blocking caches: younger
// memory µops never bypass it). Otherwise it returns the earliest cycle at
// which that could change, or MaxUint64 while a producer has not issued.
func (t *TM) issueMem(w *workCounts) uint64 {
	seq := t.memQ[t.memHead&t.memMask]
	u := t.uop(seq)
	switch {
	case u.waits > 0:
		return math.MaxUint64
	case u.at > t.cycle:
		return u.at
	}
	lsu := -1
	for i, freeAt := range t.lsuFreeAt {
		if freeAt <= t.cycle {
			lsu = i
			break
		}
	}
	if lsu < 0 {
		return slices.Min(t.lsuFreeAt)
	}
	if t.cfg.MSHRs > 0 && len(t.pendingMisses) >= t.cfg.MSHRs {
		// All miss-status registers busy: resolveBranches frees the first
		// at its doneCycle.
		next := uint64(math.MaxUint64)
		for _, m := range t.pendingMisses {
			next = min(next, t.uop(m).doneCycle)
		}
		return next
	}
	lat := t.memLatency(u)
	if t.cfg.MSHRs > 0 {
		// Non-blocking cache (§4.1 fix): the LSU frees after the issue
		// cycle; the miss rides an MSHR.
		t.lsuFreeAt[lsu] = t.cycle + 1
		if lat > uint64(t.cfg.L1D.HitLatency)+1 {
			t.pendingMisses = append(t.pendingMisses, seq)
		}
	} else {
		t.lsuFreeAt[lsu] = t.cycle + lat // blocking LSU
	}
	t.issueUop(seq, lat, w)
	t.memHead++
	return math.MaxUint64
}

// issueUop sends µop seq to a functional unit and wakes its consumers. A
// consumer left with no producer to wait for that has already dispatched to
// a non-memory station moves from blocked into rs.
func (t *TM) issueUop(seq, lat uint64, w *workCounts) {
	u := t.uop(seq)
	u.issued = true
	u.doneCycle = t.cycle + lat
	t.Stats.IssuedByClass[u.class]++
	w.issued++
	if u.isMem {
		w.memIssued = true
	}
	if u.kind == microcode.UBr {
		t.pendingBranches = append(t.pendingBranches, seq)
	}
	for e := u.cons; e != 0; {
		c := (e - 1) / 3
		cu := t.uop(c)
		e = cu.next[(e-1)%3]
		cu.at = max(cu.at, u.doneCycle)
		if cu.waits--; cu.waits == 0 && c < t.robTail && !cu.isMem {
			t.blocked--
			t.wakeStation(c)
		}
	}
	u.cons = 0
}

// wakeStation inserts µop seq into rs in age order. Its producer is older
// and issuing, so during issue's scan the insertion point lies past the
// scan's place: the search from the young end stops at the producer at the
// latest, before the stations the scan has already moved down.
func (t *TM) wakeStation(seq uint64) {
	rs := append(t.rs, seq)
	i := len(rs) - 1
	for ; i > 0 && rs[i-1] > seq; i-- {
		rs[i] = rs[i-1]
	}
	rs[i] = seq
	t.rs = rs
}

// memLatency models the data-side access: dTLB, then the blocking dL1/L2/
// memory hierarchy.
func (t *TM) memLatency(u *uop) uint64 {
	e := &t.instr(u.ins).e
	lat := uint64(1) // address to the LSU
	if e.MemSize != 0 {
		store, vpn := u.kind == microcode.UStore, e.MemVA>>fullsys.PageShift
		if f := t.ff; f != nil && f.recording {
			f.logMem(e, store, vpn)
		}
		if !e.Kernel && !t.DTLB.Access(vpn) {
			lat += uint64(t.cfg.TLBMissPenalty)
		}
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

// dispatch renames µops into the ROB/RS/LSQ, up to IssueWidth per cycle. A
// non-memory µop goes to rs once its producers have all issued and counts
// as blocked until then.
func (t *TM) dispatch() {
	for n := 0; n < t.cfg.IssueWidth; n++ {
		seq, ok := t.uopQ.Peek(t.cycle)
		if !ok {
			return
		}
		if t.robTail-t.robHead >= uint64(t.cfg.ROBEntries) {
			t.Stats.ROBFullStalls++
			return
		}
		if len(t.rs)+t.blocked+int(t.memTail-t.memHead) >= t.cfg.RSEntries {
			t.Stats.RSFullStalls++
			return
		}
		u := t.uop(seq)
		if u.isMem && t.lsqCount >= t.cfg.LSQEntries {
			t.Stats.LSQFullStalls++
			return
		}
		t.uopQ.pop(t.cycle)
		t.robTail++ // rename is in order: seq was the head of the rename queue
		switch {
		case u.isMem:
			t.memQ[t.memTail&t.memMask] = seq
			t.memTail++
			t.lsqCount++
		case u.waits == 0:
			t.rs = append(t.rs, seq) // the youngest station: age order holds
		default:
			t.blocked++
		}
		t.wake = 0 // a new station can issue next cycle
	}
}

// decode cracks fetched instructions into µops via the microcode table and
// feeds the rename queue; bandwidth is IssueWidth µops per cycle. The queue
// is asked first and the µop cracked only once it has a place, so a refused
// put costs a PutStall and nothing else.
func (t *TM) decode(w *workCounts) {
	for n := 0; n < t.cfg.IssueWidth; n++ {
		if t.decLeft == 0 {
			ins, ok := t.fetchQ.Get(t.cycle)
			if !ok {
				return
			}
			e := &t.instr(ins).e
			t.decIns, t.decIdx = ins, 0
			t.decLeft = max(1, uint64(len(e.UOps))*uint64(max(1, e.RepIterations)))
			if t.decLeft >= ffArmUops {
				t.arm()
			}
		}
		if !t.uopQ.Put(t.cycle, t.nextUop) {
			return
		}
		t.crack()
		w.decoded++
	}
}

// crack fills the next µop ring slot with the decode cursor's µop — the
// entry's instantiated microcode, walked once per REP iteration — and renames
// it: producers are found through the register writer table (data
// dependencies only — names, not values: §2's orthogonality) and linked
// (link). The slot's fields are written in place: a uop literal would be
// built aside and copied into the slot whole.
func (t *TM) crack() {
	e := &t.instr(t.decIns).e
	// An entry without µops is the FM's fetch-fault placeholder. It cracks
	// to one nop whose operands are the zero MReg, not MRegNone: it reads
	// and renames r0. Every golden was recorded with that, so it stays.
	mu := microcode.UOp{Kind: microcode.UNop}
	if len(e.UOps) > 0 {
		mu = e.UOps[t.decIdx]
		if t.decIdx++; t.decIdx == len(e.UOps) {
			t.decIdx = 0
		}
	}
	t.decLeft--
	seq := t.nextUop
	u := t.uop(seq)
	u.ins = t.decIns
	u.kind, u.class = mu.Kind, mu.Kind.Class()
	u.last = t.decLeft == 0
	u.isMem = mu.Kind == microcode.ULoad || mu.Kind == microcode.UStore
	u.issued = false
	u.at, u.cons, u.waits = 0, 0, 0
	u.deps = [3]uint64{}
	t.nextUop++
	if mu.A != microcode.MRegNone {
		t.link(u, seq, 0, t.regWriter[mu.A])
	}
	if mu.B != microcode.MRegNone {
		t.link(u, seq, 1, t.regWriter[mu.B])
	}
	if mu.Kind == microcode.UBr && e.ReadsCC {
		t.link(u, seq, 2, t.ccWriter)
	}
	if mu.Dst != microcode.MRegNone {
		t.regWriter[mu.Dst] = t.nextUop
	}
	if mu.WritesCC {
		t.ccWriter = t.nextUop
	}
}

// link records producer d (sequence number + 1, 0 = none) as dependence i
// of µop seq. A producer at or below robHead has committed — it completed
// in this cycle or an earlier one — and its slot may already hold a younger
// µop, so it is not consulted. One that has issued gives its doneCycle to
// u.at; one that has not gets an edge on its consumer list.
func (t *TM) link(u *uop, seq uint64, i int, d uint64) {
	u.deps[i] = d
	if d <= t.robHead {
		return
	}
	p := t.uop(d - 1)
	if p.issued {
		u.at = max(u.at, p.doneCycle)
		return
	}
	u.next[i] = p.cons
	p.cons = seq*3 + uint64(i) + 1
	u.waits++
}

// fetch brings instructions from the trace source into the pipeline,
// modeling the iTLB, the iL1, branch prediction and the nested-branch
// limit.
func (t *TM) fetch(w *workCounts) {
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
		line := t.IL1.LineOf(e.PPC)
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

		// The one copy of the entry: e now points into the ring, which no
		// re-steer below can invalidate.
		ins := t.instr(t.nextInstr)
		ins.e = *e
		e = &ins.e
		ins.mispredicted = false
		ins.serialize = e.Exception || e.Interrupt
		if e.Exception {
			t.Stats.Exceptions++
		}
		if e.Branch && !ins.serialize && hasBranchUop(e.UOps) {
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
		t.fetchQ.Put(t.cycle, t.nextInstr)
		t.nextInstr++
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

// hasBranchUop reports whether the microcode resolves a branch in the back
// end (only those instructions are predicted).
func hasBranchUop(uops []microcode.UOp) bool {
	for i := range uops {
		if uops[i].Kind == microcode.UBr {
			return true
		}
	}
	return false
}

// PublishTelemetry flushes the timing model's statistics into tel as tm_*
// series: cycle/instruction/µop totals, per-class issue counts, stall
// reasons (pipeline-back-pressure events and front-end stall cycles) and
// predictor outcomes. It models the paper's dedicated statistics hardware
// (§3, §4.6): the counters accumulate beside the pipeline for free and are
// read out once, when the run finishes — the hot cycle loop is untouched.
// The coupled simulator calls it from its result builder; replay users can
// call it directly after Run.
func (t *TM) PublishTelemetry(tel *obs.Telemetry) {
	if tel == nil {
		return
	}
	// In a multicore target every series carries the core identity; a
	// single-core run keeps the unlabeled names so existing dashboards and
	// goldens are untouched.
	series := func(name string) string { return name }
	if t.cfg.Shared != nil {
		id := strconv.Itoa(t.cfg.CoreID)
		series = func(name string) string { return obs.AddLabel(name, "core", id) }
	}
	s := t.Stats
	tel.Counter(series("tm_cycles_total")).Add(s.Cycles)
	tel.Counter(series("tm_instructions_total")).Add(s.Instructions)
	tel.Counter(series("tm_uops_total")).Add(s.UOps)
	tel.Counter(series("tm_basic_blocks_total")).Add(s.BasicBlocks)
	tel.Counter(series("tm_exceptions_total")).Add(s.Exceptions)
	tel.Counter(series("tm_serializes_total")).Add(s.Serializes)

	// Front-end stall cycles by reason (cycles lost) and back-pressure
	// stall events by structure (dispatch attempts refused).
	tel.Counter(series(obs.L("tm_stall_cycles_total", "reason", "recovery_drain"))).Add(s.DrainCycles)
	tel.Counter(series(obs.L("tm_stall_cycles_total", "reason", "fetch_bubble"))).Add(s.FetchBubbles)
	tel.Counter(series(obs.L("tm_stall_cycles_total", "reason", "icache_miss"))).Add(s.ICacheStalls)
	tel.Counter(series(obs.L("tm_stalls_total", "structure", "rob_full"))).Add(s.ROBFullStalls)
	tel.Counter(series(obs.L("tm_stalls_total", "structure", "rs_full"))).Add(s.RSFullStalls)
	tel.Counter(series(obs.L("tm_stalls_total", "structure", "lsq_full"))).Add(s.LSQFullStalls)

	// Per-class issue counts — §3's "active functional units" query.
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if n := s.IssuedByClass[c]; n > 0 {
			tel.Counter(series(obs.L("tm_issued_uops_total", "class", c.String()))).Add(n)
		}
	}

	// Predictor outcomes (Figure 5's accuracy decomposed).
	bp := t.BPStats
	tel.Counter(series(obs.L("tm_bp_outcomes_total", "outcome", "correct"))).Add(bp.Correct)
	tel.Counter(series(obs.L("tm_bp_outcomes_total", "outcome", "direction_wrong"))).Add(bp.DirWrong)
	tel.Counter(series(obs.L("tm_bp_outcomes_total", "outcome", "target_wrong"))).Add(bp.TargetWrong)
	tel.Counter(series("tm_mispredicts_total")).Add(s.Mispredicts)

	// The REP fast-forward, once a long REP has armed it: the periods it
	// jumped and the rounds of their calls it replayed one by one.
	if f := t.ff; f != nil {
		tel.Counter(series("tm_rep_periods_skipped_total")).Add(f.periods)
		tel.Counter(series("tm_rep_rounds_replayed_total")).Add(f.rounds)
	}
}

// ConnectorReport renders the §4 Connector statistics (throughput stalls,
// average occupancy) for the front-end connectors.
func (t *TM) ConnectorReport() string {
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

// Describe summarizes run statistics.
func (t *TM) Describe() string {
	s := t.Stats
	return fmt.Sprintf("cycles=%d inst=%d uops=%d IPC=%.3f bp=%.2f%% iL1=%.2f%% dL1=%.2f%% drains=%.1f%%",
		s.Cycles, s.Instructions, s.UOps, s.IPC(),
		t.BPStats.Accuracy()*100,
		t.IL1.Stats().HitRate()*100,
		t.DL1.Stats().HitRate()*100,
		100*float64(s.DrainCycles)/float64(max(1, s.Cycles)))
}
