package fm

import (
	"repro/internal/fullsys"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Superblock execution, built on the predecode table (icache.go): a
// superblock is a walk over that table — straight-line predecoded
// instructions executed back to back with ONE rollback record, ONE
// interrupt/device check and ONE translation per block instead of one per
// instruction, however often the sink cuts the block (see resuming, below).
// There is no second table: QEMU keeps one translation of each code block,
// and so does the FM. Each instruction runs through Model.issue — the body
// Step shares — which assembles its trace entry in the Model's one scratch
// entry; the finished entry is handed by pointer to the caller's sink, which
// enforces the coupling loop's per-entry predicates (budget, buffer
// occupancy) so a block stops at exactly the instruction a per-instruction
// loop would have stopped at — the property that keeps every architected and
// modeled number bit-identical at any SuperblockLen.
//
// The walk starts at the entry PC's translation, issues the op in the
// predecode slot there, then steps the physical address by the instruction
// size and probes the next slot — a miss decodes through Model.decode and
// fills, as the per-instruction fetch does. The probe of an op follows the
// execution of the one before it, so a store into code on the block's page
// (any store, the block's own included) needs no split logic: the next slot's
// generation check misses and re-decodes the fresh bytes, exactly as
// per-instruction stepping would. The walk ends after:
//
//   - a terminator instruction (predecoded.ends): any branch/call/ret/trap,
//     HALT, ll/sc (the link register must see per-boundary semantics, and
//     multicore converge-at-boundary rides on that), TLB/CR writes (they can
//     change translation), port I/O and STI (they can change device/interrupt
//     state mid-block);
//   - the last instruction on the physical page (a block never spans pages,
//     so the page record is read once per walk), and before an instruction
//     that cannot be cached — one that spans two pages or does not decode —
//     which the per-instruction path decodes or faults on;
//   - the configured length cap, or the sink stopping it.
//
// Entry conditions (checked once per block, replacing the per-instruction
// Bus.NextDue/Tick and interrupt-delivery checks of Step):
//
//   - no interrupt is deliverable right now, and none can become
//     deliverable mid-block: pending lines only change via device events
//     or port I/O, FlagI is only set by terminators, and
//   - no device event falls due inside the block's device-time span
//     (Bus.NextDue), so the skipped Bus.Tick calls are state-identical
//     no-ops. Device `now` fields are not snapshot state and port I/O
//     re-ticks before touching a device, so skipping them is
//     unobservable.
//
// When any condition fails, or the walk would be empty, Produce degrades to
// a single Step().
//
// A block the sink stops before its end is resumed, not re-entered: the
// model keeps a cursor (IN, PC, the next op's physical address, the ops the
// cap still allows) and the next Produce continues the walk there when the IN
// and PC are unchanged and nothing but the timing model ran on this core in
// between — SetPC, a state load, LoadProgram and step clear the cursor;
// Commit may run. The cursor holds no decoded code, so another core's fill,
// store or flush can never leave it stale: the resumed walk probes the slot
// like any other. A resumed segment skips translation and the entry
// conditions: the entry check already covered the block's whole tick span
// (Now advanced only by the ops executed since), and only the model's own
// port I/O, a terminator, changes its bus or FlagI. The segment keeps
// appending to the block's record, the journal ring's tail (a Commit may have
// released it, emptying the ring; then it opens one), so a superblock costs
// one entry check and one record however often the coupling cuts it.
//
// Every slot the walk probes counts in fm_icache_hits_total or
// _misses_total. fm_superblock_hits_total and _misses_total classify block
// entries by their first slot's probe, and _invalidations_total counts the
// entry misses a stale page generation caused; _resumes_total counts resumed
// segments, so block entries are hits + misses + resumes. _splits_total
// counts the probes past a block's entry that found their slot filled under
// an older page generation — a store into the block's page since the fill,
// which the walk re-decodes.

// DefaultSuperblockLen is the superblock length cap a zero
// sim.Params.SuperblockLen and core.DefaultConfig select. Like
// ICacheEntries, the knob only trades host memory for FM speed —
// architected results are identical at any value, including 0 (disabled).
const DefaultSuperblockLen = 32

// sbCache is one model's superblock walker: its length cap and its
// counters, published as fm_superblock_* by Model.PublishTelemetry.
type sbCache struct {
	maxLen int

	hits          uint64 // block entries whose first slot hit
	misses        uint64 // block entries whose first slot missed
	resumes       uint64 // cut blocks continued
	splits        uint64 // probes past an entry rejected by a stale page generation
	invalidations uint64 // entry probes rejected by a stale page generation
}

// sbCursor is where the sink stopped a block before its end: the model
// must still be at IN in and PC pc, and the walk continues at physical
// address pa with left ops to go. left == 0 means there is nothing to
// resume.
type sbCursor struct {
	in   uint64
	pc   isa.Word
	pa   isa.Word
	left int
}

// blockTerminator reports whether op must end a superblock: anything that
// redirects the PC, halts, touches the ll/sc link, changes translation
// state, or can change device/interrupt state mid-block. predecode caches
// the answer as predecoded.ends.
func blockTerminator(op isa.Op) bool {
	switch op {
	case isa.OpJmp, isa.OpJz, isa.OpJnz, isa.OpJl, isa.OpJge, isa.OpJg,
		isa.OpJle, isa.OpJc, isa.OpJnc, isa.OpJmpR, isa.OpCall, isa.OpCallR,
		isa.OpRet, isa.OpLoop, isa.OpJmpFar, isa.OpCallFar,
		isa.OpSyscall, isa.OpBreak, isa.OpIret, isa.OpHalt,
		isa.OpLl, isa.OpSc,
		isa.OpTlbWr, isa.OpTlbFl, isa.OpMovCR,
		isa.OpIn, isa.OpOut, isa.OpSti:
		return true
	}
	return false
}

// refill is the walk's probe miss at physical address pa, whose slot e
// (nil while unallocated) the probe rejected: it counts a stale slot —
// filled at pa under an older page generation — in *stale, then decodes the
// instruction at the PC through Model.decode and fills its slot. It returns
// nil when the instruction cannot be cached — outside memory, a decode
// fault, or one spanning two pages — which ends the walk: the
// per-instruction path raises the fault or decodes the spanning instruction.
func (m *Model) refill(e *icEntry, pa isa.Word, stale *uint64) *icEntry {
	if e != nil && e.pa == pa && e.inst.Size != 0 {
		*stale++
	}
	if !m.Mem.InRange(pa, 1) {
		return nil
	}
	inst, spans, f := m.decode(m.PC, pa)
	if f != nil || spans {
		return nil
	}
	return m.icache.fill(pa, inst)
}

// blockReady returns the physical address of the PC when a new block may
// start there right now, false when the caller must take the
// per-instruction path: superblocks disabled, target halted/fatal, an
// interrupt deliverable (or able to become deliverable mid-block), a
// device event due inside the block's device-time span, or a fetch that
// faults (the per-instruction path raises it).
func (m *Model) blockReady() (isa.Word, bool) {
	c := m.sb
	if c == nil || m.halted || m.fatal != nil {
		return 0, false
	}
	if !m.cfg.DisableInterrupts && m.Flags&isa.FlagI != 0 && m.Bus.Pending() >= 0 {
		return 0, false
	}
	if m.Bus.NextDue() <= m.Now()+uint64(c.maxLen) {
		return 0, false
	}
	pa, f := m.translate(m.PC, false)
	if f != nil || !m.Mem.InRange(pa, 1) {
		return 0, false
	}
	return pa, true
}

// enter starts the walk Produce takes: the cut block's, resumed at its next
// op when nothing but the timing model ran since the cut, else a new block's
// at the PC when blockReady allows one. It returns the walk's first slot, its
// physical address and how many ops the block may still run; a nil slot
// sends Produce down the per-instruction path. It consumes the cursor.
// Nothing pushes a journal record between a cut and a resume, and Commit
// releases from the head, so the block's record is the ring's tail unless
// the ring is empty; then the resumed segment opens one.
func (m *Model) enter() (*icEntry, isa.Word, int) {
	c, ic := m.sb, m.icache
	cut := m.cut
	m.cut.left = 0
	if cut.left > 0 && cut.in == m.in && cut.pc == m.PC {
		e, hit := ic.probe(cut.pa)
		if !hit {
			if e = m.refill(e, cut.pa, &c.splits); e == nil {
				return nil, 0, 0
			}
		}
		if m.journal.recs.len() == 0 {
			m.journal.begin(m)
		}
		c.resumes++
		return e, cut.pa, cut.left
	}
	pa, ok := m.blockReady()
	if !ok {
		return nil, 0, 0
	}
	e, hit := ic.probe(pa)
	if hit {
		c.hits++
	} else {
		c.misses++
		if e = m.refill(e, pa, &c.invalidations); e == nil {
			return nil, 0, 0
		}
	}
	m.journal.begin(m)
	return e, pa, c.maxLen
}

// Produce executes up to one superblock of dynamic instructions, invoking
// sink with each produced trace entry in order. The entry is the Model's
// scratch entry, valid until the next instruction: a sink that keeps it
// copies it. sink's return value is the continuation predicate: returning
// false stops the block after the entry just delivered (the caller's budget
// or buffer gate), leaving the model at that exact instruction boundary; the
// next call resumes the block there. The return value is the number of
// entries produced (0 means the target is halted or fatal, exactly like
// Step's ok == false).
//
// When the block path is unavailable Produce executes a single Step() — so
// a caller looping over Produce is behaviourally identical to one looping
// over Step, just faster.
func (m *Model) Produce(sink func(*trace.Entry) bool) int {
	e, pa, left := m.enter()
	if e == nil {
		if !m.step() {
			return 0
		}
		sink(&m.ent)
		return 1
	}
	ic := m.icache
	pg := ic.page(pa >> fullsys.PageShift) // filled with e's slot, so never nil
	last := pa | (fullsys.PageSize - 1)
	retired := 0
	for {
		if f := m.issue(&e.predecoded, m.PC, pa); f != nil || m.fatal != nil {
			// Rare slow path: an exception (or a fatal condition) inside the
			// block. The block journal record cannot undo just the faulting
			// instruction's partial effects without per-instruction
			// snapshots, so undo the WHOLE block, re-execute the retired
			// prefix per-instruction under the replay flag (its entries are
			// already delivered and its statistics already counted), and let
			// Step handle the faulting instruction exactly as the
			// per-instruction path would — including trap delivery, the
			// Exceptions counter and the fatal abort.
			return m.replayFault(sink, retired)
		}
		m.finishEntry(&m.ent, &e.predecoded)
		retired++
		left--
		pa += isa.Word(e.inst.Size)
		more := left > 0 && !e.ends && pa <= last
		if !sink(&m.ent) {
			if more {
				m.cut = sbCursor{in: m.in, pc: m.PC, pa: pa, left: left}
			}
			return retired
		}
		if !more {
			return retired
		}
		var hit bool
		if e, hit = ic.probeOn(pa, pg); !hit {
			if e = m.refill(e, pa, &m.sb.splits); e == nil {
				return retired
			}
		}
	}
}

// StepBlock is Produce handing the sink each entry by value.
func (m *Model) StepBlock(sink func(trace.Entry) bool) int {
	return m.Produce(func(e *trace.Entry) bool { return sink(*e) })
}

// replayFault recovers from an exception or fatal condition raised inside
// a superblock: the journal rewinds to the faulting instruction — the open
// block record is rolled back wholesale and the already-delivered prefix it
// covers, this call's retired entries and any earlier segments' of a
// resumed block, is re-executed silently — and the faulting instruction
// re-runs through Step on the per-instruction path. Replay is deterministic
// — blockReady proved no interrupt or device event falls in the block's
// window, and the undo restored the memory the prefix fetched from, so a
// prefix that stored into its own block's code replays the bytes it ran the
// first time.
func (m *Model) replayFault(sink func(*trace.Entry) bool, retired int) int {
	m.fatal = nil
	if _, err := m.journal.rewind(m, m.in, true); err != nil {
		panic("fm: superblock prefix replay diverged")
	}
	if m.step() {
		retired++
		sink(&m.ent)
	}
	return retired
}

// SuperblocksEnabled reports whether the block fast path exists at all
// (Config.SuperblockLen > 0 with the predecode cache and a checkpoint
// interval of 0); without it Produce is Step behind a sink.
func (m *Model) SuperblocksEnabled() bool { return m.sb != nil }

// SuperblockStats reports the superblock counters (all zero when disabled):
// block entries whose first slot hit and missed, walk probes past an entry
// and entry probes rejected by a stale page generation.
func (m *Model) SuperblockStats() (hits, misses, splits, invalidations uint64) {
	if m.sb == nil {
		return 0, 0, 0, 0
	}
	return m.sb.hits, m.sb.misses, m.sb.splits, m.sb.invalidations
}
