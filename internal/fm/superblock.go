package fm

import (
	"repro/internal/fullsys"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Superblock execution, built on top of the predecode cache (icache.go):
// straight-line runs of predecoded instructions are formed once and then
// executed back to back with ONE rollback record, ONE interrupt/device
// check and ONE translation per block instead of one per instruction —
// however often the sink cuts the block (see resuming, below). Each
// instruction runs through Model.issue — the body Step shares — which
// assembles its trace entry in the Model's one scratch entry; the finished
// entry is handed by pointer to the caller's sink, which enforces the
// coupling loop's per-entry predicates (budget, buffer occupancy) so a
// block stops at exactly the instruction a per-instruction loop would have
// stopped at — the property that keeps every architected and modeled
// number bit-identical at any SuperblockLen.
//
// Block formation walks physical memory forward from the entry PC's
// translation, reusing (and filling) the predecode cache per candidate —
// a miss decodes through Model.decode, as the per-instruction fetch does —
// and stops at:
//
//   - a terminator instruction (included as the block's last op): any
//     branch/call/ret/trap, HALT, ll/sc (the link register must see
//     per-boundary semantics, and multicore converge-at-boundary rides
//     on that), TLB/CR writes (they can change translation), port I/O
//     and STI (they can change device/interrupt state mid-block);
//   - a physical page end (blocks never span pages, so ONE page
//     generation compare validates a whole block), and an instruction that
//     spans two pages, which the per-instruction path decodes at each fetch;
//   - a decode failure (the per-instruction path raises the fault);
//   - the configured length cap.
//
// Like the predecode table, the block table belongs to the physical memory
// (Shared): the cores of a multicore target enter and form one table.
// Invalidation rides the predecode table's per-physical-page generation
// counters: stores into a line holding cached code (any core's, or
// rollback memory undo) bump the page generation, and a block whose
// fill-time generation disagrees re-forms. Every instruction of a block
// went through the predecode cache, so its lines are marked. A store
// *inside* a running block is caught by a post-instruction generation
// compare and splits the block (the executed prefix is correct; the stale
// suffix never runs). LoadProgram drops the blocks with the predecode
// slots; the flush also moves every page generation on, so a block that
// outlived it could never match again anyway.
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
// When any condition fails, Produce degrades to a single Step().
//
// A block the sink stops before its last op is resumed, not re-entered: the
// model keeps a cursor (block, its pa and generation, next op, IN, PC) and
// the next Produce continues at that op when the IN and PC are unchanged,
// the slot still holds the block's pa and its page's generation is still
// the block's, and nothing but the timing model ran on this core in
// between — SetPC, a state load, LoadProgram and step clear the cursor;
// Commit may run. Another core may have re-formed the shared slot in the
// meantime: at another pa, which the pa compare rejects, or at this pa from
// bytes stored since, which the generation compare rejects (generations
// only grow, a flush included). A slot re-formed at the same pa and
// generation holds the same ops. A resumed segment skips translation,
// the probe and the entry conditions: the entry check already covered the
// block's whole tick span (Now advanced only by the ops executed since), and
// only the model's own port I/O, a terminator, changes its bus or FlagI. The
// segment keeps appending to the block's record, the journal ring's tail
// (a Commit may have released it, emptying the ring; then it opens one),
// so a superblock costs one entry check and one record however often the
// coupling cuts it. fm_superblock_hits_total and _misses_total count probed
// entries only; block entries are hits + misses + resumes.

// DefaultSuperblockLen is the superblock length cap a zero
// sim.Params.SuperblockLen and core.DefaultConfig select. Like
// ICacheEntries, the knob only trades host memory for FM speed —
// architected results are identical at any value, including 0 (disabled).
const DefaultSuperblockLen = 32

// sbOp is one instruction inside a superblock: its predecoded record, copied
// out of the predecode-cache slot at formation time (slots are direct-mapped
// and unstable), and where it sits in the block.
type sbOp struct {
	off isa.Word // byte offset from the block's first instruction
	predecoded
}

// sbBlock is one direct-mapped superblock-cache slot. len(ops) == 0 marks
// an empty slot.
type sbBlock struct {
	pa  isa.Word // physical address of the first instruction byte
	gen uint32   // its page's store generation at formation time
	ops []sbOp
}

// sbTable is the direct-mapped superblock table of one physical memory. It
// shares the predecode table's per-page generation counters, so every
// invalidation path (stores, rollback memory undo) covers blocks for free.
type sbTable struct {
	slots  lazyTable[sbBlock]
	mask   isa.Word
	maxLen int
}

// sbCache is one model's view of its memory's superblock table: the table,
// the model's predecode view that formation probes through, form's scratch
// and the model's own counters.
type sbCache struct {
	*sbTable
	ic      *icache
	forming []sbOp // form's scratch: a block is copied into its slot's own ops array

	// Statistics, published as fm_superblock_* by Model.PublishTelemetry.
	// Block entries are hits + misses + resumes.
	hits          uint64
	misses        uint64
	resumes       uint64 // cut blocks continued without a probe
	splits        uint64 // blocks ended early by an in-block store (SMC)
	invalidations uint64 // probes rejected by a stale page generation
}

// sbCursor is where the sink stopped a block before its last op: the model
// must still be at IN in and PC pc, and blk must still hold the block
// formed at pa under page generation gen. blk == nil means there is
// nothing to resume.
type sbCursor struct {
	blk  *sbBlock
	next int
	in   uint64
	pc   isa.Word
	pa   isa.Word
	gen  uint32
}

// probe looks up the block starting at physical address pa.
func (c *sbCache) probe(pa isa.Word) *sbBlock {
	e := c.slots.peek(pa & c.mask)
	if e == nil || len(e.ops) == 0 || e.pa != pa {
		c.misses++
		return nil
	}
	if c.stale(e) {
		c.invalidations++
		c.misses++
		return nil
	}
	c.hits++
	return e
}

// stale reports whether a store has hit the block's page since formation
// (checked after every executed instruction to catch in-block SMC). Blocks
// never span pages, so the page is the first byte's.
func (c *sbCache) stale(e *sbBlock) bool { return e.gen != c.ic.gen(e.pa>>fullsys.PageShift) }

// flush empties the block table (program load).
func (c *sbCache) flush() {
	if c == nil {
		return
	}
	c.slots.drop()
}

// blockTerminator reports whether op must end a superblock: anything that
// redirects the PC, halts, touches the ll/sc link, changes translation
// state, or can change device/interrupt state mid-block.
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

// form builds, installs and returns the superblock starting at (pc, pa),
// or nil when not even one instruction qualifies. Every candidate goes
// through the predecode cache — probed, and decoded and filled on a miss, so
// formation leaves the per-instruction path's cache warm too — and its slot's
// record is copied into the block. A fault or a spanning instruction ends the
// walk: the per-instruction path raises the one and decodes the other.
func (c *sbCache) form(m *Model, pc, pa isa.Word) *sbBlock {
	page := pa >> fullsys.PageShift
	pageEnd := (page + 1) << fullsys.PageShift
	ops := c.forming[:0]
	off := isa.Word(0)
	for len(ops) < c.maxLen {
		cur := pa + off
		if cur >= pageEnd || !m.Mem.InRange(cur, 1) {
			break
		}
		ce, ok := c.ic.probe(cur)
		if !ok {
			inst, spans, f := m.decode(pc+off, cur)
			if f != nil || spans {
				break
			}
			ce = c.ic.fill(cur, inst)
		}
		ops = append(ops, sbOp{off: off, predecoded: ce.predecoded})
		if blockTerminator(ce.inst.Op) {
			break
		}
		off += isa.Word(ce.inst.Size)
	}
	c.forming = ops[:0]
	if len(ops) == 0 {
		return nil
	}
	e := c.slots.slot(pa & c.mask)
	*e = sbBlock{pa: pa, gen: c.ic.gen(page), ops: append(e.ops[:0], ops...)}
	return e
}

// blockReady returns the superblock at the current PC when the block fast
// path may run right now, nil when the caller must take the
// per-instruction path: superblocks disabled, target halted/fatal, an
// interrupt deliverable (or able to become deliverable mid-block), a
// device event due inside the block's device-time span, a fetch that
// faults (the per-instruction path raises it), or no formable block.
func (m *Model) blockReady() *sbBlock {
	c := m.sb
	if c == nil || m.halted || m.fatal != nil {
		return nil
	}
	if !m.cfg.DisableInterrupts && m.Flags&isa.FlagI != 0 && m.Bus.Pending() >= 0 {
		return nil
	}
	now := m.Now()
	if m.Bus.NextDue() <= now+uint64(c.maxLen) {
		return nil
	}
	pa, f := m.translate(m.PC, false)
	if f != nil || !m.Mem.InRange(pa, 1) {
		return nil
	}
	if e := c.probe(pa); e != nil {
		return e
	}
	return c.form(m, m.PC, pa)
}

// resume returns the block and op index a cut block continues at, or nil
// when there is none or anything but the timing model ran since the cut.
// It consumes the cursor. Nothing pushes a journal record between a cut and
// a resume, and Commit releases from the head, so the block's record is the
// ring's tail unless the ring is empty; then the segment opens one.
func (m *Model) resume() (*sbBlock, int) {
	cut := m.cut
	m.cut.blk = nil
	if cut.blk == nil || cut.in != m.in || cut.pc != m.PC ||
		cut.blk.pa != cut.pa || cut.gen != m.icache.gen(cut.pa>>fullsys.PageShift) {
		return nil, 0
	}
	if m.jeng.recs.len() == 0 {
		m.jeng.begin(m)
	}
	m.sb.resumes++
	return cut.blk, cut.next
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
	blk, i := m.resume()
	if blk == nil {
		if blk = m.blockReady(); blk == nil {
			if !m.step() {
				return 0
			}
			sink(&m.ent)
			return 1
		}
		m.jeng.begin(m)
	}
	retired := 0
	basePC := m.PC - blk.ops[i].off
	for i < len(blk.ops) {
		op := &blk.ops[i]
		if f := m.issue(&op.predecoded, basePC+op.off, blk.pa+op.off); f != nil || m.fatal != nil {
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
		m.finishEntry(&m.ent, &op.predecoded)
		retired++
		i++
		if !sink(&m.ent) {
			if i < len(blk.ops) {
				m.cut = sbCursor{blk: blk, next: i, in: m.in, pc: m.PC, pa: blk.pa, gen: blk.gen}
			}
			break
		}
		if m.halted {
			break
		}
		if m.sb.stale(blk) {
			// An in-block store hit this block's page: the executed prefix
			// is correct, the predecoded suffix may not be. Split here; the
			// next probe re-forms from fresh bytes.
			m.sb.splits++
			break
		}
	}
	return retired
}

// StepBlock is Produce handing the sink each entry by value.
func (m *Model) StepBlock(sink func(trace.Entry) bool) int {
	return m.Produce(func(e *trace.Entry) bool { return sink(*e) })
}

// replayFault recovers from an exception or fatal condition raised inside
// a superblock: the open block record is rolled back wholesale, the
// already-delivered prefix it covers — this call's retired entries and any
// earlier segments' of a resumed block — is re-executed silently, and the
// faulting instruction re-runs through Step on the per-instruction path.
// Replay is deterministic — blockReady proved no interrupt or device event
// falls in the block's window, and the prefix cannot have patched its own
// block (the staleness check splits first).
func (m *Model) replayFault(sink func(*trace.Entry) bool, retired int) int {
	faulting := m.in
	m.jeng.undoTop(m)
	m.fatal = nil
	if m.in < faulting {
		m.replay = true
		for m.in < faulting {
			if !m.step() {
				m.replay = false
				panic("fm: superblock prefix replay diverged")
			}
		}
		m.replay = false
	}
	if m.step() {
		retired++
		sink(&m.ent)
	}
	return retired
}

// SuperblocksEnabled reports whether the block fast path exists at all
// (Config.SuperblockLen > 0 with the predecode cache and journal engine
// present); without it Produce is Step behind a sink.
func (m *Model) SuperblocksEnabled() bool { return m.sb != nil }

// SuperblockStats reports the superblock-cache counters (all zero when
// disabled): block probe hits, misses, SMC splits and generation-stale
// probe invalidations.
func (m *Model) SuperblockStats() (hits, misses, splits, invalidations uint64) {
	if m.sb == nil {
		return 0, 0, 0, 0
	}
	return m.sb.hits, m.sb.misses, m.sb.splits, m.sb.invalidations
}
