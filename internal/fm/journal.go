package fm

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/fullsys"
)

// The functional model supports two interchangeable rollback engines:
//
//   - journalEngine (default): a per-instruction undo journal. Each record
//     holds the pre-instruction scalar state plus memory/TLB/device undo
//     data. Rollback pops records. Simple, exact, O(1) rollback per
//     instruction undone.
//
//   - checkpointEngine: the paper's §3.2 mechanism verbatim — "periodic
//     software checkpoints of architectural state along with memory and
//     I/O logging. At least two checkpoints that leapfrog each other are
//     maintained to ensure that the functional model can rollback to any
//     non-committed instruction." Rollback restores the checkpoint at or
//     below the target and *re-executes* forward — the re-execution is the
//     αBA cost of §3.1's analytical model, which the engine counts.
//
// Both satisfy the same contract and are equivalence-tested against each
// other.

// RollbackMode selects the engine.
type RollbackMode uint8

const (
	// RollbackJournal is the per-instruction undo journal (default).
	RollbackJournal RollbackMode = iota
	// RollbackCheckpoint is the leapfrog-checkpoint + replay engine.
	RollbackCheckpoint
)

type rollbackEngine interface {
	// begin is called before any architectural mutation of an instruction.
	begin(m *Model)
	// abort discards begin's work when no instruction was produced.
	abort(m *Model)
	// noteMem is called with the n bytes about to be overwritten: a scalar
	// store, or one run of a rep string store that stays inside a page.
	noteMem(m *Model, pa uint32, n int)
	// noteTLB is called before the instruction's first TLB mutation.
	noteTLB(m *Model)
	// noteBus is called before the instruction's first device mutation.
	noteBus(m *Model)
	// noteIdle records idle ticks advanced while halted (replay input).
	noteIdle(m *Model, ticks uint64)
	// commit releases resources for instructions <= in.
	commit(m *Model, in uint64)
	// setPC rolls the model back so the next instruction is in at pc.
	setPC(m *Model, in uint64, pc uint32) error
	// window reports the number of uncommitted (rollback-able) instructions.
	window(m *Model) int
}

// memLog is an engine-owned arena of old memory bytes, shared by every
// record (or checkpoint segment) of one engine. Each note appends one entry
// — the n bytes about to be overwritten, then pa and n as little-endian
// uint32s — and the owner counts the bytes its record appended. The header
// trails the payload so the log can be walked newest-first. A string-store
// run whose old bytes are all zero (memory the target never wrote) is
// logged as its header alone, flagged zeroRun. Release follows the owners'
// lifetimes: FIFO at the head when the timing model commits, LIFO at the
// tail on rollback; neither moves a byte, and the steady state allocates
// nothing.
type memLog struct {
	buf  []byte
	head int // buf[:head] is committed space awaiting reuse
}

const (
	memLogHeader = 8
	zeroRun      = 1 << 31 // header length flag: the old bytes were all zero
	zeroScanMin  = 64      // shorter entries (scalar stores) are not scanned
)

// zeros is what a zero-run entry's old bytes are compared with.
var zeros [fullsys.PageSize]byte

// note saves the n bytes at pa and returns the log bytes appended. n bytes
// at pa must span at most two pages (undo issues one noteStore per entry),
// and n is at most a page.
func (l *memLog) note(m *Model, pa uint32, n int) int {
	if len(l.buf)+n+memLogHeader > cap(l.buf) {
		l.makeRoom(n + memLogHeader)
	}
	end := len(l.buf)
	old := l.buf[end : end+n]
	m.Mem.CopyOut(old, pa)
	hdr := uint32(n)
	if n >= zeroScanMin && bytes.Equal(old, zeros[:n]) {
		hdr, n = zeroRun|hdr, 0
	}
	l.buf = l.buf[:end+n+memLogHeader]
	binary.LittleEndian.PutUint32(l.buf[end+n:], pa)
	binary.LittleEndian.PutUint32(l.buf[end+n+4:], hdr)
	return n + memLogHeader
}

// makeRoom reclaims the released prefix by sliding the live span to the
// front, but only once the prefix is at least as long as the span, so each
// byte moves O(1) times amortised; otherwise the buffer doubles.
func (l *memLog) makeRoom(size int) {
	live := len(l.buf) - l.head
	if l.head < live || live+size > cap(l.buf) {
		grown := make([]byte, live, max(2*cap(l.buf), live+size, 4096))
		copy(grown, l.buf[l.head:])
		l.buf, l.head = grown, 0
		return
	}
	copy(l.buf, l.buf[l.head:])
	l.buf, l.head = l.buf[:live], 0
}

// release frees the oldest n bytes (commit).
func (l *memLog) release(n int) {
	if l.head += n; l.head == len(l.buf) {
		l.buf, l.head = l.buf[:0], 0
	}
}

// drop discards the newest n bytes without applying them (abort).
func (l *memLog) drop(n int) { l.buf = l.buf[:len(l.buf)-n] }

// reset empties the log (state restore).
func (l *memLog) reset() { l.buf, l.head = l.buf[:0], 0 }

// undo writes the newest n bytes' worth of entries back to memory,
// newest-first, and discards them. The rewrites bypass Model.store, so the
// predecode cache is notified here: an undone store changes code bytes just
// as surely as the store did.
func (l *memLog) undo(m *Model, n int) {
	end := len(l.buf)
	stop := end - n
	for end > stop {
		hdr := binary.LittleEndian.Uint32(l.buf[end-4:])
		pa := binary.LittleEndian.Uint32(l.buf[end-memLogHeader:])
		size := int(hdr &^ zeroRun)
		end -= memLogHeader
		m.icache.noteStore(pa, size)
		if hdr&zeroRun != 0 {
			m.Mem.Fill(pa, size, 0)
			continue
		}
		end -= size
		m.Mem.Load(pa, l.buf[end:end+size])
	}
	l.buf = l.buf[:stop]
}

// ring is a queue of T in a power-of-two circular buffer. Elements are
// numbered from 0 in push order and number n lives in buf[n&(len(buf)-1)],
// so push and popBack at the tail and popFront at the head move no element.
type ring[T any] struct {
	buf        []T
	head, tail uint64 // live elements are numbers [head, tail)
}

func (r *ring[T]) len() int       { return int(r.tail - r.head) }
func (r *ring[T]) at(n uint64) *T { return &r.buf[n&uint64(len(r.buf)-1)] }
func (r *ring[T]) front() *T      { return r.at(r.head) }
func (r *ring[T]) back() *T       { return r.at(r.tail - 1) }

// push appends a slot and returns it; the caller overwrites it whole.
func (r *ring[T]) push() *T {
	if r.len() == len(r.buf) {
		grown := make([]T, max(2*len(r.buf), 64))
		for n := r.head; n != r.tail; n++ {
			grown[n&uint64(len(grown)-1)] = *r.at(n)
		}
		r.buf = grown
	}
	r.tail++
	return r.back()
}

// popFront and popBack return the removed slot, valid until the next push,
// so the caller can read it and clear whatever it references.
func (r *ring[T]) popFront() *T { r.head++; return r.at(r.head - 1) }
func (r *ring[T]) popBack() *T  { r.tail--; return r.at(r.tail) }

// ---------------------------------------------------------------------------
// journalEngine

// undoRecord captures everything needed to return the model to the state it
// held when the record opened. A record normally spans one instruction; the
// superblock executor (superblock.go) opens one record per *block* — kept
// open across the block's resumed segments while it is still the ring's
// tail — so a record spans [startIN, next record's startIN), or [startIN,
// m.in) for the open tail record. Memory, TLB and device pre-images live in
// the engine's shared stores; the record only says how much of each is its
// own.
//
// Commit reads startIN, memLen and side of records written a whole window
// ago, long out of the host's L1: they lead the struct so that a release
// touches one cache line of it, not the Scalars behind them.
type undoRecord struct {
	startIN uint64 // IN of the first instruction the record covers
	memLen  int    // bytes this record appended to journalEngine.mem
	side    bool   // the record owns one journalEngine.side entry
	halted  bool
	idle    uint64
	pre     Scalars
}

// sideUndo is the TLB and device pre-image of a record that touched either
// (bus first: release clears it without touching the TLB image).
type sideUndo struct {
	bus    fullsys.BusUndo
	busSet bool
	tlbSet bool
	tlbPre fullsys.TLB
}

// journalEngine keeps three flat stores released by index only: records and
// side entries in rings, old memory bytes in one log. All three are FIFO at
// commit and LIFO at rollback, in record order.
type journalEngine struct {
	recs ring[undoRecord]
	side ring[sideUndo]
	mem  memLog
}

// begin opens a record, written field by field into its ring slot.
func (j *journalEngine) begin(m *Model) {
	r := j.recs.push()
	r.startIN, r.memLen, r.side = m.in, 0, false
	r.halted, r.idle = m.halted, m.idle
	r.pre = m.Scalars
}

// abort discards the open record without applying it: its instruction never
// mutated anything, or its partial effects are deliberately left in place
// on a fatal stop, matching Step.
func (j *journalEngine) abort(*Model) {
	r := j.recs.popBack()
	j.mem.drop(r.memLen)
	if r.side {
		j.side.popBack().bus = fullsys.BusUndo{}
	}
}

// reset empties the journal (state restore).
func (j *journalEngine) reset() {
	for j.recs.len() > 0 {
		j.abort(nil)
	}
}

func (j *journalEngine) noteMem(m *Model, pa uint32, n int) {
	j.recs.back().memLen += j.mem.note(m, pa, n)
}

// sideFor returns the open record's side entry, creating it on first use.
func (j *journalEngine) sideFor() *sideUndo {
	if r := j.recs.back(); !r.side {
		r.side = true
		*j.side.push() = sideUndo{}
	}
	return j.side.back()
}

func (j *journalEngine) noteTLB(m *Model) {
	if s := j.sideFor(); !s.tlbSet {
		s.tlbPre = m.TLB.Snapshot()
		s.tlbSet = true
	}
}

func (j *journalEngine) noteBus(m *Model) {
	if s := j.sideFor(); !s.busSet {
		m.Bus.SaveUndo(&s.bus)
		s.busSet = true
	}
}

// noteIdle: idle ticks advance the bus outside any instruction, so a device
// event that fires during them would survive a rollback across the idle
// period. Before a tick on which one is due, the bus is captured into the
// newest record — the HALT (or whatever ran last before the idle) then
// rewinds it with everything else.
func (j *journalEngine) noteIdle(m *Model, ticks uint64) {
	if j.recs.len() > 0 && m.Bus.NextDue() <= m.Now()+ticks {
		j.noteBus(m)
	}
}

// commit releases records from the head while they are fully committed: a
// record is releasable only once every instruction it covers is <= in (for
// one-instruction records this reduces to startIN <= in). Release advances
// indices; the only slot contents touched are references that would
// otherwise pin a device capture until the ring wraps.
func (j *journalEngine) commit(m *Model, in uint64) {
	for j.recs.len() > 0 {
		end := m.in
		if j.recs.len() > 1 {
			end = j.recs.at(j.recs.head + 1).startIN
		}
		if end > in+1 {
			break
		}
		r := j.recs.popFront()
		j.mem.release(r.memLen)
		if r.side {
			j.side.popFront().bus = fullsys.BusUndo{}
		}
	}
}

// setPC pops records until the model sits at a record boundary at or below
// in, then — when in falls *inside* a block record — replays forward to in
// by re-executing from the restored state. The replay is deterministic: the
// restored state is bit-identical to the original block entry, and the
// block's entry check guarantees no device event or interrupt could fire
// inside the span. Replayed instructions are a host-side artifact of block-granular
// records, not the paper's §3.1 αBA re-execution, so they are *not* counted
// in ReExecuted (m.replay suppresses all statistics).
func (j *journalEngine) setPC(m *Model, in uint64, pc uint32) error {
	base := m.in
	if j.recs.len() > 0 {
		base = j.recs.front().startIN
	}
	if in < base {
		return fmt.Errorf("fm: set_pc(%d) below committed window (base %d)", in, base)
	}
	for m.in > in {
		j.undoTop(m)
	}
	if m.in < in {
		m.replay = true
		defer func() { m.replay = false }()
		for m.in < in {
			// Each replayed Step opens a fresh per-instruction record, so
			// the replayed prefix stays rollback-able.
			if !m.step() {
				return fmt.Errorf("fm: journal replay stalled at IN %d (target %d)", m.in, in)
			}
		}
	}
	m.PC = pc
	return nil
}

// undoTop restores everything the newest record captured — memory, TLB,
// device, scalar state and the instruction counter — and removes it. This
// is a real state rewind, unlike abort.
func (j *journalEngine) undoTop(m *Model) {
	r := j.recs.popBack()
	j.mem.undo(m, r.memLen)
	if r.side {
		s := j.side.popBack()
		if s.tlbSet {
			m.TLB.Restore(s.tlbPre)
		}
		if s.busSet {
			m.Bus.RestoreUndo(&s.bus)
			s.bus = fullsys.BusUndo{}
		}
	}
	m.Scalars = r.pre
	m.halted = r.halted
	m.idle = r.idle
	m.in = r.startIN
}

// window reports uncommitted instructions. With block-granularity records
// the record count undercounts, so the span is measured in INs — identical
// to the record count in the per-instruction case.
func (j *journalEngine) window(m *Model) int {
	if j.recs.len() == 0 {
		return 0
	}
	return int(m.in - j.recs.front().startIN)
}

// ---------------------------------------------------------------------------
// checkpointEngine

// segment is the log between two leapfrogging checkpoints.
type segment struct {
	startIN uint64
	pre     Scalars
	tlb     fullsys.TLB
	bus     fullsys.BusUndo
	halted  bool
	idle    uint64

	count   int // instructions executed in this segment
	base    int // the part of count that ran before the anchor (see take)
	memLen  int // bytes of checkpointEngine.mem logged across the segment
	idleLog []idleEvent
}

type idleEvent struct {
	afterIN uint64 // idle happened while the next IN would be this
	ticks   uint64
}

type checkpointEngine struct {
	interval int
	segs     ring[segment]
	mem      memLog // memory undo of every live segment, oldest first
	// ReExecuted counts instructions replayed during rollbacks — the §3.1
	// αBA extra work.
	reExecuted uint64
	replaying  bool
}

// DefaultCheckpointInterval is the checkpoint spacing a zero
// Config.CheckpointInterval selects.
const DefaultCheckpointInterval = 64

func newCheckpointEngine(interval int) *checkpointEngine {
	if interval < 1 {
		interval = DefaultCheckpointInterval
	}
	return &checkpointEngine{interval: interval}
}

func (c *checkpointEngine) begin(m *Model) {
	if c.segs.len() == 0 || (!c.replaying && c.segs.back().count >= c.interval) {
		c.take(m, 0)
	}
	c.segs.back().count++
}

// take opens a new checkpoint at the current state, standing for a segment
// already base instructions deep. base is non-zero only for the segment a
// snapshot load rebuilds: it is anchored at the restored state but stands
// for the cold run's segment, which began base instructions earlier. A
// replay cannot re-run those, but it counts and charges them, so checkpoint
// placement and ReExecuted continue the cold run's exactly. The ring slot's
// idle-log array is reused.
func (c *checkpointEngine) take(m *Model, base int) {
	s := c.segs.push()
	*s = segment{
		count:   base,
		base:    base,
		startIN: m.in,
		pre:     m.Scalars,
		tlb:     m.TLB.Snapshot(),
		halted:  m.halted,
		idle:    m.idle,
		idleLog: s.idleLog[:0],
	}
	m.Bus.SaveUndo(&s.bus)
}

func (c *checkpointEngine) abort(m *Model) {
	c.segs.back().count--
}

func (c *checkpointEngine) noteMem(m *Model, pa uint32, n int) {
	c.segs.back().memLen += c.mem.note(m, pa, n)
}

// noteTLB/noteBus: nothing per-instruction — the segment snapshot taken at
// the checkpoint covers TLB and device state, and replay regenerates the
// rest deterministically.
func (c *checkpointEngine) noteTLB(*Model) {}
func (c *checkpointEngine) noteBus(*Model) {}

func (c *checkpointEngine) noteIdle(m *Model, ticks uint64) {
	if c.segs.len() == 0 || c.replaying {
		return
	}
	s := c.segs.back()
	if n := len(s.idleLog); n > 0 && s.idleLog[n-1].afterIN == m.in {
		s.idleLog[n-1].ticks += ticks
		return
	}
	s.idleLog = append(s.idleLog, idleEvent{afterIN: m.in, ticks: ticks})
}

func (c *checkpointEngine) commit(m *Model, in uint64) {
	// Release checkpoints entirely below the commit frontier, always
	// keeping the one covering the first uncommitted instruction — the
	// "checkpoints are released and others are taken" leapfrog.
	for c.segs.len() > 1 && c.segs.at(c.segs.head+1).startIN <= in+1 {
		c.mem.release(c.segs.popFront().memLen)
	}
}

func (c *checkpointEngine) setPC(m *Model, in uint64, pc uint32) error {
	if c.segs.len() == 0 || in < c.segs.front().startIN {
		base := uint64(0)
		if c.segs.len() > 0 {
			base = c.segs.front().startIN
		}
		return fmt.Errorf("fm: set_pc(%d) below committed window (base %d)", in, base)
	}
	// Find the checkpoint at or below in.
	k := c.segs.tail - 1
	for k > c.segs.head && c.segs.at(k).startIN > in {
		k--
	}
	// Undo memory newest-segment-first, including the containing segment
	// (replay regenerates its prefix).
	undo := 0
	for i := k; i < c.segs.tail; i++ {
		undo += c.segs.at(i).memLen
	}
	c.mem.undo(m, undo)
	s := c.segs.at(k)
	m.Scalars = s.pre
	m.TLB.Restore(s.tlb)
	m.Bus.RestoreUndo(&s.bus)
	m.halted = s.halted
	m.idle = s.idle
	m.in = s.startIN
	// The re-taken checkpoint lands in s's slot and reuses its idle-log
	// array, which the replay below only reads.
	idleLog, base := s.idleLog, s.base
	c.segs.tail = k
	c.take(m, base)
	c.reExecuted += uint64(base)

	// Replay forward to in, feeding the logged idle periods so interrupt
	// timing reproduces exactly. Statistics are suppressed: the replayed
	// instructions were already counted the first time.
	c.replaying = true
	m.replay = true
	defer func() { c.replaying = false; m.replay = false }()
	li := 0
	for m.in < in {
		for li < len(idleLog) && idleLog[li].afterIN == m.in && m.halted {
			m.AdvanceIdle(idleLog[li].ticks)
			li++
		}
		if !m.step() {
			if m.halted && li < len(idleLog) && idleLog[li].afterIN == m.in {
				continue // consume the next idle event
			}
			return fmt.Errorf("fm: checkpoint replay stalled at IN %d (target %d)", m.in, in)
		}
		c.reExecuted++
	}
	// noteIdle is muted during replay, so the re-taken segment must inherit
	// the idle events the replay consumed: a second rollback into it replays
	// them again.
	c.segs.back().idleLog = idleLog[:li]
	m.PC = pc
	return nil
}

func (c *checkpointEngine) window(*Model) int {
	n := 0
	for i := c.segs.head; i < c.segs.tail; i++ {
		n += c.segs.at(i).count
	}
	return n
}

// ---------------------------------------------------------------------------
// Model-facing API (engine-independent)

// Commit releases rollback resources for instructions with numbers <= in.
// The timing model calls this as the ROB commits ("As commits return from
// the timing model, checkpoints are released and others are taken", §3.2).
func (m *Model) Commit(in uint64) { m.engine.commit(m, in) }

// JournalLen reports the number of uncommitted instructions (rollback
// window size).
func (m *Model) JournalLen() int { return m.engine.window(m) }

// ReExecuted returns instructions replayed by checkpoint rollbacks (0 for
// the journal engine) — §3.1's αBA extra work.
func (m *Model) ReExecuted() uint64 {
	if c, ok := m.engine.(*checkpointEngine); ok {
		return c.reExecuted
	}
	return 0
}

// SetPC implements the paper's set_pc command: "takes two arguments, an IN
// and a program counter (PC). Calling set_pc rolls back the functional
// model to that IN, removing the effects of that instruction, changing to
// the new PC and then executing from that PC on."
//
// After SetPC(in, pc), the next instruction the model produces has number
// in and executes at pc. Only non-committed instructions can be rolled
// back; in == IN() is a pure redirect (zero instructions undone).
func (m *Model) SetPC(in uint64, pc uint32) error {
	if in > m.in {
		return fmt.Errorf("fm: set_pc(%d) beyond produced instructions (next %d)", in, m.in)
	}
	m.cut.left = 0
	m.Rollbacks++
	m.obs.rollbacks.Inc()
	m.obs.journalDepth.Observe(float64(m.engine.window(m)))
	m.obs.rollbackDist.Observe(float64(m.in - in))
	// A fatal condition reached on the speculative path dies with the
	// re-steer: the faulting instruction was aborted (neither state nor IN
	// advanced), so redirecting supersedes it. A right-path fatal re-arises
	// deterministically on re-execution.
	m.fatal = nil
	if in == m.in {
		// Pure redirect: the TM re-steers the next instruction before the
		// FM ran ahead. Still a set_pc round trip, zero work undone.
		m.PC = pc
		return nil
	}
	undone := m.in - in
	m.RolledBack += undone
	m.obs.rolledBack.Add(undone)
	reBefore := m.ReExecuted()
	err := m.engine.setPC(m, in, pc)
	m.obs.reExecuted.Add(m.ReExecuted() - reBefore)
	return err
}
