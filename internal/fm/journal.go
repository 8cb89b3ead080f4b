package fm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"repro/internal/fullsys"
)

// The functional model rolls back with one engine, the mechanism of §3.2:
// "periodic software checkpoints of architectural state along with memory
// and I/O logging. At least two checkpoints that leapfrog each other are
// maintained to ensure that the functional model can rollback to any
// non-committed instruction."
//
// A checkpoint is an undoRecord: the register, memory, TLB and device
// pre-images of every instruction it covers and the inputs (idle ticks,
// redirects) that arrived between them.
// A new record opens every Config.CheckpointInterval instructions. At an
// interval of 0 one opens per instruction, or per superblock
// (superblock.go), and the engine is an undo journal: SetPC pops records
// and re-executes only inside a superblock's. At an interval of N (ablation
// A7) SetPC restores the record that contains its target and re-executes
// forward to it; those instructions are the αBA cost of §3.1's analytical
// model, which ReExecuted counts.

// DefaultCheckpointInterval is the checkpoint spacing sim's "checkpoint"
// rollback selects when it names none.
const DefaultCheckpointInterval = 64

// memLog is the journal's arena of pre-images, shared by every record.
// Each note appends one entry — the old bytes, then two little-endian
// uint32s: an address and a header holding the payload length and the
// entry's kind — and the journal counts the bytes each record appended.
// The header trails the payload so the log can be walked newest-first.
// Most entries are memory: n bytes about to be overwritten at pa. A
// string-store run whose old bytes are all zero (memory the target never
// wrote) is logged as its header alone, flagged zeroRun. A regsEntry holds
// the Scalars words a record changed, its address field their mask; a
// tlbEntry holds the whole TLB. Release follows the records' lifetimes:
// FIFO at the head when the timing model commits, LIFO at the tail on
// rollback; neither moves a byte, and the steady state allocates nothing.
type memLog struct {
	buf        []byte
	head, tail int // buf[head:tail] is live, buf[:head] committed space awaiting reuse
}

const (
	memLogHeader = 8
	zeroRun      = 1 << 31 // header flag: the old bytes were all zero
	regsEntry    = 1 << 30 // header flag: the payload is changed Scalars words
	tlbEntry     = 1 << 29 // header flag: the payload is the TLB
	zeroScanMin  = 64      // shorter entries (scalar stores) are not scanned
)

// The register and TLB pre-images are logged as the bytes of the structs
// themselves. Neither holds a pointer, and only bytes read from a value of
// the same type are ever written back into one, so every field restored
// holds a value that field held.
// Scalars, which holds float64s, is a whole number of 8-byte words, and a
// regsEntry's mask has a bit for each.
const scalarWords = unsafe.Sizeof(Scalars{}) / 8

var _ [32 - scalarWords]struct{} // the mask is a uint32

func wordsOf(s *Scalars) *[scalarWords]uint64 { return (*[scalarWords]uint64)(unsafe.Pointer(s)) }

func tlbBytes(t *fullsys.TLB) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(t)), unsafe.Sizeof(*t))
}

// zeros is what a zero-run entry's old bytes are compared with.
var zeros [fullsys.PageSize]byte

// note saves the n bytes at pa and returns the log bytes appended. n bytes
// at pa must span at most two pages (undo issues one noteStore per entry),
// and n is at most a page.
func (l *memLog) note(m *Model, pa uint32, n int) int {
	if !l.fits(n) {
		l.makeRoom(n)
	}
	old := l.buf[l.tail : l.tail+n]
	m.Mem.CopyOut(old, pa)
	hdr := uint32(n)
	if n >= zeroScanMin && bytes.Equal(old, zeros[:n]) {
		hdr, n = zeroRun|hdr, 0
	}
	return l.seal(n, pa, hdr)
}

// noteRegs logs the words of cur that differ from pre, pre's values, and
// brings pre up to cur.
func (l *memLog) noteRegs(cur, pre *Scalars) int {
	c, p := wordsOf(cur)[:], wordsOf(pre)[:scalarWords]
	if !l.fits(8 * len(c)) {
		l.makeRoom(8 * len(c))
	}
	old, n, mask := l.buf[l.tail:], 0, uint32(0)
	for i := range c {
		if c[i] != p[i] {
			binary.LittleEndian.PutUint64(old[n:], p[i])
			p[i] = c[i]
			n += 8
			mask |= 1 << i
		}
	}
	if mask == 0 {
		return 0
	}
	return l.seal(n, mask, regsEntry|uint32(n))
}

// noteTLB logs the whole TLB.
func (l *memLog) noteTLB(t *fullsys.TLB) int {
	img := tlbBytes(t)
	if !l.fits(len(img)) {
		l.makeRoom(len(img))
	}
	copy(l.buf[l.tail:], img)
	return l.seal(len(img), 0, tlbEntry|uint32(len(img)))
}

// fits reports whether an entry with an n-byte payload fits at the log's
// end; if not, makeRoom(n) makes it fit. The payload is written at
// buf[tail:] and seal closes the entry with its header. (The check is
// inlined at each call site: a helper that also called makeRoom would
// not be, and the check runs for every store.)
func (l *memLog) fits(n int) bool { return l.tail+n+memLogHeader <= len(l.buf) }

// seal appends the header of an entry with n payload bytes and returns the
// log bytes the entry took.
func (l *memLog) seal(n int, addr, hdr uint32) int {
	end := l.tail + n
	binary.LittleEndian.PutUint32(l.buf[end:], addr)
	binary.LittleEndian.PutUint32(l.buf[end+4:], hdr)
	l.tail = end + memLogHeader
	return n + memLogHeader
}

// makeRoom reclaims the released prefix by sliding the live span to the
// front, but only once the prefix is at least as long as the span, so each
// byte moves O(1) times amortised; otherwise the buffer doubles. n is the
// payload of the entry to make room for.
func (l *memLog) makeRoom(n int) {
	size, live := n+memLogHeader, l.tail-l.head
	if l.head < live || live+size > len(l.buf) {
		grown := make([]byte, max(2*len(l.buf), live+size, 4096))
		copy(grown, l.buf[l.head:l.tail])
		l.buf = grown
	} else {
		copy(l.buf, l.buf[l.head:l.tail])
	}
	l.head, l.tail = 0, live
}

// release frees the oldest n bytes (commit).
func (l *memLog) release(n int) {
	if l.head += n; l.head == l.tail {
		l.head, l.tail = 0, 0
	}
}

// reset empties the log (state restore).
func (l *memLog) reset() { l.head, l.tail = 0, 0 }

// undo writes the newest n bytes' worth of entries back, newest-first, and
// discards them: register words to regs, the TLB and memory to m's. Memory
// rewrites bypass Model.store, so the predecode cache is notified here: an
// undone store changes code bytes just as surely as the store did.
func (l *memLog) undo(m *Model, regs *Scalars, n int) {
	end := l.tail
	stop := end - n
	for end > stop {
		hdr := binary.LittleEndian.Uint32(l.buf[end-4:])
		addr := binary.LittleEndian.Uint32(l.buf[end-memLogHeader:])
		size := int(hdr &^ (zeroRun | regsEntry | tlbEntry))
		end -= memLogHeader
		if hdr&zeroRun != 0 {
			m.icache.noteStore(addr, size)
			m.Mem.Fill(addr, size, 0)
			continue
		}
		end -= size
		old := l.buf[end : end+size]
		switch {
		case hdr&regsEntry != 0:
			w := wordsOf(regs)
			for mask := addr; mask != 0; mask &= mask - 1 {
				w[bits.TrailingZeros32(mask)] = binary.LittleEndian.Uint64(old)
				old = old[8:]
			}
		case hdr&tlbEntry != 0:
			copy(tlbBytes(&m.TLB), old)
		default:
			m.icache.noteStore(addr, size)
			m.Mem.Load(addr, old)
		}
	}
	l.tail = stop
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

// undoRecord is one checkpoint: everything needed to return the model to the
// state it held when the record opened. It spans [startIN, next record's
// startIN), or [startIN, m.in) for the open tail record. Its pre-images
// live in the journal's shared stores; the record only says how much of
// each is its own. The TLB and device pre-images are taken on the record's
// first write to either, as nothing changes them before it. The register
// pre-image is taken when the record closes, by comparing the registers
// with journal.pre, so it holds only the words the record changed and no
// write to a register needs a hook.
type undoRecord struct {
	startIN uint64 // IN of the first instruction the record covers
	idle    uint64
	logLen  int    // bytes this record appended to journal.mem
	inputN  uint32 // journal.inputs entries this record owns
	halted  bool
	bus     bool // the record owns one journal.bus entry
	tlb     bool // the record logged the TLB
}

// input is something that moved the model between two instructions, which
// a replay must feed again: ticks advanced while halted, or a SetPC
// redirect to pc. afterIN is the IN of the instruction it preceded.
type input struct {
	afterIN  uint64
	ticks    uint64
	pc       uint32
	redirect bool
}

// journal keeps four flat stores released by index only: records, device
// captures and inputs in rings, register, TLB and memory pre-images in one
// log. All four are FIFO at commit and LIFO at rollback, in record order.
type journal struct {
	interval int // instructions per record; 0 = one per instruction or superblock
	recs     ring[undoRecord]
	bus      ring[fullsys.BusUndo]
	inputs   ring[input] // logged at a checkpoint interval above 0 only
	mem      memLog
	// pre is the registers as they stood when the tail record opened, or
	// when a rollback last returned to it: what the next open compares the
	// registers with, logging the words that differ in the tail. So the tail
	// covers every register write, a redirect's or an exported field's
	// included, until a later record opens.
	pre Scalars
	// base is how many instructions the head record stands for before its
	// startIN: non-zero only for the record a snapshot load opens, which
	// continues the cold run's open checkpoint (Model.State). A replay
	// cannot re-run those instructions but charges them, so checkpoint
	// placement and reExecuted continue the cold run's exactly.
	base int
	// reExecuted counts the instructions checkpoint rollbacks re-executed.
	reExecuted uint64
}

// begin is called before an instruction's, or a superblock's, first
// mutation. It opens a record when the tail has covered its interval — at
// an interval of 0, always — but in checkpoint mode never during a replay,
// whose instructions re-enter the checkpoint the rollback restored.
func (j *journal) begin(m *Model) {
	if j.recs.len() == 0 || j.interval == 0 || !m.replay && j.covered(m) >= j.interval {
		j.open(m)
	}
}

// open closes the tail, logging the registers it changed, and pushes a
// record at the model's current state.
func (j *journal) open(m *Model) {
	if j.recs.len() > 0 {
		j.recs.back().logLen += j.mem.noteRegs(&m.Scalars, &j.pre)
	} else {
		j.pre = m.Scalars
	}
	*j.recs.push() = undoRecord{startIN: m.in, idle: m.idle, halted: m.halted}
}

// covered reports the instructions the tail record stands for.
func (j *journal) covered(m *Model) int {
	n := int(m.in - j.recs.back().startIN)
	if j.recs.len() == 1 {
		n += j.base
	}
	return n
}

// abort returns the model to its state before the instruction begin was
// called for, which stopped on a fatal condition without being produced: a
// wrong-path fatal stop leaves nothing behind for SetPC's redirect to
// inherit. In checkpoint mode that re-executes the record's earlier
// instructions, which ReExecuted does not count.
func (j *journal) abort(m *Model) {
	fatal := m.fatal
	m.fatal = nil
	j.rewind(m, m.in, true)
	m.fatal = fatal
}

// reset empties the journal without applying it (state restore).
func (j *journal) reset() {
	for j.bus.len() > 0 {
		*j.bus.popBack() = fullsys.BusUndo{}
	}
	j.recs.head, j.inputs.head = j.recs.tail, j.inputs.tail
	j.mem.reset()
	j.base = 0
}

func (j *journal) noteMem(m *Model, pa uint32, n int) {
	j.recs.back().logLen += j.mem.note(m, pa, n)
}

// noteTLB is called before a TLB mutation.
func (j *journal) noteTLB(m *Model) {
	if r := j.recs.back(); !r.tlb {
		r.tlb = true
		r.logLen += j.mem.noteTLB(&m.TLB)
	}
}

// noteBus is called before a device mutation. Release clears a capture,
// so that a dead slot pins nothing; push hands out cleared slots.
func (j *journal) noteBus(m *Model) {
	if r := j.recs.back(); !r.bus {
		r.bus = true
		m.Bus.SaveUndo(j.bus.push())
	}
}

// noteIdle is called before ticks advance while halted. The ticks advance
// the bus outside any instruction, so before a tick on which a device event
// is due the bus is captured into the newest record — the HALT's, or
// whatever ran last before the idle — and a rollback across the idle period
// rewinds the event with everything else. In checkpoint mode the ticks are
// logged there too (merged per IN), for a replay across the period to feed.
func (j *journal) noteIdle(m *Model, ticks uint64) {
	if j.recs.len() == 0 {
		return
	}
	if m.Bus.NextDue() <= m.Now()+ticks {
		j.noteBus(m)
	}
	if j.interval == 0 || m.replay {
		return
	}
	if j.recs.back().inputN > 0 {
		if last := j.inputs.back(); !last.redirect && last.afterIN == m.in {
			last.ticks += ticks
			return
		}
	}
	j.log(input{afterIN: m.in, ticks: ticks})
}

// log appends an input to the tail record's log.
func (j *journal) log(e input) {
	*j.inputs.push() = e
	j.recs.back().inputN++
}

// commit releases records from the head while they are fully committed: a
// record is releasable once every instruction it covers is <= in, and in
// checkpoint mode once it is not the tail, which later instructions join.
// Release advances indices; the only slot contents touched are references
// that would otherwise pin a device capture until the ring wraps.
func (j *journal) commit(m *Model, in uint64) {
	for j.recs.len() > 0 {
		end := m.in
		if j.recs.len() > 1 {
			end = j.recs.at(j.recs.head + 1).startIN
		} else if j.interval > 0 {
			return
		}
		if end > in+1 {
			return
		}
		r := j.recs.popFront()
		j.mem.release(r.logLen)
		j.inputs.head += uint64(r.inputN)
		if r.bus {
			*j.bus.popFront() = fullsys.BusUndo{}
		}
		j.base = 0
	}
}

// undoTop restores everything the newest record captured — memory, TLB,
// device, scalar state and the instruction counter — and removes it with
// its inputs. Its register words are undone onto pre, which then holds the
// registers as the record below closed them, so the next open logs in that
// record whatever changes them before then (SetPC's redirect). It returns
// the removed slot, valid until the next open; the inputs it owned stay
// readable past the ring's tail until the next push.
func (j *journal) undoTop(m *Model) *undoRecord {
	r := j.recs.popBack()
	j.mem.undo(m, &j.pre, r.logLen)
	if r.bus {
		b := j.bus.popBack()
		m.Bus.RestoreUndo(b)
		*b = fullsys.BusUndo{}
	}
	j.inputs.tail -= uint64(r.inputN)
	m.Scalars = j.pre
	m.halted, m.idle, m.in = r.halted, r.idle, r.startIN
	return r
}

// rewind returns the model to its state before instruction in, which lies
// in the window: it undoes the records above in, restores the one that
// contains it and re-executes forward to in, feeding the inputs that record
// logged at the INs they were logged at, so interrupt timing and redirects
// reproduce exactly. Inputs logged at in itself are fed too when at is set
// (abort: they preceded the instruction); SetPC drops them, as its
// redirect supersedes them. In checkpoint mode the restored record is
// opened again at once and the re-executed instructions join it; at an
// interval of 0 each opens its own record, so the replayed prefix of a
// superblock stays rollback-able. The replay is deterministic — the
// restored state is bit-identical to the record's — and statistics are
// suppressed (m.replay), as the instructions were counted the first time.
// rewind returns the instructions the replay stands for: those re-executed
// plus the base of a restored snapshot-anchored record.
func (j *journal) rewind(m *Model, in uint64, at bool) (uint64, error) {
	for j.recs.back().startIN > in {
		j.undoTop(m)
	}
	logged := uint64(j.undoTop(m).inputN)
	first := j.inputs.tail
	replayed := uint64(0)
	if j.interval > 0 {
		j.open(m)
		if j.recs.len() == 1 {
			replayed = uint64(j.base)
		}
	}
	replay := m.replay
	m.replay = true
	defer func() { m.replay = replay }()
	fed := uint64(0)
	for {
		if fed < logged {
			if e := j.inputs.at(first + fed); e.afterIN == m.in && (m.in < in || at) {
				if e.redirect {
					m.PC = e.pc
				} else {
					m.AdvanceIdle(e.ticks)
				}
				fed++
				continue
			}
		}
		if m.in == in {
			break
		}
		if !m.step() {
			return replayed, fmt.Errorf("fm: replay stalled at IN %d (target %d)", m.in, in)
		}
		replayed++
	}
	if fed > 0 {
		// The inputs the replay fed stay logged, in the record it ran in.
		j.inputs.tail += fed
		j.recs.back().inputN += uint32(fed)
	}
	return replayed, nil
}

// Commit releases rollback resources for instructions with numbers <= in.
// The timing model calls this as the ROB commits ("As commits return from
// the timing model, checkpoints are released and others are taken", §3.2).
func (m *Model) Commit(in uint64) { m.journal.commit(m, in) }

// Checkpoint opens a fresh checkpoint at the model's current state once
// the open one covers an instruction, so no later rollback restores a
// state from before this point: the multicore quantum boundary, past which
// other cores read and overwrite what this core stored. At an interval of
// 0 every record already ends at an instruction.
func (m *Model) Checkpoint() {
	if j := &m.journal; j.interval > 0 && j.recs.len() > 0 && m.in > j.recs.back().startIN {
		j.open(m)
	}
}

// JournalLen reports the number of uncommitted instructions (rollback
// window size), counting a snapshot-anchored record's base.
func (m *Model) JournalLen() int {
	j := &m.journal
	if j.recs.len() == 0 {
		return 0
	}
	return int(m.in-j.recs.front().startIN) + j.base
}

// ReExecuted returns the instructions checkpoint rollbacks re-executed —
// §3.1's αBA extra work; always 0 at a checkpoint interval of 0, whose
// superblock replays are a host-side artifact and not counted.
func (m *Model) ReExecuted() uint64 { return m.journal.reExecuted }

// SetPC implements the paper's set_pc command: "takes two arguments, an IN
// and a program counter (PC). Calling set_pc rolls back the functional
// model to that IN, removing the effects of that instruction, changing to
// the new PC and then executing from that PC on."
//
// After SetPC(in, pc), the next instruction the model produces has number
// in and executes at pc. Only non-committed instructions can be rolled
// back; in == IN() is a pure redirect (zero instructions undone). In
// checkpoint mode the redirect is logged as an input, so a later rollback
// that re-executes across in follows pc again.
func (m *Model) SetPC(in uint64, pc uint32) error {
	if in > m.in {
		return fmt.Errorf("fm: set_pc(%d) beyond produced instructions (next %d)", in, m.in)
	}
	j := &m.journal
	base := m.in
	if j.recs.len() > 0 {
		base = j.recs.front().startIN
	}
	if in < base {
		return fmt.Errorf("fm: set_pc(%d) below committed window (base %d)", in, base)
	}
	m.cut.left = 0
	m.Rollbacks++
	m.obs.rollbacks.Inc()
	m.obs.journalDepth.Observe(float64(m.JournalLen()))
	m.obs.rollbackDist.Observe(float64(m.in - in))
	// A fatal condition reached on the speculative path dies with the
	// re-steer: abort returned the model to its state before the faulting
	// instruction and IN did not advance, so redirecting supersedes it. A
	// right-path fatal re-arises deterministically on re-execution.
	m.fatal = nil
	if in < m.in {
		undone := m.in - in
		m.RolledBack += undone
		m.obs.rolledBack.Add(undone)
		replayed, err := j.rewind(m, in, false)
		if j.interval > 0 {
			j.reExecuted += replayed
			m.obs.reExecuted.Add(replayed)
		}
		if err != nil {
			return err
		}
	}
	m.PC = pc
	if j.interval > 0 && j.recs.len() > 0 {
		j.log(input{afterIN: in, pc: pc, redirect: true})
	}
	return nil
}
