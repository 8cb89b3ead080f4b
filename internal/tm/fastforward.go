package tm

import (
	"bytes"
	"math"
	"slices"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/trace"
)

// REP fast-forward. Inside a long REP the pipeline settles into a steady
// state: every P cycles it holds the same µops in the same places with the
// same relative readiness, shifted by P cycles and by the U µops cracked
// meanwhile. From then on a period changes only what leaves the pipeline —
// the data cache, the data TLB and the branch predictor, through the same
// calls in the same order — and counters that grow by the same amount each
// period. FastForward finds such a period, steps it once more to record those
// calls and amounts, and then jumps k periods at once: it replays the calls
// round by round until a round leaves everything it touches as it found it,
// adds the remaining rounds' counts in closed form, adds k times each amount
// and moves the pipeline on by k·P cycles and k·U sequence numbers. The
// result is bit-identical to stepping (DESIGN.md §7).

const (
	// ffArmUops is how many µops a decoded instruction must owe to arm the
	// fast-forward.
	ffArmUops = 1024
	// ffMaxPeriod is the longest period looked for, in cycles.
	ffMaxPeriod = 16
	// ffDetectCycles bounds the cycles fingerprinted per armed instruction.
	ffDetectCycles = 256
	// ffTouchBytes sizes the replay's scratch per call: a call's share of
	// a round's touched-state listing is about this long (appends grow it
	// where it is not).
	ffTouchBytes = 48
)

// ffCall is one call a recorded period made to a structure outside the
// pipeline.
type ffCall struct {
	kind ffKind
	// dL1: a store; predictor: taken
	flag   bool
	addr   isa.Word // dL1: physical address; dTLB: VPN; predictor: PC
	target isa.Word // predictor: target
}

type ffKind uint8

const (
	callDL1 ffKind = iota
	callDTLB
	callBP
)

func (c *ffCall) replay(t *TM) {
	switch c.kind {
	case callDL1:
		t.DL1.Access(c.addr, c.flag)
	case callDTLB:
		t.DTLB.Access(c.addr)
	default:
		t.BP.Update(c.addr, c.flag, c.target)
	}
}

// ffMark holds what a period changes by the same amount every time: the
// counters and the heads of the µop and memory-port sequences. It is read at
// the start of the recorded period and holds the differences once it ends.
type ffMark struct {
	stats        Stats
	fetchQ, uopQ ConnectorStats
	host         uint64
	unresolved   int
	uops         uint64 // nextUop
	mem          uint64 // memTail
	misses       uint64 // dL1 plus dTLB misses
}

// fastForward is the REP fast-forward's state. It is allocated the first
// time an instruction arms it, so a run without long REPs never pays for it.
type fastForward struct {
	armed  bool
	ins    uint64 // the armed instruction
	budget int    // cycles it may still fingerprint
	next   uint64 // the cycle of the next call, if nothing steps in between

	// Detection: the hashes of the fingerprints of consecutive cycles,
	// histN of them since the last reset, the i-th at hist[i%len(hist)].
	hist  [ffMaxPeriod + 1]uint64
	histN int
	cur   []uint64 // fingerprint scratch
	base  []uint64 // the fingerprint the recorded period started from

	// Recording: one period, stepped normally from cycle start.
	recording bool
	period    uint64
	start     uint64
	host      uint64              // host.total at the previous call
	charges   [ffMaxPeriod]uint64 // host cycles each cycle of the period charged
	calls     []ffCall            // preallocated; a period that overflows it is refused
	refused   bool                // a call the skip cannot replay: a mispredicted branch resolved
	at        ffMark

	// A recorded period the TM stands at the end of, ready to be skipped.
	primed bool
	delta  ffMark

	// The replay's scratch: what a round of the calls touches, listed
	// before and after it.
	before, after []byte

	skipped uint64 // cycles skipped so far (tests)
	periods uint64 // periods skipped so far
	rounds  uint64 // of those, rounds whose calls were replayed one by one
}

// arm starts looking for a steady state in the instruction just decoded.
func (t *TM) arm() {
	// fingerprint packs a µop's three producer distances into 21 bits each;
	// a ring under 2^20 slots keeps them inside.
	if t.ffOff || t.Probe != nil || t.cfg.Shared != nil || len(t.uops) >= 1<<20 {
		return
	}
	f := t.ff
	if f == nil {
		// Bounds of a fingerprint: the scalars and LSU stamps, both
		// connectors, the stations, the pending lists, four words per live
		// µop and one per live register writer (a µop writes at most one).
		uopCap := len(t.uops)
		words := 32 + len(t.lsuFreeAt) + 2*t.uopQ.cfg.MaxTransactions + 2*t.cfg.RSEntries + 7*uopCap
		calls := ffMaxPeriod * (2 + t.cfg.BranchUnits)
		f = &fastForward{
			cur:    make([]uint64, 0, words),
			base:   make([]uint64, 0, words),
			calls:  make([]ffCall, 0, calls),
			before: make([]byte, 0, ffTouchBytes*calls),
			after:  make([]byte, 0, ffTouchBytes*calls),
		}
		t.ff = f
	}
	f.armed, f.ins, f.budget = true, t.decIns, ffDetectCycles
	f.recording, f.primed, f.histN = false, false, 0
}

// RepArmed reports whether the decoder is inside a REP long enough for
// FastForward to look for a steady state; drivers call FastForward only then.
func (t *TM) RepArmed() bool { return t.ff != nil && t.ff.armed }

// FastForward skips whole periods of a long REP's steady state once the TM
// has found and recorded one. Drivers call it before each Step while
// RepArmed. It returns the periods skipped and the host cycles each cycle of
// a period charged, in order: the TM has moved on periods×len(charges)
// cycles, and a driver that meters host time per cycle repeats that metering
// over the charges. Zero periods means the caller steps as usual.
//
// limit is a cycle the skip must not pass. parked, when non-nil, reports
// whether the source is parked: it produces nothing and answers every fetch
// as it does now until the TM commits. A nil parked means a fixed trace: a
// period in which fetch waited for an entry is then never skipped.
func (t *TM) FastForward(limit uint64, parked func() bool) (periods uint64, charges []uint64) {
	if !t.RepArmed() {
		return 0, nil
	}
	f := t.ff
	if t.decIns != f.ins || t.decLeft == 0 {
		f.armed = false // the REP is over
		return 0, nil
	}
	if t.cycle != f.next {
		// The TM stepped without asking first: what was seen no longer
		// leads up to this cycle.
		f.recording, f.primed, f.histN = false, false, 0
	}
	f.next = t.cycle + 1
	switch {
	case f.primed:
		return t.skip(limit, parked)
	case f.recording:
		f.charges[t.cycle-1-f.start] = t.host.total - f.host
		f.host = t.host.total
		if t.cycle < f.start+f.period {
			return 0, nil
		}
		f.recording, f.histN = false, 0
		if t.confirm() {
			f.primed = true
			return t.skip(limit, parked)
		}
	default:
		t.detect()
	}
	return 0, nil
}

// detect fingerprints this cycle and, when it matches one of the last
// ffMaxPeriod cycles, starts recording a period of that length.
func (t *TM) detect() {
	f := t.ff
	if f.budget == 0 {
		f.armed = false
		return
	}
	f.budget--
	n, h := t.fingerprint()
	for p := 1; p <= min(f.histN, ffMaxPeriod); p++ {
		if f.hist[(f.histN-p)%len(f.hist)] == h {
			f.base = append(f.base[:0], f.cur[:n]...)
			f.recording, f.period, f.start, f.host = true, uint64(p), t.cycle, t.host.total
			f.calls, f.refused = f.calls[:0], false
			t.mark(&f.at)
			return
		}
	}
	f.hist[f.histN%len(f.hist)] = h
	f.histN++
}

// confirm ends the recorded period: it repeats exactly when the pipeline is
// back where it started (relatively), every data-side access hit — a hit
// changes no residency, so the replayed ones hit too — nothing committed and
// nothing needs a re-steer. It leaves the period's amounts in delta.
func (t *TM) confirm() bool {
	f := t.ff
	if n, _ := t.fingerprint(); f.refused || !slices.Equal(f.cur[:n], f.base) {
		return false
	}
	d := &f.delta
	t.mark(d)
	cur, at := d.stats.counters(), f.at.stats.counters()
	for i := range cur {
		*cur[i] -= *at[i]
	}
	d.fetchQ.sub(f.at.fetchQ)
	d.uopQ.sub(f.at.uopQ)
	d.host -= f.at.host
	d.unresolved -= f.at.unresolved
	d.uops -= f.at.uops
	d.mem -= f.at.mem
	d.misses -= f.at.misses
	return d.misses == 0 && d.stats.Instructions == 0 && d.uops > 0
}

// mark reads the counters and sequence heads into m.
func (t *TM) mark(m *ffMark) {
	*m = ffMark{
		stats:      t.Stats,
		fetchQ:     t.fetchQ.stats,
		uopQ:       t.uopQ.stats,
		host:       t.host.total,
		unresolved: t.unresolved,
		uops:       t.nextUop,
		mem:        t.memTail,
		misses:     t.DL1.Stats().Misses + t.DTLB.Stats().Misses,
	}
}

// skip jumps as many recorded periods as the REP and limit allow, keeping
// at least one µop to decode, if the source stays put meanwhile.
func (t *TM) skip(limit uint64, parked func() bool) (uint64, []uint64) {
	f := t.ff
	k := (t.decLeft - 1) / f.delta.uops
	last := true // the jump ends the REP's steady state
	if limit <= t.cycle {
		k = 0
	} else if room := (limit - t.cycle) / f.period; room < k {
		k, last = room, false
	}
	still := parked == nil && f.delta.stats.FetchBubbles == 0 || parked != nil && parked()
	if k == 0 || !still || t.Probe != nil {
		f.primed, f.histN = false, 0
		return 0, nil
	}
	t.jump(k)
	f.next = t.cycle // the next call finds the TM where the jump left it
	f.primed = !last
	f.armed = !last
	return k, f.charges[:f.period]
}

// jump moves the TM on k recorded periods from the end of the last one.
func (t *TM) jump(k uint64) {
	f := t.ff
	d := &f.delta
	c, head := t.cycle, t.robHead
	start := c - f.period
	dc, du, dm := k*f.period, k*d.uops, k*d.mem

	// What leaves the pipeline: the recorded calls, k times over.
	t.replayCalls(k)

	// Counters.
	dst, per := t.Stats.counters(), d.stats.counters()
	for i := range dst {
		*dst[i] += k * *per[i]
	}
	t.host.total += k * d.host
	t.unresolved += int(k) * d.unresolved
	t.decLeft -= du

	// Cycle stamps. One the period wrote is later than its start and moves
	// on; one it did not write is not (else the pipeline would not have
	// repeated) and stays. Stamps in the past only ever compare as past.
	if t.wake > c && t.wake != math.MaxUint64 {
		t.wake += dc
	}
	for i, at := range t.lsuFreeAt {
		if at > start {
			t.lsuFreeAt[i] += dc
		}
	}
	jumpConnector(t.fetchQ, start, dc, 0, d.fetchQ, k)
	jumpConnector(t.uopQ, start, dc, du, d.uopQ, k)

	// µop sequence numbers. A producer or writer at or below robHead has
	// committed and reads the same at any height, so only live ones move.
	// Consumer-list edges name live µops, or are never followed again, and
	// move with them. A µop's at is a producer's doneCycle: a live
	// producer's moves, and a committed one's is past either way.
	rotate(t.uops, du)
	for s := head + du; s < t.nextUop+du; s++ {
		u := t.uop(s)
		for i, p := range u.deps {
			if p > head {
				u.deps[i] = p + du
			}
			if u.next[i] != 0 {
				u.next[i] += 3 * du
			}
		}
		if u.cons != 0 {
			u.cons += 3 * du
		}
		if u.issued {
			u.doneCycle += dc
		}
		u.at += dc
	}
	for r, w := range t.regWriter {
		if w > head {
			t.regWriter[r] = w + du
		}
	}
	if t.ccWriter > head {
		t.ccWriter += du
	}
	for _, list := range [...][]uint64{t.rs, t.pendingBranches, t.pendingMisses} {
		for i := range list {
			list[i] += du
		}
	}
	rotate(t.memQ, dm)
	t.memHead += dm
	t.memTail += dm
	for m := t.memHead; m != t.memTail; m++ {
		t.memQ[m&t.memMask] += du
	}
	t.robHead += du
	t.robTail += du
	t.nextUop += du
	t.cycle += dc
	f.skipped += dc
}

// replayCalls makes the recorded calls k times over. It replays them round
// by round only until a round leaves everything it touches as it found it:
// the dL1 sets' LRU ages and dirty bits, the predictor's history, the
// counters it trains and the BTB sets. Every later round then changes only
// what the last one did outside that state — the dL1 and dTLB counters and
// the dTLB's touch clock, whose touched entries move with it — which Repeat
// adds for the remaining rounds at once.
func (t *TM) replayCalls(k uint64) {
	f := t.ff
	r := uint64(0)
	for r < k {
		f.before = t.touched(f.before[:0])
		dl1, dtlb := t.DL1.Stats(), t.DTLB.Stats()
		for i := range f.calls {
			f.calls[i].replay(t)
		}
		r++
		if f.after = t.touched(f.after[:0]); bytes.Equal(f.before, f.after) {
			t.DL1.Repeat(dl1, k-r)
			t.DTLB.Repeat(dtlb, k-r)
			break
		}
	}
	f.periods += k
	f.rounds += r
}

// touched appends to dst the state a round of the recorded calls touches,
// other than the dTLB's: the dL1 sets they hit and what the predictor
// updates read or write.
func (t *TM) touched(dst []byte) []byte {
	w, dst := bpred.NewWalk(dst, t.BP)
	for i := range t.ff.calls {
		switch c := &t.ff.calls[i]; c.kind {
		case callDL1:
			dst = t.DL1.AppendSet(dst, c.addr)
		case callBP:
			dst = w.Next(dst, c.addr, c.flag)
		}
	}
	return dst
}

// jumpConnector moves a front-end connector on by k periods of dc cycles:
// the put/get stamps the period wrote, the queued items (by dv sequence
// numbers; the fetch queue, whose items the period did not touch, passes 0)
// and the statistics.
func jumpConnector(q *Connector[uint64], start, dc, dv uint64, d ConnectorStats, k uint64) {
	if q.putCycle >= start {
		q.putCycle += dc
	}
	if q.getCycle >= start {
		q.getCycle += dc
	}
	if dv != 0 {
		for i := range q.n {
			it := q.at(i)
			it.v += dv
			it.ready += dc
		}
	}
	s := &q.stats
	s.Puts += k * d.Puts
	s.Gets += k * d.Gets
	s.PutStalls += k * d.PutStalls
	s.GetStalls += k * d.GetStalls
	s.OccupancySum += k * d.OccupancySum
}

func (s *ConnectorStats) sub(at ConnectorStats) {
	s.Puts -= at.Puts
	s.Gets -= at.Gets
	s.PutStalls -= at.PutStalls
	s.GetStalls -= at.GetStalls
	s.OccupancySum -= at.OccupancySum
}

// counters lists every Stats counter.
func (s *Stats) counters() (c [13 + int(isa.NumClasses)]*uint64) {
	head := [...]*uint64{&s.Cycles, &s.Instructions, &s.UOps, &s.BasicBlocks, &s.DrainCycles,
		&s.FetchBubbles, &s.ICacheStalls, &s.Mispredicts, &s.Exceptions, &s.Serializes,
		&s.RSFullStalls, &s.ROBFullStalls, &s.LSQFullStalls}
	n := copy(c[:], head[:])
	for i := range s.IssuedByClass {
		c[n+i] = &s.IssuedByClass[i]
	}
	return c
}

// rotate moves every element of the ring s by n places: what was at i is
// then at (i+n) mod len(s).
func rotate[T any](s []T, n uint64) {
	if n %= uint64(len(s)); n != 0 {
		slices.Reverse(s)
		slices.Reverse(s[:n])
		slices.Reverse(s[n:])
	}
}

// logMem records the data-side calls of a memory µop's access.
func (f *fastForward) logMem(e *trace.Entry, store bool, vpn isa.Word) {
	if !e.Kernel {
		f.log(ffCall{kind: callDTLB, addr: vpn})
	}
	f.log(ffCall{kind: callDL1, addr: e.MemPA, flag: store})
}

// logUpdate records a predictor update; a mispredicted branch re-steers the
// source, which a skip cannot replay.
func (f *fastForward) logUpdate(e *trace.Entry, mispredicted bool) {
	f.refused = f.refused || mispredicted
	f.log(ffCall{kind: callBP, addr: e.PC, flag: e.Taken, target: e.NextPC})
}

func (f *fastForward) log(c ffCall) {
	if len(f.calls) == cap(f.calls) {
		f.refused = true
		return
	}
	f.calls = append(f.calls, c)
}

// fingerprint writes into f.cur the canonical form of everything Step reads,
// relative to the cycle and to nextUop, and returns its length and a hash.
// A cycle stamp reads as how far ahead it is (0 once past); a producer or
// register writer as 0 (none), 1 (committed) or 2 + its distance below
// nextUop. Trace entries are not copied: instruction sequence numbers stay
// put while a REP decodes, so naming an instruction names its entry.
func (t *TM) fingerprint() (int, uint64) {
	c, head, next := t.cycle, t.robHead, t.nextUop
	rel := func(at uint64) uint64 {
		if at > c {
			return at - c
		}
		return 0
	}
	seq := func(p uint64) uint64 {
		switch {
		case p == 0:
			return 0
		case p <= head:
			return 1
		}
		return next - p + 2
	}
	var flags uint64
	if t.recovering {
		flags |= 1
	}
	if t.ended {
		flags |= 2
	}
	if t.unresolved >= t.cfg.MaxNestedBranches {
		flags |= 4
	}
	wake := uint64(math.MaxUint64)
	if t.wake != wake {
		wake = rel(t.wake)
	}
	fp := append(t.ff.cur[:0], t.decIns, uint64(t.decIdx), t.nextInstr, t.fetchIN, flags,
		rel(t.refillUntil), rel(t.icacheStallUntil), wake,
		next-head, next-t.robTail, uint64(t.lsqCount), seq(t.ccWriter))
	for _, at := range t.lsuFreeAt {
		fp = append(fp, rel(at))
	}
	fp = append(fp, uint64(t.fetchQ.n))
	if t.fetchQ.n > 0 {
		fp = append(fp, rel(t.fetchQ.at(0).ready))
	}
	fp = append(fp, uint64(t.uopQ.n))
	for i := range t.uopQ.n {
		it := t.uopQ.at(i)
		fp = append(fp, next-it.v, rel(it.ready))
	}
	fp = append(fp, uint64(len(t.rs)))
	for _, s := range t.rs {
		fp = append(fp, next-s)
	}
	fp = append(fp, t.memTail-t.memHead)
	for m := t.memHead; m != t.memTail; m++ {
		fp = append(fp, next-t.memQ[m&t.memMask])
	}
	fp = append(fp, uint64(len(t.pendingBranches)))
	for _, s := range t.pendingBranches {
		fp = append(fp, next-s)
	}
	fp = append(fp, uint64(len(t.pendingMisses)))
	for _, s := range t.pendingMisses {
		fp = append(fp, next-s)
	}
	for s := head; s < next; s++ {
		u := t.uop(s)
		var done, bits uint64
		if u.issued {
			done = 1 + rel(u.doneCycle)
		}
		if u.last {
			bits |= 1 << 16
		}
		if u.isMem {
			bits |= 1 << 17
		}
		fp = append(fp, u.ins, seq(u.deps[0])|seq(u.deps[1])<<21|seq(u.deps[2])<<42, done,
			bits|uint64(u.kind)|uint64(u.class)<<8)
	}
	// The rename table last, as (register, writer) pairs of its live
	// writers: the µop count above already fixes where this part starts.
	for r, w := range t.regWriter {
		if w > head {
			fp = append(fp, uint64(r)<<32|seq(w))
		}
	}
	t.ff.cur = fp
	h := uint64(len(fp))
	for _, w := range fp {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return len(fp), h
}
