package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Buffer is the trace buffer (TB) coupling the functional model (producer)
// to the timing model (consumer), with the semantics of Figures 1 and 2:
//
//   - Entries are indexed by instruction number (IN). The FM publishes
//     entries in IN order at the tail.
//   - An entry holds information used by multiple pipeline stages and "is
//     thus not deallocated until the instruction is fully committed": the
//     commit pointer, advanced by the TM, frees space.
//   - On a re-steer (mis-speculation or resolution) the FM rewinds the tail
//     to the re-steered IN and overwrites the incorrect-path entries, as I4*
//     and I5* overwrite I3..I5 in Figure 2.
//
// The buffer is safe for one producer and one consumer goroutine, and it
// never blocks: a publish that does not fit and a fetch of an unproduced IN
// report so and return. Under the inline and round-robin policies one
// goroutine plays both sides; under the producer policy the two sides wait
// on the coupling's own notify channel (core's asyncLink), not on the buffer.
//
// Synchronization granularity: taking the lock once per instruction is
// exactly the fine-grained cross-partition overhead §3.1's Amdahl model
// warns about, so the API is chunked end to end. TryPushChunk and
// TryFetchChunk (and the Appender built on top) amortize one lock acquire
// over a whole chunk of entries, the software analogue of the paper's packed
// trace records streaming in bursts; per-entry coupling is a chunk of one.
// The commit pointer is the one thing the producer polls every target cycle
// while it is parked a full buffer ahead, so it alone is atomic: written
// under mu, read by Committed with no lock.
type Buffer struct {
	mu     sync.Mutex
	ring   []Entry
	commit atomic.Uint64 // oldest live IN (everything below is committed & freed)
	next   uint64        // next IN to be produced (tail)

	// Peak occupancy statistic.
	maxOccupancy int
}

// NewBuffer creates a trace buffer holding capacity in-flight instructions.
// Capacity bounds FM run-ahead: the paper's prototype sizes it so the FM can
// speculate well past the TM without unbounded memory.
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		panic("trace: buffer capacity must be positive")
	}
	return &Buffer{ring: make([]Entry, capacity)}
}

// Cap returns the buffer capacity.
func (b *Buffer) Cap() int { return len(b.ring) }

// TryPushChunk publishes a contiguous run of entries — es[0] must carry the
// next unproduced IN — with one lock acquire. It is all-or-nothing: if the
// buffer lacks space for every entry nothing is stored and ok is false. It
// returns the occupancy after the call (live entries, for producer-side flow
// control and telemetry sampling).
func (b *Buffer) TryPushChunk(es []Entry) (occupancy int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	commit := b.commit.Load()
	if b.next-commit+uint64(len(es)) > uint64(len(b.ring)) {
		return int(b.next - commit), false
	}
	for i := range es {
		if es[i].IN != b.next+uint64(i) {
			panic(fmt.Sprintf("trace: chunk entry %d has IN %d, expected %d",
				i, es[i].IN, b.next+uint64(i)))
		}
	}
	// Two copies handle the ring wrap without a per-entry modulo.
	idx := int(b.next % uint64(len(b.ring)))
	n := copy(b.ring[idx:], es)
	copy(b.ring, es[n:])
	b.next += uint64(len(es))
	occ := int(b.next - commit)
	if occ > b.maxOccupancy {
		b.maxOccupancy = occ
	}
	return occ, true
}

// TryFetchChunk copies up to len(dst) consecutive live entries starting at
// instruction number in into dst, under one lock acquire, and returns how
// many were copied (0 if in is not live: unproduced, discarded by a rewind,
// or already committed). The copies form a consumer-owned view: a later
// Rewind past in invalidates the buffer's own entries but never mutates dst
// — consumers that can observe re-steers must drop their view when they
// issue one. After a Rewind past in, the entry eventually produced at in is
// the *replacement* (correct-path) instruction — exactly the Figure 2
// overwrite — so a TM that stalls waiting for IN k always receives the
// current functional path's instruction k.
func (b *Buffer) TryFetchChunk(in uint64, dst []Entry) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if in >= b.next || in < b.commit.Load() {
		return 0
	}
	n := len(dst)
	if live := int(b.next - in); live < n {
		n = live
	}
	idx := int(in % uint64(len(b.ring)))
	c := copy(dst[:n], b.ring[idx:])
	copy(dst[c:n], b.ring)
	return n
}

// Commit advances the commit pointer past in: the ROB has fully committed
// instructions up to and including in, deallocating their TB entries and
// releasing the FM's rollback resources.
func (b *Buffer) Commit(in uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if in+1 > b.next {
		panic(fmt.Sprintf("trace: commit of unproduced IN %d (next=%d)", in, b.next))
	}
	if in+1 > b.commit.Load() {
		b.commit.Store(in + 1)
	}
}

// Rewind moves the tail back so that in is the next IN to be produced,
// discarding the incorrect-path entries at and above in. The producer calls
// this when servicing a set_pc.
func (b *Buffer) Rewind(in uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if commit := b.commit.Load(); in < commit {
		panic(fmt.Sprintf("trace: rewind to committed IN %d (commit=%d)", in, commit))
	}
	if in < b.next {
		b.next = in
	}
}

// Produced returns the next IN the producer will write.
func (b *Buffer) Produced() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next
}

// Committed returns the commit pointer (first uncommitted IN) with one
// atomic load.
func (b *Buffer) Committed() uint64 { return b.commit.Load() }

// Occupancy returns the number of live (produced, uncommitted) entries.
func (b *Buffer) Occupancy() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.next - b.commit.Load())
}

// MaxOccupancy returns the high-water mark of Occupancy.
func (b *Buffer) MaxOccupancy() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.maxOccupancy
}

// ResetDrained reinitializes the buffer to the drained state at instruction
// number in — commit == next == in, nothing live — restoring the occupancy
// high-water mark. Warm-start restore only: the snapshot contract
// guarantees the buffer it describes was drained at capture, so no entry
// contents need to survive.
func (b *Buffer) ResetDrained(in uint64, maxOccupancy int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.commit.Store(in)
	b.next = in
	b.maxOccupancy = maxOccupancy
}
