package trace

import (
	"fmt"
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
// The buffer is a lock-free single-producer/single-consumer ring, and it
// never blocks: a fetch of an unproduced IN reports so and returns. Under
// the inline and round-robin policies one goroutine plays both sides; under
// the producer policy the two sides wait on the coupling's own notify
// channel (core's asyncLink), not on the buffer.
//
// An entry is written once, in place: the producer's Appender stores it
// straight into its ring slot past the published tail, and a chunk becomes
// visible with one atomic store of next. The consumer reads published slots
// in place through View and frees them with one atomic store of commit.
// Per-entry synchronization is exactly the fine-grained cross-partition
// overhead §3.1's Amdahl model warns about; here there is none, and a chunk
// costs one store on each side.
type Buffer struct {
	ring   []Entry
	next   atomic.Uint64 // published tail: the next IN to be produced
	commit atomic.Uint64 // oldest live IN (everything below is committed & freed)

	// maxOccupancy is the peak occupancy statistic, owned by the producer.
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

// publish moves the published tail from from to to — the entries in between
// are already in their slots — and returns the occupancy after the call.
// A tail that is not at from means another writer has published behind the
// appender's back.
func (b *Buffer) publish(from, to uint64) int {
	if next := b.next.Load(); next != from {
		panic(fmt.Sprintf("trace: appender publishes from IN %d but the tail is at %d (producer side shared with another writer?)",
			from, next))
	}
	b.next.Store(to)
	occ := int(to - b.commit.Load())
	if occ > b.maxOccupancy {
		b.maxOccupancy = occ
	}
	return occ
}

// View returns the published live entries from instruction number in up to
// the tail or the ring wrap, whichever comes first, in place (nil if in is
// not live: unproduced, discarded by a rewind, or already committed). A
// slot is rewritten only when the IN one capacity later is appended, which
// needs the consumer to have committed the slot's IN, or when a rewind
// discards it, which the consumer requests: entries at or past the
// consumer's read frontier stay unchanged until it re-steers, so a consumer
// that can observe re-steers must drop its view when it issues one. After a
// Rewind past in, the entry eventually produced at in is the *replacement*
// (correct-path) instruction — exactly the Figure 2 overwrite — so a TM
// that stalls waiting for IN k always receives the current functional
// path's instruction k.
func (b *Buffer) View(in uint64) []Entry {
	next := b.next.Load()
	if in >= next || in < b.commit.Load() {
		return nil
	}
	idx := int(in % uint64(len(b.ring)))
	end := min(len(b.ring), idx+int(next-in))
	return b.ring[idx:end:end]
}

// TryFetchChunk copies up to len(dst) consecutive live entries starting at
// instruction number in into dst, across the ring wrap, and returns how many
// were copied: the copying form of View.
func (b *Buffer) TryFetchChunk(in uint64, dst []Entry) int {
	n := copy(dst, b.View(in))
	if n > 0 && n < len(dst) {
		n += copy(dst[n:], b.View(in+uint64(n)))
	}
	return n
}

// Commit advances the commit pointer past in: the ROB has fully committed
// instructions up to and including in, deallocating their TB entries and
// releasing the FM's rollback resources.
func (b *Buffer) Commit(in uint64) {
	if next := b.next.Load(); in+1 > next {
		panic(fmt.Sprintf("trace: commit of unproduced IN %d (next=%d)", in, next))
	}
	if in+1 > b.commit.Load() {
		b.commit.Store(in + 1)
	}
}

// Rewind moves the tail back so that in is the next IN to be produced,
// discarding the incorrect-path entries at and above in. The producer calls
// this when servicing a set_pc.
func (b *Buffer) Rewind(in uint64) {
	if commit := b.commit.Load(); in < commit {
		panic(fmt.Sprintf("trace: rewind to committed IN %d (commit=%d)", in, commit))
	}
	if in < b.next.Load() {
		b.next.Store(in)
	}
}

// Produced returns the next IN the producer will publish.
func (b *Buffer) Produced() uint64 { return b.next.Load() }

// Committed returns the commit pointer (first uncommitted IN).
func (b *Buffer) Committed() uint64 { return b.commit.Load() }

// Occupancy returns the number of live (published, uncommitted) entries.
func (b *Buffer) Occupancy() int { return int(b.next.Load() - b.commit.Load()) }

// MaxOccupancy returns the high-water mark of Occupancy. It belongs to the
// producer: another goroutine reads it only after the producer has stopped.
func (b *Buffer) MaxOccupancy() int { return b.maxOccupancy }

// ResetDrained reinitializes the buffer to the drained state at instruction
// number in — commit == next == in, nothing live — restoring the occupancy
// high-water mark. Warm-start restore only: the snapshot contract
// guarantees the buffer it describes was drained at capture, so no entry
// contents need to survive.
func (b *Buffer) ResetDrained(in uint64, maxOccupancy int) {
	b.commit.Store(in)
	b.next.Store(in)
	b.maxOccupancy = maxOccupancy
}
