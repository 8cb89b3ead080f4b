package trace

import "fmt"

// DefaultChunk is the default number of entries the producer writes before
// publishing them to the trace buffer in one atomic store. 64 entries ≈ 9
// basic blocks at the paper's dynamic branch ratio: large enough to amortize
// the publish to noise, small enough that the TM never waits long for
// visibility.
const DefaultChunk = 64

// Appender is the producer side of a Buffer: the functional model appends
// each entry straight into its ring slot past the published tail (no
// synchronization at all — the slot was freed by a commit the capacity gate
// has seen), and the Appender publishes whole chunks with one atomic store —
// the software realization of streaming the paper's packed trace records in
// bursts rather than one record at a time.
//
// The Appender owns the producer side of the buffer: all appends and
// rewinds must go through it (a second writer moving the tail is caught at
// the next Flush). It is not safe for concurrent use; like the Buffer's
// producer side, it belongs to exactly one goroutine.
//
// Re-steer semantics (Figure 2) are preserved chunk-aware: a Rewind whose
// target lies inside the unpublished range just moves the cursor back — the
// cheapest possible overwrite — while a rewind past published entries moves
// the buffer's tail back.
type Appender struct {
	b    *Buffer
	size int

	// base is the published tail (the first unpublished IN), next the IN
	// the producer will append next, and slot next's ring index.
	base, next uint64
	slot       int
	// commitCache is a monotone under-estimate of the buffer's commit
	// pointer, refreshed lazily: Live() therefore over-estimates and only
	// reads the shared pointer (one atomic load) when the estimate would
	// gate the producer, so the steady-state append path costs zero
	// synchronization.
	commitCache uint64

	flushes uint64
	entries uint64

	// OnFlush, when non-nil, observes every successful publish with the
	// number of entries published and the buffer occupancy just after.
	// Couplings hook link-transfer accounting and telemetry sampling here.
	OnFlush func(entries, occupancy int)
}

// NewAppender builds an Appender over b publishing chunkSize-entry chunks.
// chunkSize < 1 selects DefaultChunk; it is clamped to the buffer capacity
// so a full chunk is always publishable into an empty buffer.
func (b *Buffer) NewAppender(chunkSize int) *Appender {
	if chunkSize < 1 {
		chunkSize = DefaultChunk
	}
	a := &Appender{b: b, size: min(chunkSize, b.Cap())}
	a.Rebase(0, 0)
	return a
}

// ChunkSize returns the configured chunk size.
func (a *Appender) ChunkSize() int { return a.size }

// NextIN returns the IN the next appended entry must carry.
func (a *Appender) NextIN() uint64 { return a.next }

// Pending returns the number of written, unpublished entries.
func (a *Appender) Pending() int { return int(a.next - a.base) }

// Flushes returns the number of chunks published so far.
func (a *Appender) Flushes() uint64 { return a.flushes }

// Entries returns the total number of entries published so far.
func (a *Appender) Entries() uint64 { return a.entries }

// Live returns the exact number of live entries the producer is
// responsible for: published-but-uncommitted entries plus the unpublished
// ones. The fast path uses the cached commit pointer (an over-estimate of
// Live); the buffer's atomic commit pointer is read only when that estimate
// reaches the buffer capacity, so gating decisions match a per-entry
// occupancy check exactly without paying for one.
func (a *Appender) Live() int {
	live := int(a.next - a.commitCache)
	if live < a.b.Cap() {
		return live
	}
	a.commitCache = a.b.Committed()
	return int(a.next - a.commitCache)
}

// Append copies *e (which must carry IN == NextIN) into its ring slot,
// publishing the chunk when it fills. It reports whether the entry was
// accepted; false means the buffer is full (counting the unpublished
// entries) and the producer has run as far ahead as the capacity allows.
func (a *Appender) Append(e *Entry) bool {
	if a.Live() >= a.b.Cap() {
		return false
	}
	if e.IN != a.next {
		panic(fmt.Sprintf("trace: append IN %d, expected %d", e.IN, a.next))
	}
	a.b.ring[a.slot] = *e
	if a.slot++; a.slot == len(a.b.ring) {
		a.slot = 0
	}
	if a.next++; a.next-a.base >= uint64(a.size) {
		a.Flush()
	}
	return true
}

// TryAppend is Append by value.
func (a *Appender) TryAppend(e Entry) bool { return a.Append(&e) }

// Flush publishes the written entries, if any. Capacity gating in Append
// guarantees the buffer always has room for them.
func (a *Appender) Flush() {
	n := int(a.next - a.base)
	if n == 0 {
		return
	}
	occ := a.b.publish(a.base, a.next)
	a.base = a.next
	a.flushes++
	a.entries += uint64(n)
	// occ = next - commit at publish time: refresh the commit estimate for
	// free.
	a.commitCache = a.next - uint64(occ)
	if a.OnFlush != nil {
		a.OnFlush(n, occ)
	}
}

// Rebase re-synchronizes the appender with its buffer after an external
// reset (warm-start restore): unpublished entries are dropped, the
// production frontier and commit estimate are re-read from the buffer, and
// the publish counters are restored to the snapshot's values.
func (a *Appender) Rebase(flushes, entries uint64) {
	a.moveTo(a.b.Produced())
	a.base = a.next
	a.commitCache = a.b.Committed()
	a.flushes, a.entries = flushes, entries
}

// moveTo points the append cursor at in.
func (a *Appender) moveTo(in uint64) {
	a.next, a.slot = in, int(in%uint64(len(a.b.ring)))
}

// Rewind discards entries at and above in so that in is the next IN to be
// produced — the chunk-aware Figure 2 re-steer. A target inside the
// unpublished range just moves the cursor back; a target below the
// published tail moves the buffer's tail back too. A target at or past
// NextIN is a no-op.
func (a *Appender) Rewind(in uint64) {
	if in >= a.next {
		return
	}
	if in < a.base {
		a.b.Rewind(in)
		a.base = in
	}
	a.moveTo(in)
}
