package trace

import "fmt"

// DefaultChunk is the default number of entries the producer accumulates
// locally before publishing them to the trace buffer in one synchronized
// operation. 64 entries ≈ 9 basic blocks at the paper's dynamic branch
// ratio: large enough to amortize the lock to noise, small enough
// that the TM never waits long for visibility.
const DefaultChunk = 64

// Appender is the producer-side chunking façade over a Buffer: the
// functional model appends entries into a locally-owned chunk (no
// synchronization at all) and the Appender publishes whole chunks with a
// single lock acquire — the software realization of streaming the paper's
// packed trace records in bursts rather than one record at a time.
//
// The Appender owns the producer side of the buffer: all pushes and rewinds
// must go through it (mixing direct Buffer pushes with an active Appender
// corrupts the IN sequence). It is not safe for concurrent use; like the
// Buffer's producer side, it belongs to exactly one goroutine.
//
// Re-steer semantics (Figure 2) are preserved chunk-aware: a Rewind whose
// target lies inside the unpublished chunk simply truncates it in place —
// the cheapest possible overwrite — while a rewind past published entries
// invalidates them in the buffer with one lock.
type Appender struct {
	b     *Buffer
	size  int
	chunk []Entry

	// next is the IN the producer will append next (published + pending).
	next uint64
	// commitCache is a monotone under-estimate of the buffer's commit
	// pointer, refreshed lazily: Live() therefore over-estimates and only
	// reads the shared pointer (one atomic load, no lock) when the estimate
	// would gate the producer, so the steady-state append path costs zero
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
	if chunkSize > b.Cap() {
		chunkSize = b.Cap()
	}
	return &Appender{
		b:           b,
		size:        chunkSize,
		chunk:       make([]Entry, 0, chunkSize),
		next:        b.Produced(),
		commitCache: b.Committed(),
	}
}

// ChunkSize returns the configured chunk size.
func (a *Appender) ChunkSize() int { return a.size }

// NextIN returns the IN the next appended entry must carry.
func (a *Appender) NextIN() uint64 { return a.next }

// Pending returns the number of locally-buffered, unpublished entries.
func (a *Appender) Pending() int { return len(a.chunk) }

// Flushes returns the number of chunks published so far.
func (a *Appender) Flushes() uint64 { return a.flushes }

// Entries returns the total number of entries published so far.
func (a *Appender) Entries() uint64 { return a.entries }

// Live returns the exact number of live entries the producer is
// responsible for: published-but-uncommitted entries plus the unpublished
// chunk. The fast path uses the cached commit pointer (an over-estimate of
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

// TryAppend appends e (which must carry IN == NextIN) to the local chunk,
// publishing the chunk when it fills. It reports whether the entry was
// accepted; false means the buffer is full (counting the local chunk) and
// the producer has run as far ahead as the capacity allows.
func (a *Appender) TryAppend(e Entry) bool {
	if a.Live() >= a.b.Cap() {
		return false
	}
	if e.IN != a.next {
		panic(fmt.Sprintf("trace: append IN %d, expected %d", e.IN, a.next))
	}
	a.chunk = append(a.chunk, e)
	a.next++
	if len(a.chunk) >= a.size {
		a.Flush()
	}
	return true
}

// Flush publishes the partial chunk, if any. Capacity gating in TryAppend
// guarantees the buffer always has room for it.
func (a *Appender) Flush() {
	if len(a.chunk) == 0 {
		return
	}
	occ, ok := a.b.TryPushChunk(a.chunk)
	if !ok {
		panic("trace: appender chunk does not fit (producer side shared with another writer?)")
	}
	n := len(a.chunk)
	a.chunk = a.chunk[:0]
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
// reset (warm-start restore): the local chunk is dropped, the production
// frontier and commit estimate are re-read from the buffer, and the
// publish counters are restored to the snapshot's values.
func (a *Appender) Rebase(flushes, entries uint64) {
	a.chunk = a.chunk[:0]
	a.next = a.b.Produced()
	a.commitCache = a.b.Committed()
	a.flushes, a.entries = flushes, entries
}

// Rewind discards entries at and above in so that in is the next IN to be
// produced — the chunk-aware Figure 2 re-steer. A target inside the
// unpublished chunk truncates it locally with no synchronization at all; a
// target below the published tail invalidates the published entries past in
// with one lock. A target at or past NextIN is a no-op.
func (a *Appender) Rewind(in uint64) {
	if in >= a.next {
		return
	}
	base := a.next - uint64(len(a.chunk))
	if in >= base {
		a.chunk = a.chunk[:in-base]
		a.next = in
		return
	}
	a.chunk = a.chunk[:0]
	a.b.Rewind(in)
	a.next = in
}
