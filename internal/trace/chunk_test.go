package trace

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/isa"
)

func TestChunkPushFetch(t *testing.T) {
	b := NewBuffer(8)
	a := b.NewAppender(8)
	var occs []int
	a.OnFlush = func(_, occ int) { occs = append(occs, occ) }
	for i := uint64(0); i < 5; i++ {
		e := entry(i)
		if !a.Append(&e) {
			t.Fatalf("append %d refused", i)
		}
	}
	if b.Produced() != 0 || b.View(0) != nil {
		t.Fatalf("unpublished entries visible: produced = %d", b.Produced())
	}
	a.Flush()
	a.Flush() // nothing written since: no publish
	if b.Produced() != 5 || a.Flushes() != 1 || len(occs) != 1 || occs[0] != 5 {
		t.Fatalf("after flush: produced = %d, flushes = %d, occupancies %v", b.Produced(), a.Flushes(), occs)
	}
	// Room for 3 more, not 4.
	for i := uint64(5); i < 8; i++ {
		if !a.TryAppend(entry(i)) {
			t.Fatalf("append %d refused", i)
		}
	}
	if a.TryAppend(entry(8)) {
		t.Error("append past capacity succeeded")
	}
	b.Commit(1)
	if !a.TryAppend(entry(8)) {
		t.Error("append after commit refused")
	}
	a.Flush()
	if b.Occupancy() != 7 || b.MaxOccupancy() != 7 {
		t.Errorf("occupancy = %d, max %d, want 7", b.Occupancy(), b.MaxOccupancy())
	}

	// View is in place and stops at the ring wrap (slots 2..7 hold INs 2..7,
	// slot 0 holds IN 8).
	if v := b.View(2); len(v) != 6 || &v[0] != &b.ring[2] || v[5].IN != 7 {
		t.Errorf("View(2) = %d entries, want slots 2..7 in place", len(v))
	}
	if v := b.View(8); len(v) != 1 || v[0].IN != 8 {
		t.Errorf("View(8) = %v, want IN 8 from slot 0", v)
	}
	if b.View(9) != nil || b.View(0) != nil {
		t.Error("View of an unproduced or committed IN is not empty")
	}

	dst := make([]Entry, 4)
	if n := b.TryFetchChunk(2, dst); n != 4 {
		t.Fatalf("TryFetchChunk(2) = %d, want 4", n)
	}
	for i, e := range dst {
		if e.IN != uint64(2+i) {
			t.Errorf("dst[%d].IN = %d, want %d", i, e.IN, 2+i)
		}
	}
	// Fetch straddling the ring wrap (cap 8, INs 2..8 live).
	if n := b.TryFetchChunk(6, dst); n != 3 {
		t.Fatalf("TryFetchChunk(6) = %d, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if dst[i].IN != uint64(6+i) {
			t.Errorf("wrap dst[%d].IN = %d, want %d", i, dst[i].IN, 6+i)
		}
	}
	if n := b.TryFetchChunk(9, dst); n != 0 {
		t.Errorf("TryFetchChunk past tail = %d, want 0", n)
	}
	if n := b.TryFetchChunk(0, dst); n != 0 {
		t.Errorf("TryFetchChunk of committed IN = %d, want 0", n)
	}
}

func TestChunkPushWraps(t *testing.T) {
	// A chunk that straddles the ring boundary must land in the right slots.
	b := NewBuffer(8)
	for i := uint64(0); i < 6; i++ {
		push1(b, entry(i))
	}
	b.Commit(5)
	a := b.NewAppender(4)
	for i := uint64(6); i <= 9; i++ { // slots 6,7,0,1
		if !a.TryAppend(entry(i)) {
			t.Fatal("wrapping chunk append failed")
		}
	}
	if a.Flushes() != 1 || b.Produced() != 10 {
		t.Fatalf("wrapping chunk: flushes = %d, produced = %d", a.Flushes(), b.Produced())
	}
	for in := uint64(6); in <= 9; in++ {
		e, ok := fetch1(b, in)
		if !ok || e.IN != in {
			t.Errorf("fetch(%d) = %+v, %v", in, e, ok)
		}
	}
}

func TestAppenderFlushAtChunkSize(t *testing.T) {
	b := NewBuffer(64)
	a := b.NewAppender(4)
	var flushed []int
	a.OnFlush = func(n, occ int) { flushed = append(flushed, n) }
	for i := uint64(0); i < 10; i++ {
		if !a.TryAppend(entry(i)) {
			t.Fatalf("append %d failed", i)
		}
	}
	if b.Produced() != 8 {
		t.Errorf("produced = %d, want 8 (two full chunks)", b.Produced())
	}
	if a.Pending() != 2 {
		t.Errorf("pending = %d, want 2", a.Pending())
	}
	a.Flush()
	if b.Produced() != 10 || a.Pending() != 0 {
		t.Errorf("after flush: produced = %d, pending = %d", b.Produced(), a.Pending())
	}
	if a.Flushes() != 3 || a.Entries() != 10 {
		t.Errorf("flushes = %d entries = %d, want 3/10", a.Flushes(), a.Entries())
	}
	if len(flushed) != 3 || flushed[0] != 4 || flushed[1] != 4 || flushed[2] != 2 {
		t.Errorf("OnFlush sizes = %v, want [4 4 2]", flushed)
	}
}

func TestAppenderCapacityGate(t *testing.T) {
	// Live() counts the unpublished chunk, so the appender refuses exactly
	// when a per-entry occupancy check on an unchunked buffer would.
	b := NewBuffer(4)
	a := b.NewAppender(8) // clamped to 4
	if a.ChunkSize() != 4 {
		t.Fatalf("chunk size = %d, want clamped 4", a.ChunkSize())
	}
	for i := uint64(0); i < 4; i++ {
		if !a.TryAppend(entry(i)) {
			t.Fatalf("append %d failed", i)
		}
	}
	if a.TryAppend(entry(4)) {
		t.Error("append into full buffer succeeded")
	}
	b.Commit(0) // frees exactly one slot
	// Lazy refresh: the cached commit pointer is stale but the gate must
	// notice the freed space on the next attempt.
	if !a.TryAppend(entry(4)) {
		t.Error("append after commit failed (stale commit cache not refreshed)")
	}
	if a.TryAppend(entry(5)) {
		t.Error("append past freed space succeeded")
	}
}

func TestAppenderRewindMidChunk(t *testing.T) {
	// Re-steer inside the open chunk: pure local truncation, nothing
	// published changes.
	b := NewBuffer(64)
	a := b.NewAppender(8)
	for i := uint64(0); i < 6; i++ {
		a.TryAppend(entry(i))
	}
	a.Rewind(3)
	if a.NextIN() != 3 || a.Pending() != 3 {
		t.Fatalf("after rewind: next = %d pending = %d", a.NextIN(), a.Pending())
	}
	if b.Produced() != 0 {
		t.Errorf("local rewind touched the buffer: produced = %d", b.Produced())
	}
	// Replacement path then fills the chunk; the published entries must be
	// the corrected ones (Figure 2 overwrite).
	for i := uint64(3); i < 8; i++ {
		a.TryAppend(Entry{IN: i, Op: isa.OpHalt})
	}
	if b.Produced() != 8 {
		t.Fatalf("produced = %d, want 8", b.Produced())
	}
	e, _ := fetch1(b, 3)
	if e.Op != isa.OpHalt {
		t.Errorf("fetch(3) = %v, want replacement OpHalt", e.Op)
	}
	e, _ = fetch1(b, 2)
	if e.Op != isa.OpNop {
		t.Errorf("fetch(2) = %v, want original OpNop", e.Op)
	}
}

func TestAppenderRewindAtChunkEdge(t *testing.T) {
	// Re-steer exactly at the boundary between published chunks and the
	// open chunk: the open chunk empties, the buffer is untouched.
	b := NewBuffer(64)
	a := b.NewAppender(4)
	for i := uint64(0); i < 6; i++ {
		a.TryAppend(entry(i)) // publishes 0..3, holds 4..5
	}
	a.Rewind(4)
	if a.NextIN() != 4 || a.Pending() != 0 {
		t.Fatalf("after edge rewind: next = %d pending = %d", a.NextIN(), a.Pending())
	}
	if b.Produced() != 4 {
		t.Errorf("edge rewind touched published entries: produced = %d", b.Produced())
	}
}

func TestAppenderRewindAcrossPublishedChunks(t *testing.T) {
	// Re-steer below the published tail: open chunk dropped AND published
	// wrong-path entries invalidated in the buffer.
	b := NewBuffer(64)
	a := b.NewAppender(4)
	for i := uint64(0); i < 10; i++ {
		a.TryAppend(entry(i)) // publishes 0..7, holds 8..9
	}
	a.Rewind(2)
	if a.NextIN() != 2 || a.Pending() != 0 {
		t.Fatalf("after deep rewind: next = %d pending = %d", a.NextIN(), a.Pending())
	}
	if b.Produced() != 2 {
		t.Errorf("produced = %d, want 2", b.Produced())
	}
	if _, ok := fetch1(b, 2); ok {
		t.Error("fetch(2) returned a discarded wrong-path entry")
	}
	// Corrected path republishes through the appender.
	for i := uint64(2); i < 6; i++ {
		a.TryAppend(Entry{IN: i, Op: isa.OpHalt})
	}
	e, ok := fetch1(b, 2)
	if !ok || e.Op != isa.OpHalt {
		t.Errorf("fetch(2) after re-steer = %+v, %v", e, ok)
	}
}

func TestAppenderRandomizedVsReference(t *testing.T) {
	// Single-threaded: drive an Appender and a plain per-entry Buffer with
	// the same random append/rewind/commit schedule; the observable entry
	// streams must be identical for any chunk size.
	for _, chunk := range []int{1, 3, 8, 64} {
		rng := rand.New(rand.NewSource(int64(chunk)))
		ref := NewBuffer(32)
		chk := NewBuffer(32)
		a := chk.NewAppender(chunk)
		var next, fetched uint64
		seq := 0 // payload discriminator: distinguishes re-steered paths
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(10); {
			case r < 6: // append
				e := Entry{IN: next, PC: isa.Word(seq)}
				seq++
				okRef := push1(ref, e)
				okChk := a.TryAppend(e)
				if okRef != okChk {
					t.Fatalf("chunk %d step %d: push ok mismatch ref=%v chk=%v", chunk, step, okRef, okChk)
				}
				if okRef {
					next++
				}
			case r < 8: // consume + commit
				a.Flush() // consumer sees everything the reference sees
				if fetched >= next {
					continue
				}
				eRef, okRef := fetch1(ref, fetched)
				eChk, okChk := fetch1(chk, fetched)
				if !okRef || !okChk {
					t.Fatalf("chunk %d step %d: fetch(%d) ref=%v chk=%v", chunk, step, fetched, okRef, okChk)
				}
				if eRef.IN != eChk.IN || eRef.PC != eChk.PC {
					t.Fatalf("chunk %d step %d: entry mismatch at %d: %+v vs %+v", chunk, step, fetched, eRef, eChk)
				}
				ref.Commit(fetched)
				chk.Commit(fetched)
				fetched++
			default: // re-steer
				if next == fetched {
					continue
				}
				in := fetched + uint64(rng.Int63n(int64(next-fetched)))
				ref.Rewind(in)
				a.Rewind(in)
				next = in
			}
		}
		a.Flush()
		for ; fetched < next; fetched++ {
			eRef, _ := fetch1(ref, fetched)
			eChk, _ := fetch1(chk, fetched)
			if eRef.IN != eChk.IN || eRef.PC != eChk.PC {
				t.Fatalf("chunk %d drain: entry mismatch at %d", chunk, fetched)
			}
		}
	}
}

func TestChunkConcurrentStress(t *testing.T) {
	// 1 producer (Appender) / 1 consumer (chunk views), randomized chunk
	// sizes and commit strides. Run under -race this exercises the
	// publish/fetch memory ordering.
	const n = 50000
	for _, chunk := range []int{1, 7, 64} {
		b := NewBuffer(128)
		a := b.NewAppender(chunk)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < n; {
				if a.TryAppend(entry(i)) {
					i++
				} else {
					runtime.Gosched()
				}
			}
			a.Flush()
		}()
		dst := make([]Entry, 32)
		rng := rand.New(rand.NewSource(42))
		for in := uint64(0); in < n; {
			got := b.TryFetchChunk(in, dst[:1+rng.Intn(len(dst))])
			if got == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < got; i++ {
				if dst[i].IN != in+uint64(i) {
					t.Fatalf("chunk %d: view[%d].IN = %d, want %d", chunk, i, dst[i].IN, in+uint64(i))
				}
			}
			in += uint64(got)
			b.Commit(in - 1)
		}
		wg.Wait()
		if b.MaxOccupancy() > 128 {
			t.Errorf("chunk %d: max occupancy %d exceeded capacity", chunk, b.MaxOccupancy())
		}
	}
}
