package trace

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/isa"
)

// refBuffer is a brutally simple reference model of the trace buffer:
// an unbounded slice plus pointers.
type refBuffer struct {
	entries []Entry
	commit  uint64
	next    uint64
	cap     int
}

func (r *refBuffer) tryPush(e Entry) bool {
	if int(r.next-r.commit) >= r.cap {
		return false
	}
	if int(r.next) < len(r.entries) {
		r.entries[r.next] = e
	} else {
		r.entries = append(r.entries, e)
	}
	r.next++
	return true
}

func (r *refBuffer) tryFetch(in uint64) (Entry, bool) {
	if in >= r.next || in < r.commit {
		return Entry{}, false
	}
	return r.entries[in], true
}

func (r *refBuffer) commitTo(in uint64) {
	if in+1 > r.commit {
		r.commit = in + 1
	}
}

func (r *refBuffer) rewind(in uint64) {
	if in < r.next {
		r.next = in
	}
}

// TestBufferAgainstReferenceModel drives the real buffer and the reference
// with the same random operation stream and requires identical observable
// behaviour — the model-based property test for Figure 1/2 TB semantics.
func TestBufferAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const capacity = 16
	b := NewBuffer(capacity)
	ref := &refBuffer{cap: capacity}
	mk := func(in uint64) Entry {
		return Entry{IN: in, PC: isa.Word(rng.Uint32()), Op: isa.OpAddRR}
	}
	for step := 0; step < 200000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // push
			e := mk(ref.next)
			got := push1(b, e)
			want := ref.tryPush(e)
			if got != want {
				t.Fatalf("step %d: push accepted=%v want %v", step, got, want)
			}
		case 4, 5, 6: // fetch a random IN in a plausible range
			span := ref.next - ref.commit + 3
			in := ref.commit + uint64(rng.Int63n(int64(span+1)))
			ge, gok := fetch1(b, in)
			we, wok := ref.tryFetch(in)
			if gok != wok {
				t.Fatalf("step %d: fetch(%d) ok=%v want %v", step, in, gok, wok)
			}
			if gok && (ge.IN != we.IN || ge.PC != we.PC) {
				t.Fatalf("step %d: fetch(%d) = %+v want %+v", step, in, ge, we)
			}
		case 7: // commit within the produced window
			if ref.next > ref.commit {
				in := ref.commit + uint64(rng.Int63n(int64(ref.next-ref.commit)))
				b.Commit(in)
				ref.commitTo(in)
			}
		case 8: // rewind to an uncommitted point
			if ref.next > ref.commit {
				in := ref.commit + uint64(rng.Int63n(int64(ref.next-ref.commit+1)))
				b.Rewind(in)
				ref.rewind(in)
			}
		case 9: // invariant probes
			if got, want := b.Produced(), ref.next; got != want {
				t.Fatalf("step %d: produced %d want %d", step, got, want)
			}
			if got, want := b.Committed(), ref.commit; got != want {
				t.Fatalf("step %d: committed %d want %d", step, got, want)
			}
			if got, want := b.Occupancy(), int(ref.next-ref.commit); got != want {
				t.Fatalf("step %d: occupancy %d want %d", step, got, want)
			}
		}
	}
}

// agreeWithReference drives an Appender over a real buffer and the
// reference model with the operation stream in data (a capacity byte, a
// chunk-size byte, then two bytes an operation) and, after every operation,
// compares every live entry read through View, Produced, Committed,
// Occupancy, MaxOccupancy and the appender's cursor. Entries the appender
// has written but not published are visible only to the model's pending
// list until a flush moves them into the reference.
func agreeWithReference(t testing.TB, data []byte) {
	if len(data) < 2 {
		return
	}
	capacity := 1 + int(data[0])%16
	b := NewBuffer(capacity)
	a := b.NewAppender(1 + int(data[1])%(capacity+2)) // past the capacity is clamped
	ref := &refBuffer{cap: capacity}
	var pending []Entry
	maxOcc := 0
	seq := isa.Word(0) // payload: distinguishes re-steered paths
	publish := func() {
		for _, e := range pending {
			if !ref.tryPush(e) {
				t.Fatalf("reference refused IN %d the appender accepted", e.IN)
			}
		}
		pending = pending[:0]
		maxOcc = max(maxOcc, int(ref.next-ref.commit))
	}
	var dst [20]Entry
	for step := 0; len(data) >= 4; step, data = step+1, data[2:] {
		op, arg := data[2]%8, uint64(data[3])
		appNext := ref.next + uint64(len(pending))
		live := appNext - ref.commit
		switch op {
		case 0, 1, 2: // append
			e := Entry{IN: appNext, PC: seq}
			seq++
			want := live < uint64(capacity)
			if got := a.Append(&e); got != want {
				t.Fatalf("step %d: append of IN %d at %d live accepted=%v", step, e.IN, live, got)
			}
			if want {
				if pending = append(pending, e); len(pending) >= a.ChunkSize() {
					publish()
				}
			}
		case 3:
			a.Flush()
			if len(pending) > 0 {
				publish()
			}
		case 4: // commit inside the published window
			if ref.next > ref.commit {
				in := ref.commit + arg%(ref.next-ref.commit)
				b.Commit(in)
				ref.commitTo(in)
			}
		case 5: // re-steer to an uncommitted point, published or not
			in := ref.commit + arg%(live+1)
			a.Rewind(in)
			if in < ref.next {
				ref.rewind(in)
				pending = pending[:0]
			} else {
				pending = pending[:in-ref.next]
			}
		case 6: // copy out, possibly from past the tail or across the wrap
			in := ref.commit + arg%(live+2)
			k := 1 + int(arg)%len(dst)
			want := 0
			if in < ref.next {
				want = min(k, int(ref.next-in))
			}
			if got := b.TryFetchChunk(in, dst[:k]); got != want {
				t.Fatalf("step %d: TryFetchChunk(%d, %d slots) = %d, want %d", step, in, k, got, want)
			}
			for i := 0; i < want; i++ {
				if w := ref.entries[in+uint64(i)]; dst[i].IN != w.IN || dst[i].PC != w.PC {
					t.Fatalf("step %d: TryFetchChunk(%d)[%d] = %v, want %v", step, in, i, dst[i], w)
				}
			}
		case 7: // warm-start restore at or past the frontier
			if arg%4 != 0 {
				break
			}
			in := appNext + arg%5
			b.ResetDrained(in, int(arg))
			a.Rebase(a.Flushes(), a.Entries())
			for uint64(len(ref.entries)) < in {
				ref.entries = append(ref.entries, Entry{})
			}
			ref.commit, ref.next, maxOcc = in, in, int(arg)
			pending = pending[:0]
		}

		if b.Produced() != ref.next || b.Committed() != ref.commit || b.Occupancy() != int(ref.next-ref.commit) {
			t.Fatalf("step %d: produced/committed/occupancy %d/%d/%d, want %d/%d/%d", step,
				b.Produced(), b.Committed(), b.Occupancy(), ref.next, ref.commit, ref.next-ref.commit)
		}
		if b.MaxOccupancy() != maxOcc {
			t.Fatalf("step %d: max occupancy %d, want %d", step, b.MaxOccupancy(), maxOcc)
		}
		if a.NextIN() != ref.next+uint64(len(pending)) || a.Pending() != len(pending) {
			t.Fatalf("step %d: appender at %d with %d pending, want %d with %d", step,
				a.NextIN(), a.Pending(), ref.next+uint64(len(pending)), len(pending))
		}
		for in := ref.commit; in < ref.next; {
			v := b.View(in)
			if want := min(ref.next-in, uint64(capacity)-in%uint64(capacity)); uint64(len(v)) != want {
				t.Fatalf("step %d: View(%d) has %d entries, want %d", step, in, len(v), want)
			}
			for i := range v {
				if w := ref.entries[in]; v[i].IN != w.IN || v[i].PC != w.PC {
					t.Fatalf("step %d: View entry %d = %v, want %v", step, in, v[i], w)
				}
				in++
			}
		}
		if b.View(ref.next) != nil || ref.commit > 0 && b.View(ref.commit-1) != nil {
			t.Fatalf("step %d: View shows an unpublished or committed entry", step)
		}
	}
}

// FuzzBufferAgreement checks the in-place ring against the reference model
// over fuzzed operation streams: appends, flushes, commits, re-steers inside
// and past the unpublished range, copying fetches and warm-start resets.
func FuzzBufferAgreement(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 0, 0, 3, 0, 4, 0, 0, 0, 5, 1, 6, 0})
	f.Add([]byte{7, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0, 6, 9, 4, 3, 0, 0, 3, 0, 7, 4, 0, 0})
	seed := []byte{15, 15}
	for i := byte(0); i < 60; i++ {
		seed = append(seed, i%8, i*13)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) { agreeWithReference(t, data) })
}

// TestSPSCInPlace checks the ring two ways. interleaved runs
// FuzzBufferAgreement's oracle over seeded random operation streams.
// concurrent is the producer policy's access pattern across two goroutines:
// the consumer holds View slices across steps and commits behind its reads,
// and the producer appends, flushes and rewinds only on an acknowledged
// request, as a re-steer does. Every entry read must carry the IN and
// payload it was produced with, and Committed, which the producer polls,
// never moves backwards. `make race` checks the publish and commit ordering.
func TestSPSCInPlace(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 300; i++ {
			data := make([]byte, 2+rng.Intn(4000))
			rng.Read(data)
			agreeWithReference(t, data)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		for _, chunk := range []int{1, 7, 64} {
			inPlaceHandoff(t, chunk)
		}
	})
}

// inPlaceHandoff runs one producer goroutine against the test goroutine as
// consumer over a 64-entry ring. An entry's payload encodes its IN and the
// path epoch, which each re-steer advances.
func inPlaceHandoff(t *testing.T, chunk int) {
	const total = 30000
	b := NewBuffer(64)
	a := b.NewAppender(chunk)
	payload := func(in uint64, epoch isa.Word) isa.Word { return isa.Word(in*0x9e3779b1) ^ epoch<<24 }
	resteer, ack, done := make(chan uint64), make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	defer wg.Wait()
	defer close(done)
	go func() {
		defer wg.Done()
		var epoch isa.Word
		var lastCommit uint64
		for {
			select {
			case in := <-resteer:
				a.Rewind(in)
				epoch++
				ack <- struct{}{}
				continue
			case <-done:
				return
			default:
			}
			if c := b.Committed(); c < lastCommit {
				t.Errorf("chunk %d: Committed() went backwards: %d after %d", chunk, c, lastCommit)
			} else {
				lastCommit = c
			}
			in := a.NextIN()
			e := Entry{IN: in, PC: epoch, NextPC: payload(in, epoch)}
			if in == total || !a.Append(&e) {
				a.Flush()
				runtime.Gosched()
			}
		}
	}()

	rng := rand.New(rand.NewSource(int64(chunk)))
	var view []Entry
	var base, in, committed uint64
	var epoch isa.Word
	for in < total {
		if in < base || in-base >= uint64(len(view)) {
			if view, base = b.View(in), in; view == nil {
				// Release everything read: the producer may be parked on a
				// full ring.
				if committed < in {
					b.Commit(in - 1)
					committed = in
				}
				runtime.Gosched()
				continue
			}
		}
		if e := &view[in-base]; e.IN != in || e.PC != epoch || e.NextPC != payload(in, epoch) {
			t.Fatalf("chunk %d: IN %d read as {IN %d, epoch %d, payload %#x}, produced as {epoch %d, payload %#x}",
				chunk, in, e.IN, e.PC, e.NextPC, epoch, payload(in, epoch))
		}
		in++
		if lag := uint64(rng.Intn(8)); in-committed > lag {
			b.Commit(in - lag - 1)
			committed = in - lag
		}
		if rng.Intn(400) == 0 && in < total {
			view = nil
			resteer <- in
			<-ack
			epoch++
		}
	}
}
