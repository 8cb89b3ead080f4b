package trace

import (
	"math/rand"
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
