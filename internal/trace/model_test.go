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

// TestCommittedMatchesLocked: Committed reads the commit pointer with no
// lock, so after every operation that can move it — chunk pushes, commits,
// rewinds and the warm-start ResetDrained — it must equal both the
// reference model's pointer and the one the locked accessors imply. The
// concurrent row is the producer policy's real access pattern (one goroutine
// polling Committed while the other commits) and is what `make race` checks.
func TestCommittedMatchesLocked(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		const capacity = 16
		b := NewBuffer(capacity)
		var commit, next uint64
		for step := 0; step < 100000; step++ {
			switch live := next - commit; rng.Intn(8) {
			case 0, 1, 2: // push a chunk of 1..4
				es := make([]Entry, 1+rng.Intn(4))
				for i := range es {
					es[i].IN = next + uint64(i)
				}
				if _, ok := b.TryPushChunk(es); ok != (live+uint64(len(es)) <= capacity) {
					t.Fatalf("step %d: push of %d at occupancy %d accepted=%v", step, len(es), live, ok)
				} else if ok {
					next += uint64(len(es))
				}
			case 3, 4, 5: // commit inside the produced window
				if live > 0 {
					in := commit + uint64(rng.Int63n(int64(live)))
					b.Commit(in)
					commit = in + 1
				}
			case 6: // rewind to an uncommitted point
				next = commit + uint64(rng.Int63n(int64(live+1)))
				b.Rewind(next)
			case 7: // warm-start restore somewhere else entirely
				if rng.Intn(50) == 0 {
					commit = uint64(rng.Int63n(1 << 40))
					next = commit
					b.ResetDrained(commit, 0)
				}
			}
			if got := b.Committed(); got != commit || got != b.Produced()-uint64(b.Occupancy()) {
				t.Fatalf("step %d: Committed() = %d, model %d, locked accessors %d",
					step, got, commit, b.Produced()-uint64(b.Occupancy()))
			}
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		const total = 50000
		b := NewBuffer(64)
		polled := make(chan uint64)
		go func() {
			var last uint64
			for last < total {
				c := b.Committed()
				if c < last {
					t.Errorf("Committed() went backwards: %d after %d", c, last)
					break
				}
				last = c
			}
			polled <- last
		}()
		es := make([]Entry, 8)
		for in := uint64(0); in < total; in += uint64(len(es)) {
			for i := range es {
				es[i].IN = in + uint64(i)
			}
			if _, ok := b.TryPushChunk(es); !ok {
				t.Fatalf("push at %d refused", in)
			}
			b.Commit(in + uint64(len(es)) - 1)
		}
		if last := <-polled; last != total && !t.Failed() {
			t.Errorf("poller stopped at %d, want %d", last, total)
		}
	})
}
