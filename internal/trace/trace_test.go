package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func entry(in uint64) Entry { return Entry{IN: in, Op: isa.OpNop} }

// push1 and fetch1 are per-entry coupling spelled on the chunk API: a fresh
// one-entry appender is a single publish, a one-slot copy a single fetch.
func push1(b *Buffer, e Entry) bool { return b.NewAppender(1).Append(&e) }

func fetch1(b *Buffer, in uint64) (Entry, bool) {
	var view [1]Entry
	n := b.TryFetchChunk(in, view[:])
	return view[0], n == 1
}

func TestBufferFIFO(t *testing.T) {
	b := NewBuffer(4)
	for i := uint64(0); i < 4; i++ {
		if !push1(b, entry(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if push1(b, entry(4)) {
		t.Error("push into full buffer succeeded")
	}
	if b.Occupancy() != 4 {
		t.Errorf("occupancy = %d", b.Occupancy())
	}
	e, ok := fetch1(b, 2)
	if !ok || e.IN != 2 {
		t.Errorf("fetch(2) = %+v, %v", e, ok)
	}
	// Entries stay until committed: fetch(0) still works.
	if _, ok := fetch1(b, 0); !ok {
		t.Error("uncommitted entry deallocated")
	}
	b.Commit(1)
	if b.Occupancy() != 2 {
		t.Errorf("occupancy after commit = %d", b.Occupancy())
	}
	if !push1(b, entry(4)) || !push1(b, entry(5)) {
		t.Error("space not reclaimed by commit")
	}
}

func TestBufferRewindOverwrites(t *testing.T) {
	// Figure 2: wrong-path entries are overwritten by the re-steered
	// producer.
	b := NewBuffer(8)
	for i := uint64(0); i < 6; i++ {
		push1(b, entry(i))
	}
	b.Rewind(3)
	if b.Produced() != 3 {
		t.Fatalf("produced after rewind = %d", b.Produced())
	}
	repl := Entry{IN: 3, Op: isa.OpHalt}
	if !push1(b, repl) {
		t.Fatal("re-push failed")
	}
	e, _ := fetch1(b, 3)
	if e.Op != isa.OpHalt {
		t.Errorf("fetch(3) returned stale entry %v", e.Op)
	}
	if _, ok := fetch1(b, 4); ok {
		t.Error("fetch(4) returned a discarded wrong-path entry")
	}
}

func TestBufferPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	b := NewBuffer(4)
	push1(b, entry(0))
	push1(b, entry(1))
	expectPanic("out-of-order push", func() { push1(b, entry(5)) })
	expectPanic("commit unproduced", func() { b.Commit(7) })
	b.Commit(0)
	expectPanic("rewind committed", func() { b.Rewind(0) })
	if _, ok := fetch1(b, 0); ok {
		t.Error("fetch of a committed IN reported a live entry")
	}
	expectPanic("zero capacity", func() { NewBuffer(0) })

	// The appender owns the producer side: a second writer publishing behind
	// its back moves the tail its unpublished entries were written past.
	shared := NewBuffer(2)
	a := shared.NewAppender(2)
	a.TryAppend(entry(0))
	push1(shared, entry(0))
	push1(shared, entry(1))
	expectPanic("flush into a buffer written behind the appender", a.Flush)
}

func TestEncodingWords(t *testing.T) {
	var o EncodeOptions
	alu := Entry{Op: isa.OpAddRR, Size: 2}
	if w := o.Words(&alu); w != 3 {
		t.Errorf("ALU entry = %d words, want 3", w)
	}
	br := Entry{Op: isa.OpJz, Size: 3, Branch: true}
	if w := o.Words(&br); w != 4 {
		t.Errorf("branch entry = %d words, want 4", w)
	}
	mem := Entry{Op: isa.OpLdW, Size: 4, MemSize: 4}
	if w := o.Words(&mem); w != 5 {
		t.Errorf("mem entry = %d words, want 5 (with PA)", w)
	}
	tlb := Entry{Op: isa.OpTlbWr, Size: 2, TLBWrite: true}
	if w := o.Words(&tlb); w != 5 {
		t.Errorf("tlb entry = %d words, want 5", w)
	}
}

func TestEncodingCompressionWins(t *testing.T) {
	// Property: the compressed encoding is never larger than the naive
	// encoding (ablation A5's premise).
	f := func(size uint8, branch, mem, tlbw bool) bool {
		e := Entry{Op: isa.OpAddRR, Size: size%16 + 1, Branch: branch, TLBWrite: tlbw}
		if mem {
			e.MemSize = 4
		}
		c := EncodeOptions{}.Words(&e)
		u := EncodeOptions{Uncompressed: true}.Words(&e)
		return c <= u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntryString(t *testing.T) {
	e := Entry{IN: 7, PC: 0x100, Op: isa.OpJz, Branch: true, Taken: true, NextPC: 0x200}
	s := e.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	m := Entry{IN: 8, PC: 0x104, Op: isa.OpStW, MemSize: 4, IsStore: true, MemVA: 0x3000}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}
