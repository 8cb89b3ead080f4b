// Package fullsys provides the full-system substrate under the functional
// model: physical memory, the software-filled TLB, the interrupt controller
// and the peripheral devices (console, timer, disk, NIC).
//
// The paper's prototype used QEMU's device models; we build equivalent
// delay-model devices (§3.4: "The functional model simulates the correct
// functionality while the timing model predicts component timing"), small
// enough to snapshot for the functional model's roll-back-across-I/O
// support (§3.2).
package fullsys

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// PageShift/PageSize define the 4 KiB target page.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// Memory is the target's physical memory: a table of 4 KiB pages, each
// allocated by the first store into it. A target touches a small part of its
// 16 MiB, so building, snapshotting, restoring and dropping a memory all cost
// what the run touched, not what it was configured with. Physical addresses
// are contiguous across pages: a run that crosses a page end continues in the
// next table entry.
type Memory struct {
	pages []*[PageSize]byte // nil: never written, reads as zeroPage
}

// zeroPage is what every never-written page reads as. Nothing may write it:
// only readable hands it out, and only to code that copies from it.
var zeroPage [PageSize]byte

// NewMemory returns size bytes of zeroed physical memory.
func NewMemory(size int) *Memory {
	if size <= 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("fullsys: memory size %d not a positive page multiple", size))
	}
	return &Memory{pages: make([]*[PageSize]byte, size>>PageShift)}
}

// readable returns the page holding pa as a copy source.
func (m *Memory) readable(pa isa.Word) *[PageSize]byte {
	if pg := m.pages[pa>>PageShift]; pg != nil {
		return pg
	}
	return &zeroPage
}

// writable returns the page holding pa, allocating it on the first store.
func (m *Memory) writable(pa isa.Word) *[PageSize]byte {
	pg := m.pages[pa>>PageShift]
	if pg == nil {
		pg = new([PageSize]byte)
		m.pages[pa>>PageShift] = pg
	}
	return pg
}

// span splits n bytes at pa at the end of pa's page: pa's offset in the page
// and how many of the bytes lie in it.
func span(pa isa.Word, n int) (off, k int) {
	off = int(pa) & (PageSize - 1)
	return off, min(n, PageSize-off)
}

// Size returns the physical memory size in bytes.
func (m *Memory) Size() int { return len(m.pages) << PageShift }

// InRange reports whether an access of n bytes at pa lies inside memory.
func (m *Memory) InRange(pa isa.Word, n int) bool {
	return int(pa) >= 0 && int(pa)+n <= m.Size() && pa+isa.Word(n) >= pa
}

// Read returns an n-byte little-endian value at pa. n ∈ {1,2,4,8}.
func (m *Memory) Read(pa isa.Word, n int) uint64 {
	off, k := span(pa, n)
	if k < n { // the value continues in the next page
		var buf [8]byte
		m.CopyOut(buf[:n], pa)
		return binary.LittleEndian.Uint64(buf[:])
	}
	b := m.readable(pa)[off:]
	switch n {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	panic(fmt.Sprintf("fullsys: bad read size %d", n))
}

// Write stores an n-byte little-endian value at pa.
func (m *Memory) Write(pa isa.Word, v uint64, n int) {
	off, k := span(pa, n)
	if k < n {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		m.Load(pa, buf[:n])
		return
	}
	b := m.writable(pa)[off:]
	switch n {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		panic(fmt.Sprintf("fullsys: bad write size %d", n))
	}
}

// CopyOut copies the len(dst) bytes at pa into dst without allocating: the
// way instruction fetch and the undo journal read a run of memory. There is
// no view of memory to hand out, since a never-written page has no storage.
func (m *Memory) CopyOut(dst []byte, pa isa.Word) {
	for len(dst) > 0 {
		off, k := span(pa, len(dst))
		copy(dst[:k], m.readable(pa)[off:])
		dst, pa = dst[k:], pa+isa.Word(k)
	}
}

// Fill sets the n bytes at pa to b (one run of a rep stos, or the undo of
// one over zeros). It doubles the filled prefix by copying it, so a run
// costs O(log n) memmoves rather than a byte loop.
func (m *Memory) Fill(pa isa.Word, n int, b byte) {
	for n > 0 {
		off, k := span(pa, n)
		run := m.writable(pa)[off : off+k]
		run[0] = b
		for done := 1; done < k; done *= 2 {
			copy(run[done:], run[:done])
		}
		pa, n = pa+isa.Word(k), n-k
	}
}

// CopyForward copies n bytes from src to dst in ascending address order, the
// way a byte-at-a-time rep movs does. Unlike memmove, a destination that
// starts inside (src, src+n) re-reads bytes the copy has already written, so
// the leading dst-src bytes repeat through the run: such a copy proceeds in
// pieces of at most dst-src bytes. Every piece also ends where either side's
// page does.
func (m *Memory) CopyForward(dst, src isa.Word, n int) {
	step := n
	if dst > src && int(dst-src) < n {
		step = int(dst - src)
	}
	for n > 0 {
		doff, k := span(dst, min(step, n))
		soff, k := span(src, k)
		copy(m.writable(dst)[doff:doff+k], m.readable(src)[soff:])
		dst, src, n = dst+isa.Word(k), src+isa.Word(k), n-k
	}
}

// Load copies a program image (or any saved run of bytes) into physical
// memory.
func (m *Memory) Load(base isa.Word, code []byte) {
	if !m.InRange(base, len(code)) {
		panic(fmt.Sprintf("fullsys: image [%#x,%#x) outside memory", base, int(base)+len(code)))
	}
	for len(code) > 0 {
		off, k := span(base, len(code))
		copy(m.writable(base)[off:], code[:k])
		code, base = code[k:], base+isa.Word(k)
	}
}

// TLBEntry is one software-filled translation: VPN→PFN plus permissions.
type TLBEntry struct {
	VPN   isa.Word
	PFN   isa.Word
	Valid bool
	// User allows user-mode access; Write allows stores.
	User  bool
	Write bool
}

// PFN field encoding used by the tlbwr instruction's second operand:
// pfn<<12 | flags.
const (
	TLBFlagUser  isa.Word = 1 << 0
	TLBFlagWrite isa.Word = 1 << 1
)

// NumTLBEntries is the size of the architectural (functional) TLB.
const NumTLBEntries = 32

// TLB is the architectural TLB, filled by the kernel via tlbwr. It is fully
// associative with FIFO replacement, which keeps the functional semantics
// simple; the timing model has its own TLB timing structures.
type TLB struct {
	entries [NumTLBEntries]TLBEntry
	next    int
}

// Reset invalidates every entry.
func (t *TLB) Reset() { *t = TLB{} }

// Insert writes a translation, replacing FIFO-style.
func (t *TLB) Insert(e TLBEntry) {
	// Replace an existing mapping of the same VPN if present.
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].VPN == e.VPN {
			t.entries[i] = e
			return
		}
	}
	t.entries[t.next] = e
	t.next = (t.next + 1) % NumTLBEntries
}

// Lookup translates vpn. ok is false on a miss.
func (t *TLB) Lookup(vpn isa.Word) (TLBEntry, bool) {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].VPN == vpn {
			return t.entries[i], true
		}
	}
	return TLBEntry{}, false
}

// Snapshot returns a copy of the TLB state for rollback.
func (t *TLB) Snapshot() TLB { return *t }

// Restore reinstates a snapshot.
func (t *TLB) Restore(s TLB) { *t = s }
