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
	"sync"

	"repro/internal/isa"
)

// PageShift/PageSize define the 4 KiB target page.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// Memory is the target's physical memory.
type Memory struct {
	data []byte
}

// spare holds the storage of recycled memories. One run's 16 MiB of target
// memory outweighs everything else it allocates; left to the collector, at a
// job server's run rate those buffers set its pace and its peak heap. The
// list is short on purpose: it bounds what an idle process keeps.
var spare struct {
	sync.Mutex
	bufs [][]byte
}

const maxSpare = 2

// NewMemory allocates size bytes of zeroed physical memory.
func NewMemory(size int) *Memory {
	if size <= 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("fullsys: memory size %d not a positive page multiple", size))
	}
	spare.Lock()
	var data []byte
	if n := len(spare.bufs); n > 0 && len(spare.bufs[n-1]) == size {
		data, spare.bufs[n-1] = spare.bufs[n-1], nil // the slot must not pin the buffer
		spare.bufs = spare.bufs[:n-1]
	}
	spare.Unlock()
	if data == nil {
		return &Memory{data: make([]byte, size)}
	}
	m := &Memory{data: data}
	m.zero()
	return m
}

// page returns the storage of 4 KiB page p.
func (m *Memory) page(p int) []byte { return m.data[p<<PageShift:][:PageSize] }

// zero clears the memory by writing only the pages that hold data. Writing a
// page makes it resident; reading one the host never touched does not, and a
// target touches a small part of its 16 MiB — so a memory that is zeroed this
// way (when recycled, or under a restored snapshot) stays as small in the
// host as the first run left it.
func (m *Memory) zero() { m.zeroPages(0, len(m.data)>>PageShift) }

// zeroPages is zero over pages [from, to).
func (m *Memory) zeroPages(from, to int) {
	for p := from; p < to; p++ {
		if page := m.page(p); !pageIsZero(page) {
			clear(page)
		}
	}
}

// Recycle hands the memory's storage to a later NewMemory of the same size.
// The caller must hold the last reference to m: afterwards m has size 0 and
// any access panics.
func (m *Memory) Recycle() {
	data := m.data
	m.data = nil
	spare.Lock()
	if data != nil && len(spare.bufs) < maxSpare {
		spare.bufs = append(spare.bufs, data)
	}
	spare.Unlock()
}

// Size returns the physical memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// InRange reports whether an access of n bytes at pa lies inside memory.
func (m *Memory) InRange(pa isa.Word, n int) bool {
	return int(pa) >= 0 && int(pa)+n <= len(m.data) && pa+isa.Word(n) >= pa
}

// Read returns an n-byte little-endian value at pa. n ∈ {1,2,4,8}.
func (m *Memory) Read(pa isa.Word, n int) uint64 {
	switch n {
	case 1:
		return uint64(m.data[pa])
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.data[pa:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.data[pa:]))
	case 8:
		return binary.LittleEndian.Uint64(m.data[pa:])
	}
	panic(fmt.Sprintf("fullsys: bad read size %d", n))
}

// Write stores an n-byte little-endian value at pa.
func (m *Memory) Write(pa isa.Word, v uint64, n int) {
	switch n {
	case 1:
		m.data[pa] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.data[pa:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.data[pa:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(m.data[pa:], v)
	default:
		panic(fmt.Sprintf("fullsys: bad write size %d", n))
	}
}

// Bytes returns a read-only view of [pa, pa+n); used by the instruction
// fetch path.
func (m *Memory) Bytes(pa isa.Word, n int) []byte {
	end := int(pa) + n
	if end > len(m.data) {
		end = len(m.data)
	}
	return m.data[pa:end]
}

// Fill sets the n bytes at pa to b (one run of a rep stos).
func (m *Memory) Fill(pa isa.Word, n int, b byte) {
	run := m.data[pa : int(pa)+n]
	for i := range run {
		run[i] = b
	}
}

// CopyForward copies n bytes from src to dst in ascending address order, the
// way a byte-at-a-time rep movs does. Unlike memmove, a destination that
// starts inside (src, src+n) re-reads bytes the copy has already written, so
// the leading dst-src bytes repeat through the run.
func (m *Memory) CopyForward(dst, src isa.Word, n int) {
	step := n
	if dst > src && int(dst-src) < n {
		step = int(dst - src)
	}
	for off := 0; off < n; off += step {
		k := min(step, n-off)
		copy(m.data[int(dst)+off:int(dst)+off+k], m.data[int(src)+off:int(src)+off+k])
	}
}

// Load copies a program image (or any saved run of bytes) into physical
// memory.
func (m *Memory) Load(base isa.Word, code []byte) {
	if !m.InRange(base, len(code)) {
		panic(fmt.Sprintf("fullsys: image [%#x,%#x) outside memory", base, int(base)+len(code)))
	}
	copy(m.data[base:], code)
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
