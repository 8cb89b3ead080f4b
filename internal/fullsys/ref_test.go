package fullsys

// refMemory is the flat memory this package shipped until Memory became a
// page table (ISSUE 24): one []byte of the configured size, allocated and
// cleared whole, read through views into it. It is kept verbatim, test-only,
// as the oracle TestMemoryAgreement and FuzzMemoryAgreement drive the page
// table against operation for operation. Do not tidy it. (The list of spare
// buffers it also carried went with the callers that handed them back.)

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/snap"
)

type refMemory struct {
	data []byte
}

func newRefMemory(size int) *refMemory {
	if size <= 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("fullsys: memory size %d not a positive page multiple", size))
	}
	return &refMemory{data: make([]byte, size)}
}

// page returns the storage of 4 KiB page p.
func (m *refMemory) page(p int) []byte { return m.data[p<<PageShift:][:PageSize] }

// zeroPages clears pages [from, to), writing only those that hold data.
func (m *refMemory) zeroPages(from, to int) {
	for p := from; p < to; p++ {
		if page := m.page(p); !refPageIsZero(page) {
			clear(page)
		}
	}
}

func (m *refMemory) Size() int { return len(m.data) }

func (m *refMemory) InRange(pa isa.Word, n int) bool {
	return int(pa) >= 0 && int(pa)+n <= len(m.data) && pa+isa.Word(n) >= pa
}

func (m *refMemory) Read(pa isa.Word, n int) uint64 {
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

func (m *refMemory) Write(pa isa.Word, v uint64, n int) {
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

// Bytes returns a read-only view of [pa, pa+n).
func (m *refMemory) Bytes(pa isa.Word, n int) []byte {
	end := int(pa) + n
	if end > len(m.data) {
		end = len(m.data)
	}
	return m.data[pa:end]
}

func (m *refMemory) Fill(pa isa.Word, n int, b byte) {
	run := m.data[pa : int(pa)+n]
	for i := range run {
		run[i] = b
	}
}

func (m *refMemory) CopyForward(dst, src isa.Word, n int) {
	step := n
	if dst > src && int(dst-src) < n {
		step = int(dst - src)
	}
	for off := 0; off < n; off += step {
		k := min(step, n-off)
		copy(m.data[int(dst)+off:int(dst)+off+k], m.data[int(src)+off:int(src)+off+k])
	}
}

func (m *refMemory) Load(base isa.Word, code []byte) {
	if !m.InRange(base, len(code)) {
		panic(fmt.Sprintf("fullsys: image [%#x,%#x) outside memory", base, int(base)+len(code)))
	}
	copy(m.data[base:], code)
}

func (m *refMemory) State(c *snap.Codec) {
	c.Version("memory", memStateV)
	c.Size("memory size", uint64(len(m.data)))
	numPages := len(m.data) >> PageShift
	if !c.Loading() {
		var pages []uint32
		for p := 0; p < numPages; p++ {
			if !refPageIsZero(m.page(p)) {
				pages = append(pages, uint32(p))
			}
		}
		c.Count(len(pages), 4+PageSize)
		for _, p := range pages {
			c.U32(&p)
			c.Raw(m.page(int(p)))
		}
		return
	}
	next := 0 // first page the blob has not settled yet
	for n := c.Count(0, 4+PageSize); n > 0 && c.Err() == nil; n-- {
		var p uint32
		c.U32(&p)
		if int(p) < next || int(p) >= numPages {
			c.Failf("page index %d out of order or outside %d-page memory", p, numPages)
			break
		}
		m.zeroPages(next, int(p))
		c.Raw(m.page(int(p)))
		if refPageIsZero(m.page(int(p))) {
			c.Failf("page %d stored all-zero", p)
		}
		next = int(p) + 1
	}
	m.zeroPages(next, numPages)
}

var refZeroPage [PageSize]byte

func refPageIsZero(page []byte) bool { return bytes.Equal(page, refZeroPage[:]) }

// agreementPages sizes the memories the agreement drivers compare: small
// enough that every step can compare all of it, large enough for runs that
// cross two page ends.
const agreementPages = 8

// memoryAgreement decodes ops as a sequence of memory operations, applies
// each to a page-table Memory and to the flat oracle, and after every one
// requires: the same bytes over the whole memory, the same State blob, each
// side's blob restoring the other side to those bytes, and a shared zero page
// that is still all zero.
func memoryAgreement(t *testing.T, ops []byte) {
	const size = agreementPages * PageSize
	m, ref := NewMemory(size), newRefMemory(size)
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// Half the addresses sit within 16 bytes of a page end, so that values
	// and runs straddle it.
	addr := func() isa.Word {
		page, sel, lo := next()%agreementPages, next(), next()
		off := sel<<8&(PageSize-1) | lo
		if sel&1 == 0 {
			off = PageSize - 16 + lo%32
		}
		return isa.Word(page<<PageShift + off)
	}
	// Run lengths reach past two page ends; most are short.
	length := func() int {
		hi, lo := next(), next()
		if hi&3 != 0 {
			return lo
		}
		return (hi<<8 | lo) % (2*PageSize + 512)
	}
	got := make([]byte, size)
	for step := 0; len(ops) > 0; step++ {
		op := next() % 6
		what := ""
		switch op {
		case 0, 1: // Read, Write
			pa, n := addr(), 1<<(next()%4)
			if ok := m.InRange(pa, n); ok != ref.InRange(pa, n) {
				t.Fatalf("step %d: InRange(%#x, %d) = %v, oracle disagrees", step, pa, n, ok)
			} else if !ok {
				continue
			}
			if op == 0 {
				what = fmt.Sprintf("Read(%#x, %d)", pa, n)
				if g, w := m.Read(pa, n), ref.Read(pa, n); g != w {
					t.Fatalf("step %d: %s = %#x, oracle %#x", step, what, g, w)
				}
				break
			}
			var v uint64
			for i := 0; i < 8; i++ {
				v = v<<8 | uint64(next())
			}
			if next()%4 == 0 {
				v = 0 // a store of zeros allocates a page the blob must omit
			}
			what = fmt.Sprintf("Write(%#x, %#x, %d)", pa, v, n)
			m.Write(pa, v, n)
			ref.Write(pa, v, n)
		case 2:
			pa, n, b := addr(), length(), byte(next())
			if b&3 == 0 {
				b = 0
			}
			if !ref.InRange(pa, n) {
				continue
			}
			what = fmt.Sprintf("Fill(%#x, %d, %#x)", pa, n, b)
			m.Fill(pa, n, b)
			ref.Fill(pa, n, b)
		case 3:
			src, n := addr(), length()
			dst := addr()
			switch d := next(); {
			case n == 0:
			case d&3 == 0:
				dst = src + isa.Word(1+d%n) // inside (src, src+n]: the repeating overlap
			case d&3 == 1:
				dst = src - min(src, isa.Word(1+d%n)) // overlapping from below: a memmove
			}
			if !ref.InRange(src, n) || !ref.InRange(dst, n) {
				continue
			}
			what = fmt.Sprintf("CopyForward(%#x, %#x, %d)", dst, src, n)
			m.CopyForward(dst, src, n)
			ref.CopyForward(dst, src, n)
		case 4:
			pa, n := addr(), length()
			code := make([]byte, n)
			for i := range code {
				code[i] = byte(next())
			}
			if !ref.InRange(pa, n) {
				continue
			}
			what = fmt.Sprintf("Load(%#x, %d bytes)", pa, n)
			m.Load(pa, code)
			ref.Load(pa, code)
		case 5:
			pa, n := addr(), length()
			if !ref.InRange(pa, n) {
				continue
			}
			what = fmt.Sprintf("CopyOut(%d bytes, %#x)", n, pa)
			out := bytes.Repeat([]byte{0xA5}, n)
			m.CopyOut(out, pa)
			if !bytes.Equal(out, ref.Bytes(pa, n)) {
				t.Fatalf("step %d: %s differs from the oracle's view", step, what)
			}
		}
		m.CopyOut(got, 0)
		if !bytes.Equal(got, ref.data) {
			t.Fatalf("step %d: memory differs from the oracle after %s", step, what)
		}
		if zeroPage != [PageSize]byte{} {
			t.Fatalf("step %d: %s wrote the shared zero page", step, what)
		}
		blob := snap.Marshal(m)
		if !bytes.Equal(blob, snap.Marshal(ref)) {
			t.Fatalf("step %d: State blob differs from the oracle's after %s", step, what)
		}
		// Each side's blob restores the other, over contents that must go.
		m2, ref2 := NewMemory(size), newRefMemory(size)
		m2.Fill(isa.Word(step%agreementPages)<<PageShift, PageSize, 0xEE)
		ref2.Fill(isa.Word(step%agreementPages)<<PageShift, PageSize, 0xEE)
		if err := snap.Unmarshal(blob, ref2); err != nil {
			t.Fatalf("step %d: oracle rejects the page table's blob: %v", step, err)
		}
		if err := snap.Unmarshal(snap.Marshal(ref), m2); err != nil {
			t.Fatalf("step %d: page table rejects the oracle's blob: %v", step, err)
		}
		m2.CopyOut(got, 0)
		if !bytes.Equal(got, ref.data) || !bytes.Equal(ref2.data, ref.data) {
			t.Fatalf("step %d: a restored blob differs from the memory it encoded after %s", step, what)
		}
	}
}

// TestMemoryAgreement drives the page table and the flat oracle with the
// same seeded operation sequences.
func TestMemoryAgreement(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 12000)
		rand.New(rand.NewSource(seed)).Read(ops)
		memoryAgreement(t, ops)
	}
}

// FuzzMemoryAgreement is TestMemoryAgreement over fuzz-chosen sequences.
func FuzzMemoryAgreement(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		ops := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(memoryAgreement)
}

// allocated counts the pages m holds storage for.
func allocated(m *Memory) (n int) {
	for _, pg := range m.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestMemoryAllocatesWhatItTouches: a memory costs the pages stored into,
// reads allocate nothing, an all-zero page stays out of the blob, and a
// restore allocates the blob's pages and no other.
func TestMemoryAllocatesWhatItTouches(t *testing.T) {
	const size = 16 << 20
	m := NewMemory(size)
	buf := make([]byte, 3*PageSize)
	m.CopyOut(buf, 5*PageSize-7)
	if m.Read(9*PageSize-2, 8) != 0 || allocated(m) != 0 {
		t.Fatalf("a fresh memory holds %d pages after reads, want 0", allocated(m))
	}
	m.Write(3*PageSize+40, 0xFEED, 2)
	if n := allocated(m); n != 1 {
		t.Fatalf("one store allocated %d pages, want 1", n)
	}
	m.Write(7*PageSize+8, 0, 4) // what a rolled-back wrong-path store leaves
	m.Write(9*PageSize-1, 0xBEEF, 2)
	m.Fill(1000*PageSize+1, 2*PageSize, 0x11)
	const k = 6 // pages 3, 8, 9, 1000, 1001, 1002; page 7 holds only zeros
	blob := snap.Marshal(m)
	if want := 1 + 8 + 4 + k*(4+PageSize); len(blob) != want {
		t.Fatalf("blob is %d bytes, want %d (%d pages)", len(blob), want, k)
	}
	restored := NewMemory(size)
	if err := snap.Unmarshal(blob, restored); err != nil {
		t.Fatal(err)
	}
	if n := allocated(restored); n != k {
		t.Fatalf("restoring a blob of %d pages allocated %d", k, n)
	}
	// Restoring over a used memory drops the pages the blob does not name.
	restored.Fill(20*PageSize, 3*PageSize, 0x77)
	if err := snap.Unmarshal(blob, restored); err != nil {
		t.Fatal(err)
	}
	if n := allocated(restored); n != k || restored.Read(20*PageSize, 8) != 0 {
		t.Fatalf("restore over a used memory left %d pages (want %d), page 20 reads %#x",
			n, k, restored.Read(20*PageSize, 8))
	}
}
