package cache

import (
	"math/rand"
	"testing"
)

func l1() *Cache { return New(DefaultL1D(), NewFixedMemory(25)) }

func TestHitAfterMiss(t *testing.T) {
	c := l1()
	lat := c.Access(0x1000, false)
	if lat != 1+25 {
		t.Errorf("cold miss latency %d, want 26", lat)
	}
	if lat := c.Access(0x1000, false); lat != 1 {
		t.Errorf("hit latency %d, want 1", lat)
	}
	// Same line, different word: still a hit.
	if lat := c.Access(0x1030, false); lat != 1 {
		t.Errorf("same-line hit latency %d, want 1", lat)
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestLineOf: a line number is a shift for a power-of-two line size and a
// divide for any other, so every geometry New accepts keeps its indexing:
// the line and set an address falls in, and the address a victim writes
// back to.
func TestLineOf(t *testing.T) {
	for _, line := range []int{1, 4, 24, 48, 64, 96, 256} {
		c := New(Config{Name: "t", SizeBytes: 4 * 2 * line, Ways: 2, LineBytes: line, HitLatency: 1}, NewFixedMemory(10))
		for _, addr := range []uint32{0, 1, 47, 48, 63, 64, 1000, 0xFFFF_FFFF} {
			if got, want := c.LineOf(addr), addr/uint32(line); got != want {
				t.Errorf("%d-byte lines: LineOf(%#x) = %d, want %d", line, addr, got, want)
			}
			set, tag := c.index(addr)
			if l := addr / uint32(line); set != int(l%4) || tag != l/4 {
				t.Errorf("%d-byte lines: index(%#x) = set %d tag %d", line, addr, set, tag)
			}
		}
	}
}

func TestLRUWithinSet(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64, HitLatency: 1}
	c := New(cfg, NewFixedMemory(10)) // 4 sets × 2 ways
	setStride := uint32(4 * 64)       // next address in the same set
	a, b, d := uint32(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU
	c.Access(d, false) // evicts b
	if !c.Contains(a) {
		t.Error("MRU line evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line survived")
	}
	if !c.Contains(d) {
		t.Error("new line missing")
	}
}

func TestRoundRobinDiffersFromLRU(t *testing.T) {
	cfg := Config{Name: "rr", SizeBytes: 4 * 64, Ways: 4, LineBytes: 64, HitLatency: 1, Policy: RoundRobin}
	c := New(cfg, NewFixedMemory(10)) // 1 set × 4 ways
	for i := uint32(0); i < 4; i++ {
		c.Access(i*64, false)
	}
	c.Access(0, false)    // hit; RR pointer unaffected
	c.Access(4*64, false) // evicts way 0 (address 0) despite being MRU
	if c.Contains(0) {
		t.Error("round-robin kept the pointer victim")
	}
}

func TestWritebackOfDirtyLines(t *testing.T) {
	cfg := Config{Name: "wb", SizeBytes: 2 * 64, Ways: 1, LineBytes: 64, HitLatency: 1}
	mem := NewFixedMemory(25)
	c := New(cfg, mem)
	c.Access(0x0000, true)  // miss, dirty
	c.Access(0x1000, false) // conflicting set 0? 0x1000/64=64 -> set 0. evicts dirty line
	// The second access pays fill + writeback.
	memAccesses := mem.Stats().Accesses
	if memAccesses != 3 { // fill, fill, writeback
		t.Errorf("memory accesses = %d, want 3 (two fills + one writeback)", memAccesses)
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	mem := NewFixedMemory(25)
	l2 := New(DefaultL2(), mem)
	l1 := New(DefaultL1D(), l2)
	// Cold: L1 miss + L2 miss + memory = 1 + 8 + 25.
	if lat := l1.Access(0x4000, false); lat != 34 {
		t.Errorf("cold access = %d, want 34", lat)
	}
	// L1 hit.
	if lat := l1.Access(0x4000, false); lat != 1 {
		t.Errorf("L1 hit = %d", lat)
	}
	// Evict from L1 but not L2: an address mapping to the same L1 set.
	// L1 has 64 sets × 64B lines: stride = 64*64 = 4096; 8 ways, so 9
	// accesses force out 0x4000 while the 512-set L2 keeps them all.
	for i := uint32(1); i <= 8; i++ {
		l1.Access(0x4000+i*4096, false)
	}
	if lat := l1.Access(0x4000, false); lat != 1+8 {
		t.Errorf("L1-miss/L2-hit = %d, want 9", lat)
	}
}

func TestWorkingSetHitRates(t *testing.T) {
	// Property: a working set within capacity converges to ~100% hits; a
	// uniform sweep far beyond capacity stays mostly misses.
	c := l1()
	for pass := 0; pass < 4; pass++ {
		for a := uint32(0); a < 16<<10; a += 64 {
			c.Access(a, false)
		}
	}
	if hr := c.Stats().HitRate(); hr < 0.7 {
		t.Errorf("in-capacity hit rate %.3f", hr)
	}
	c2 := l1()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		c2.Access(uint32(r.Intn(64<<20))&^63, false)
	}
	if hr := c2.Stats().HitRate(); hr > 0.1 {
		t.Errorf("out-of-capacity hit rate %.3f", hr)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{Name: "a", SizeBytes: 1000, Ways: 3, LineBytes: 64},
		{Name: "b", SizeBytes: 0, Ways: 1, LineBytes: 64},
		{Name: "c", SizeBytes: 3 * 64, Ways: 1, LineBytes: 64}, // 3 sets
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			New(cfg, nil)
		}()
	}
}

func TestTLBTiming(t *testing.T) {
	tlb := NewTLBTiming(4)
	if tlb.Access(1) {
		t.Error("cold TLB hit")
	}
	if !tlb.Access(1) {
		t.Error("warm TLB miss")
	}
	// Fill beyond capacity: LRU (vpn 1 touched most recently after 2,3,4
	// inserted... fill 2,3,4 then 5 evicts the oldest untouched).
	tlb.Access(2)
	tlb.Access(3)
	tlb.Access(4)
	tlb.Access(5) // evicts 1 (oldest)
	if tlb.Access(1) {
		t.Error("evicted VPN still present")
	}
	s := tlb.Stats()
	if s.Hits != 1 || s.Misses != 6 {
		t.Errorf("stats %+v", s)
	}
}

func TestTLBInsertMirrorsSoftwareFill(t *testing.T) {
	tlb := NewTLBTiming(4)
	tlb.Insert(9)
	if !tlb.Access(9) {
		t.Error("inserted VPN missed")
	}
	tlb.Insert(9) // idempotent
	if got := tlb.Stats().Accesses; got != 1 {
		t.Errorf("Insert counted as access: %d", got)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	// Writing back a dirty victim must target the victim's address, not
	// the incoming one; observable via a 2-level hierarchy.
	mem := NewFixedMemory(25)
	l2 := New(Config{Name: "l2", SizeBytes: 4 << 10, Ways: 8, LineBytes: 64, HitLatency: 8}, mem)
	l1 := New(Config{Name: "l1", SizeBytes: 128, Ways: 1, LineBytes: 64, HitLatency: 1}, l2)
	l1.Access(0x0000, true)
	l1.Access(0x0080, false) // evicts dirty 0x0000, writes it back into L2
	if !l2.Contains(0x0000) {
		t.Error("victim write-back did not land in L2 at the victim address")
	}
}

func TestHitRateEmpty(t *testing.T) {
	if (Stats{}).HitRate() != 1 {
		t.Error("empty stats hit rate should be 1")
	}
}
