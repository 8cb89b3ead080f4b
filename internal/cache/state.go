package cache

// Warm-start serialization of the timing-model memory hierarchy. Geometry
// (set count, ways, latencies) is configuration and is not serialized; the
// walks carry only dynamic state and pin the geometry the receiver was
// built with, so a blob restored onto a differently configured hierarchy
// fails decode instead of silently diverging.

import "repro/internal/snap"

const cacheStateV = 1

func (s *Stats) state(c *snap.Codec) {
	c.U64(&s.Accesses)
	c.U64(&s.Hits)
	c.U64(&s.Misses)
	c.U64(&s.Evictions)
}

// State walks the cache's dynamic state (tags, valid/dirty bits,
// replacement metadata, counters).
func (c *Cache) State(s *snap.Codec) {
	s.Version("cache", cacheStateV)
	s.Len("cache "+c.cfg.Name+" lines", len(c.tags))
	s.U32s(c.tags)
	s.Bools(c.valid)
	s.Bools(c.dirty)
	s.Raw(c.meta)
	s.Raw(c.rrPtr)
	for set, p := range c.rrPtr {
		if int(p) >= c.cfg.Ways { // victim returns it as a way index
			s.Failf("cache %s: set %d round-robin pointer %d of %d ways", c.cfg.Name, set, p, c.cfg.Ways)
		}
	}
	c.stats.state(s)
}

// State walks the DRAM delay model's counters (latency is config).
func (m *FixedMemory) State(s *snap.Codec) {
	s.Version("memory", cacheStateV)
	m.stats.state(s)
}

// State walks the TLB timing structure's dynamic state. The wire carries
// each entry's saturated LRU age, one byte, not its stamp: a load re-bases
// the ages as stamps behind the receiver's clock (modulo 2⁶⁴, which the
// age subtraction undoes).
func (t *TLBTiming) State(s *snap.Codec) {
	s.Version("tlb", cacheStateV)
	s.Len("tlb timing entries", len(t.entries))
	s.U32s(t.entries)
	s.Bools(t.valid)
	for i := range t.last {
		a := t.age(i)
		s.U8(&a)
		if s.Loading() {
			t.last[i] = t.clock - uint64(a)
		}
	}
	t.stats.state(s)
	if s.Loading() {
		t.hint = 0 // entry 0 is its VPN's first match whatever the blob holds
	}
}

// state walks one directory entry. Sharer bits and the owner index the
// per-core L1 lists on the next write to the line, so both are bounded by
// the configured core count here.
func (d *dirLine) state(s *snap.Codec, line *uint32, cores int) {
	owner := uint8(d.owner)
	s.U32(line)
	s.U64(&d.sharers)
	s.U8(&owner)
	s.Bool(&d.dirty)
	d.owner = int8(owner)
	if d.sharers>>cores != 0 || int(owner) >= cores {
		s.Failf("coherent directory line %#x: sharers %#x owner %d in a %d-core hierarchy", *line, d.sharers, owner, cores)
	}
}

// State walks the shared hierarchy's state: the L2 array, the DRAM
// counters, the directory and the coherence counters. The attached L1s are
// serialized by their owning timing models, not here. The directory is a
// map, so its two directions differ: it is written sorted by line for a
// canonical byte stream, and a blob in any other order is rejected.
func (c *Coherent) State(s *snap.Codec) {
	s.Version("coherent", cacheStateV)
	c.l2.State(s)
	c.mem.State(s)
	n := s.Count(len(c.dir), 14)
	if s.Loading() {
		c.dir = make(map[uint32]dirLine, n)
		prev := int64(-1)
		for i := 0; i < n && s.Err() == nil; i++ {
			var line uint32
			var d dirLine
			d.state(s, &line, c.cfg.Cores)
			if int64(line) <= prev {
				s.Failf("coherent directory line %#x not in ascending order", line)
			}
			prev, c.dir[line] = int64(line), d
		}
	} else {
		for _, line := range snap.SortedKeys(c.dir) {
			d := c.dir[line]
			d.state(s, &line, c.cfg.Cores)
		}
	}
	s.U64(&c.stats.Transfers)
	s.U64(&c.stats.Invalidations)
	s.U64(&c.stats.Hops)
}
