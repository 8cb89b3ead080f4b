// Package cache implements the memory-hierarchy timing models of the FAST
// prototype: set-associative blocking caches (LRU or round-robin
// replacement, §4: "arbiters (currently LRU and round-robin)"), TLB timing
// structures, and the fixed-delay DRAM model ("a simple delay model of
// memory", Figure 3).
package cache

import (
	"fmt"
	"math/bits"
)

// Level is anything an access can be forwarded to: a lower cache or memory.
type Level interface {
	Name() string
	// Access returns the cycles taken to satisfy an access at physical
	// address addr. write marks stores.
	Access(addr uint32, write bool) int
	// Stats returns the level's accumulated counters.
	Stats() Stats
}

// Stats counts cache activity.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// repeat adds to s n times what it gained since from.
func (s *Stats) repeat(from Stats, n uint64) {
	s.Accesses += n * (s.Accesses - from.Accesses)
	s.Hits += n * (s.Hits - from.Hits)
	s.Misses += n * (s.Misses - from.Misses)
	s.Evictions += n * (s.Evictions - from.Evictions)
}

// HitRate returns hits over accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Policy selects the replacement arbiter.
type Policy uint8

const (
	LRU Policy = iota
	RoundRobin
)

func (p Policy) String() string {
	if p == RoundRobin {
		return "round-robin"
	}
	return "lru"
}

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency int // cycles on a hit
	Policy     Policy
}

// DefaultL1I, DefaultL1D and DefaultL2 are the prototype target's caches
// (§4: "eight-way 32KB L1 instruction and data caches, an eight-way 256KB
// shared L2 cache"), with the Figure 3 delays (L1 hit 1, L1→L2 8).
func DefaultL1I() Config {
	return Config{Name: "iL1", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, HitLatency: 1}
}

// DefaultL1D is the 32 KiB 8-way data cache.
func DefaultL1D() Config {
	return Config{Name: "dL1", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, HitLatency: 1}
}

// DefaultL2 is the 256 KiB 8-way shared L2 with the Figure 3 8-cycle access.
func DefaultL2() Config {
	return Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, HitLatency: 8}
}

// Cache is a blocking set-associative cache.
type Cache struct {
	cfg   Config
	tags  []uint32
	valid []bool
	dirty []bool
	meta  []uint8 // LRU age or round-robin pointer storage
	rrPtr []uint8 // per-set round-robin pointer
	next  Level
	stats Stats
	// The set count, and the log2 of the line size (LineOf checks that it
	// is one) and of the set count.
	sets, lineShift, setShift int
}

// New builds a cache over the given next level.
func New(cfg Config, next Level) *Cache {
	if cfg.Ways <= 0 || cfg.LineBytes <= 0 || cfg.SizeBytes%(cfg.Ways*cfg.LineBytes) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	if sets < 1 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %s set count %d not a power of two", cfg.Name, sets))
	}
	n := sets * cfg.Ways
	return &Cache{
		cfg: cfg, sets: sets, next: next,
		lineShift: bits.TrailingZeros(uint(cfg.LineBytes)), setShift: bits.TrailingZeros(uint(sets)),
		tags: make([]uint32, n), valid: make([]bool, n),
		dirty: make([]bool, n), meta: make([]uint8, n),
		rrPtr: make([]uint8, sets),
	}
}

// Name implements Level.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats implements Level.
func (c *Cache) Stats() Stats { return c.stats }

// LineOf returns addr's line number: a shift when the line size is a power
// of two, as every default is, and a divide otherwise.
func (c *Cache) LineOf(addr uint32) uint32 {
	if c.cfg.LineBytes == 1<<c.lineShift {
		return addr >> c.lineShift
	}
	return addr / uint32(c.cfg.LineBytes)
}

func (c *Cache) index(addr uint32) (set int, tag uint32) {
	line := c.LineOf(addr)
	return int(line) & (c.sets - 1), line >> c.setShift
}

// Access implements Level: LRU/RR lookup, miss fill from the next level.
func (c *Cache) Access(addr uint32, write bool) int {
	c.stats.Accesses++
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.stats.Hits++
			c.touch(base, w)
			if write {
				c.dirty[i] = true
			}
			return c.cfg.HitLatency
		}
	}
	c.stats.Misses++
	// Miss: fetch the line from below (blocking), install it.
	lat := c.cfg.HitLatency
	if c.next != nil {
		lat += c.next.Access(addr, false)
	}
	victim := c.victim(set)
	i := base + victim
	if c.valid[i] {
		c.stats.Evictions++
		if c.dirty[i] && c.next != nil {
			// Write-back of the dirty victim; blocking caches pay for it
			// inline.
			lat += c.next.Access(c.victimAddr(set, i), true)
		}
	}
	c.tags[i], c.valid[i], c.dirty[i] = tag, true, write
	c.touch(base, victim)
	return lat
}

// victimAddr reconstructs the physical address of the line in slot i.
func (c *Cache) victimAddr(set, i int) uint32 {
	line := c.tags[i]*uint32(c.sets) + uint32(set)
	return line * uint32(c.cfg.LineBytes)
}

func (c *Cache) victim(set int) int {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.valid[base+w] {
			return w
		}
	}
	if c.cfg.Policy == RoundRobin {
		v := int(c.rrPtr[set])
		c.rrPtr[set] = uint8((v + 1) % c.cfg.Ways)
		return v
	}
	victim, oldest := 0, uint8(0)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.meta[base+w] >= oldest {
			victim, oldest = w, c.meta[base+w]
		}
	}
	return victim
}

func (c *Cache) touch(base, w int) {
	if c.cfg.Policy != LRU {
		return
	}
	for k := 0; k < c.cfg.Ways; k++ {
		if c.meta[base+k] < 255 {
			c.meta[base+k]++
		}
	}
	c.meta[base+w] = 0
}

// AppendSet appends to dst the state a hit in addr's set changes: each
// way's LRU age, then each way's dirty bit.
func (c *Cache) AppendSet(dst []byte, addr uint32) []byte {
	set, _ := c.index(addr)
	base := set * c.cfg.Ways
	dst = append(dst, c.meta[base:base+c.cfg.Ways]...)
	for _, d := range c.dirty[base : base+c.cfg.Ways] {
		if d {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// Repeat does what n more runs of the accesses made since the counters read
// from would do, when each of them hit and the run left the sets it touched
// as it found them (AppendSet): only the counters move.
func (c *Cache) Repeat(from Stats, n uint64) { c.stats.repeat(from, n) }

// Invalidate drops addr's line if resident — a directory-initiated
// back-invalidation. No write-back happens here: the coherence model
// charges the data movement at the directory, and architectural data lives
// in the functional model's memory, not in this timing structure.
func (c *Cache) Invalidate(addr uint32) {
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.valid[base+w] = false
			c.dirty[base+w] = false
			return
		}
	}
}

// Contains reports whether addr's line is resident (probe; no state
// change). Used by tests and the prefetch ablations.
func (c *Cache) Contains(addr uint32) bool {
	set, tag := c.index(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// FixedMemory is the fixed-delay DRAM model ("We currently do not model
// peripherals and DRAM, beyond a fixed delay", §4.1; Figure 3 shows 25).
type FixedMemory struct {
	Latency int
	stats   Stats
}

// NewFixedMemory builds the delay model (Figure 3's default is 25 cycles).
func NewFixedMemory(latency int) *FixedMemory { return &FixedMemory{Latency: latency} }

// Name implements Level.
func (m *FixedMemory) Name() string { return "MEM" }

// Access implements Level.
func (m *FixedMemory) Access(_ uint32, _ bool) int {
	m.stats.Accesses++
	m.stats.Hits++
	return m.Latency
}

// Stats implements Level.
func (m *FixedMemory) Stats() Stats { return m.stats }

// TLBTiming is the timing-model view of a TLB: a small fully-associative
// LRU structure tracking hit rates. Misses are *architecturally* handled by
// the software fill handler whose instructions appear in the trace; the
// timing structure only decides how often that happens in the target.
//
// An entry's LRU age is the number of touches since its own, saturated at
// 255. Rather than aging every entry on every touch, the structure counts
// touches in clock and stamps each entry with the count at its last touch,
// so a touch is O(1) and age(i) = min(255, clock − last[i]) is derived only
// when a miss picks a victim (or a snapshot writes the ages out).
type TLBTiming struct {
	entries []uint32
	valid   []bool
	last    []uint64
	clock   uint64
	// hint is the entry last touched, probed before the scan. It is always
	// the first valid match for its VPN (a fill installs only a VPN no valid
	// entry holds), so probing it first finds what the scan would.
	hint  int
	stats Stats
}

// NewTLBTiming builds an n-entry TLB timing model.
func NewTLBTiming(n int) *TLBTiming {
	if n < 1 {
		panic(fmt.Sprintf("cache: %d-entry TLB", n))
	}
	return &TLBTiming{entries: make([]uint32, n), valid: make([]bool, n), last: make([]uint64, n)}
}

// Access looks up vpn, filling on miss, and reports whether it hit.
func (t *TLBTiming) Access(vpn uint32) bool {
	t.stats.Accesses++
	if i, ok := t.lookup(vpn); ok {
		t.stats.Hits++
		t.touch(i)
		return true
	}
	t.stats.Misses++
	t.fill(vpn)
	return false
}

// Insert mirrors a software TLB fill carried in the trace (§2: "data
// written to special registers, such as software-filled TLB entries").
func (t *TLBTiming) Insert(vpn uint32) {
	if i, ok := t.lookup(vpn); ok {
		t.touch(i)
		return
	}
	t.fill(vpn)
}

// lookup returns the first valid entry holding vpn.
func (t *TLBTiming) lookup(vpn uint32) (int, bool) {
	if h := t.hint; t.valid[h] && t.entries[h] == vpn {
		return h, true
	}
	for i, e := range t.entries {
		if e == vpn && t.valid[i] {
			return i, true
		}
	}
	return 0, false
}

// fill installs vpn in the first invalid entry, or else in the last of the
// oldest.
func (t *TLBTiming) fill(vpn uint32) {
	victim, oldest := 0, uint8(0)
	for i := range t.entries {
		if !t.valid[i] {
			victim = i
			break
		}
		if a := t.age(i); a >= oldest {
			victim, oldest = i, a
		}
	}
	t.entries[victim], t.valid[victim] = vpn, true
	t.touch(victim)
}

func (t *TLBTiming) age(i int) uint8 { return uint8(min(255, t.clock-t.last[i])) }

func (t *TLBTiming) touch(i int) {
	t.clock++
	t.last[i], t.hint = t.clock, i
}

// Stats returns TLB counters.
func (t *TLBTiming) Stats() Stats { return t.stats }

// Repeat does what n more runs of the accesses made since the counters read
// from would do, when each of them hit: the counters grow n times as much,
// the clock moves on n times as far, and the entries the run touched —
// stamped after its start — keep their places relative to the clock.
func (t *TLBTiming) Repeat(from Stats, n uint64) {
	d := t.stats.Accesses - from.Accesses // one touch per hit
	for i, at := range t.last {
		if at > t.clock-d {
			t.last[i] = at + n*d
		}
	}
	t.clock += n * d
	t.stats.repeat(from, n)
}
