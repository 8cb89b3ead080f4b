package fm

import (
	"repro/internal/fullsys"
	"repro/internal/isa"
)

// The predecode cache is the FM's analogue of QEMU's translation cache
// (the paper's FM is a modified QEMU, §2/§3.4): code is fetched, decoded
// and microcode-instantiated once, then replayed from the cache until
// something that could change the bytes behind a physical address — a
// store, a rollback, a mapping change — invalidates it. The steady-state
// per-instruction path becomes translate → probe → execute, with zero
// byte copies, zero isa.Decode calls and zero µop-template instantiation.
//
// Correctness rests on three invalidation rules:
//
//   - Stores: a per-physical-page code-presence bitmap marks pages that
//     back at least one cached instruction. A store that hits a marked
//     page bumps that page's generation counter; entries record the
//     generations of the page(s) they were fetched from and miss when
//     they disagree. Memory undo during rollback rewrites memory through
//     the same hook, so undone stores invalidate identically.
//
//   - Mapping changes: entries are keyed by *physical* address, so TLB and
//     paging-control changes are invisible to single-page entries — the
//     next fetch re-translates and probes whatever physical line the new
//     mapping yields. Page-crossing entries are the exception: their tail
//     bytes came from the physical page that *followed virtually* at fill
//     time, so any TLB write/flush, control-register write or rollback
//     bumps a global mapping generation that paged crossing entries must
//     match. Kernel/paging-off crossing entries are physically contiguous
//     and only need the two page generations (plus a paged/unpaged context
//     match, since the same physical line crosses differently under
//     paging).
//
//   - Program load: LoadProgram rewrites memory wholesale and flushes.
//
// Every method but fill is nil-receiver-safe; a disabled cache
// (Config.ICacheEntries == 0) costs one nil check on the fetch path and
// nothing on stores.

// DefaultICacheEntries is the predecode-cache size a zero
// sim.Params.ICacheEntries and core.DefaultConfig select. 4 Ki
// direct-mapped slots cover the resident code of every bundled workload;
// slots allocate by group on first fill, so a run pays for the code it
// executes, not the table. The knob only trades host memory for FM speed —
// architected results are identical at any size.
const DefaultICacheEntries = 4096

// icEntry is one direct-mapped predecode-cache slot. inst.Size == 0 marks an
// empty slot (no legal instruction encodes in zero bytes).
type icEntry struct {
	pa      isa.Word // physical address of the first instruction byte
	crosses bool     // instruction bytes span two physical pages
	paged   bool     // filled from a paged user-mode fetch
	gen1    uint32   // pageGen of the first page at fill time
	gen2    uint32   // pageGen of the last page at fill time
	page2   isa.Word // physical page number of the last instruction byte
	mapGen  uint32   // mapping generation at fill time (paged crossers)
	predecoded
}

// lazyGroup is how many slots a lazyTable allocates at once.
const lazyGroup = 16

// lazyTable is a direct-mapped slot table that allocates its slots by group
// of lazyGroup on first fill, the way QEMU fills its translation cache on
// demand: a run holds the slots it filled, not the whole table.
type lazyTable[T any] struct{ groups []*[lazyGroup]T }

func newLazyTable[T any](n int) lazyTable[T] {
	return lazyTable[T]{groups: make([]*[lazyGroup]T, (n+lazyGroup-1)/lazyGroup)}
}

// peek returns slot i, or nil when its group was never filled (an empty
// slot to every probe).
func (t *lazyTable[T]) peek(i isa.Word) *T {
	if g := t.groups[i/lazyGroup]; g != nil {
		return &g[i%lazyGroup]
	}
	return nil
}

// slot returns slot i, allocating its group.
func (t *lazyTable[T]) slot(i isa.Word) *T {
	g := &t.groups[i/lazyGroup]
	if *g == nil {
		*g = new([lazyGroup]T)
	}
	return &(*g)[i%lazyGroup]
}

// drop empties every slot by dropping every group.
func (t *lazyTable[T]) drop() { clear(t.groups) }

// icache is the direct-mapped predecode cache.
type icache struct {
	slots lazyTable[icEntry]
	mask  isa.Word

	pageGen  []uint32 // per-physical-page store generation
	codePage []uint64 // bitmap: page backs at least one cached instruction
	mapGen   uint32   // bumped on TLB/CR mutations and rollbacks

	// Statistics, published as fm_icache_* by Model.PublishTelemetry.
	hits          uint64
	misses        uint64
	invalidations uint64
	flushes       uint64
}

// newICache sizes the cache to the next power of two ≥ entries over a
// memBytes physical memory.
func newICache(entries, memBytes int) *icache {
	n := 1
	for n < entries {
		n <<= 1
	}
	pages := (memBytes + fullsys.PageSize - 1) >> fullsys.PageShift
	return &icache{
		slots:    newLazyTable[icEntry](n),
		mask:     isa.Word(n - 1),
		pageGen:  make([]uint32, pages),
		codePage: make([]uint64, (pages+63)/64),
	}
}

func (c *icache) markCode(page isa.Word) {
	c.codePage[page>>6] |= 1 << (page & 63)
}

func (c *icache) codeBacked(page isa.Word) bool {
	return c.codePage[page>>6]&(1<<(page&63)) != 0
}

// probe looks up the instruction at physical address pa. paged reports the
// current translation context (user mode with paging enabled).
func (c *icache) probe(pa isa.Word, paged bool) (*icEntry, bool) {
	if c == nil {
		return nil, false
	}
	e := c.slots.peek(pa & c.mask)
	if e == nil || e.inst.Size == 0 || e.pa != pa || e.gen1 != c.pageGen[pa>>fullsys.PageShift] {
		c.misses++
		return nil, false
	}
	if e.crosses {
		// The tail bytes' location depends on how the next virtual page
		// mapped at fill time; revalidate that context (see file comment).
		if e.paged != paged || (e.paged && e.mapGen != c.mapGen) || e.gen2 != c.pageGen[e.page2] {
			c.misses++
			return nil, false
		}
	}
	c.hits++
	return e, true
}

// fill predecodes the freshly decoded instruction at pa, installs it and
// returns its slot. page2 is the physical page holding the last instruction
// byte (== the first page for non-crossing instructions). Unlike the other
// methods it needs a cache: both callers hold one.
func (c *icache) fill(pa isa.Word, inst isa.Inst, crosses, paged bool, page2 isa.Word) *icEntry {
	page1 := pa >> fullsys.PageShift
	if !crosses {
		page2 = page1
	}
	e := c.slots.slot(pa & c.mask)
	*e = icEntry{
		pa:         pa,
		crosses:    crosses,
		paged:      paged,
		gen1:       c.pageGen[page1],
		gen2:       c.pageGen[page2],
		page2:      page2,
		mapGen:     c.mapGen,
		predecoded: predecode(inst),
	}
	c.markCode(page1)
	if crosses {
		c.markCode(page2)
	}
	return e
}

// noteStore invalidates cached instructions overlapped by an n-byte write
// at physical address pa. Called from Model.store and from rollback memory
// undo (which rewrites memory without going through store).
func (c *icache) noteStore(pa isa.Word, n int) {
	if c == nil {
		return
	}
	p := pa >> fullsys.PageShift
	if c.codeBacked(p) {
		c.pageGen[p]++
		c.invalidations++
	}
	if p2 := (pa + isa.Word(n) - 1) >> fullsys.PageShift; p2 != p && c.codeBacked(p2) {
		c.pageGen[p2]++
		c.invalidations++
	}
}

// noteMapping records a change to address-translation state (TLB write or
// flush, control-register write, rollback): paged page-crossing entries
// fetched their tail through the old mapping and must re-fetch.
func (c *icache) noteMapping() {
	if c == nil {
		return
	}
	c.mapGen++
}

// flush empties the cache (program load).
func (c *icache) flush() {
	if c == nil {
		return
	}
	c.slots.drop()
	clear(c.codePage)
	c.flushes++
}
