package fm

import (
	"repro/internal/fullsys"
	"repro/internal/isa"
)

// The predecode cache is the FM's analogue of QEMU's translation cache
// (the paper's FM is a modified QEMU, §2/§3.4): code is fetched, decoded
// and microcode-instantiated once, then replayed from the cache until a
// store changes the bytes behind its physical address. The steady-state
// per-instruction path becomes translate → probe → execute, with zero
// byte copies, zero isa.Decode calls and zero µop-template instantiation.
//
// An entry depends on physical memory alone: only instructions whose bytes
// lie on one page are cached, so TLB and paging-control changes are
// invisible to entries — the next fetch re-translates and probes whatever
// physical address the new mapping yields. An instruction that spans two
// pages is decoded at every fetch, exactly as with the cache off. The table
// therefore belongs to the physical memory (Shared), as QEMU's physically
// indexed translation cache is shared by every vCPU: the cores of a
// multicore target probe and fill one table, each counting its own probes.
// Correctness then rests on two invalidation rules:
//
//   - Stores: each physical page that backs a cached instruction has a
//     record of its store generation and a mask of its 64-byte lines, a
//     bit set for every line holding bytes of one. A store that overlaps a
//     marked line bumps its page's generation; an entry records the
//     generation of the page it was fetched from and misses when it
//     disagrees. A store next to code — into a line of the page
//     that holds no cached instruction byte — leaves them valid. Every
//     store reaches the same hook, whichever core makes it: a model's own
//     (including each run of a rep movs/stos) and the memory undo of a
//     rollback, so an undone store into code invalidates as the store did.
//
//   - Program load: LoadProgram rewrites memory wholesale and flushes,
//     dropping the slots and the page records alike.
//
// probe, noteStore and flush are nil-receiver-safe; a disabled cache
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
	pa  isa.Word // physical address of the first instruction byte
	gen uint32   // its page's store generation at fill time
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

// codeLineShift sizes the lines code is tracked at: 64 bytes, so that a
// page's lines fit one uint64 mask.
const codeLineShift = fullsys.PageShift - 6

// slotPages is how many pages' records share a slot of icache.pages: a
// group then covers 64 pages, so the table costs one pointer per 64 pages
// until code is cached in them.
const slotPages = 4

// pageCode is what the predecode cache keeps per physical page: its store
// generation and a mask of its 64-byte lines that hold cached code.
type pageCode struct {
	lines uint64
	gen   uint32
}

// icTable is the direct-mapped predecode table of one physical memory.
type icTable struct {
	slots lazyTable[icEntry]
	mask  isa.Word
	pages lazyTable[[slotPages]pageCode] // per physical page, allocated with its group's first code
}

// icache is one model's view of its memory's predecode table: the table,
// and the model's own counters, published as fm_icache_* by
// Model.PublishTelemetry.
type icache struct {
	*icTable
	hits          uint64
	misses        uint64
	invalidations uint64 // page generations this model's stores and undos bumped
	flushes       uint64
}

// newICTable sizes the table to the next power of two ≥ entries over a
// memBytes physical memory.
func newICTable(entries, memBytes int) *icTable {
	n := 1
	for n < entries {
		n <<= 1
	}
	pages := (memBytes + fullsys.PageSize - 1) >> fullsys.PageShift
	return &icTable{
		slots: newLazyTable[icEntry](n),
		mask:  isa.Word(n - 1),
		pages: newLazyTable[[slotPages]pageCode]((pages + slotPages - 1) / slotPages),
	}
}

// page returns page p's record, nil while no code was cached in its group.
func (c *icTable) page(p isa.Word) *pageCode {
	if s := c.pages.peek(p / slotPages); s != nil {
		return &s[p%slotPages]
	}
	return nil
}

// gen returns page p's store generation: 0 until a store into its code.
func (c *icTable) gen(p isa.Word) uint32 {
	if pc := c.page(p); pc != nil {
		return pc.gen
	}
	return 0
}

// lineSpan returns the mask of the lines from pa's to end's, both on one
// page.
func lineSpan(pa, end isa.Word) uint64 {
	lo, hi := pa>>codeLineShift&63, end>>codeLineShift&63
	return ^uint64(0) >> (63 - hi) &^ (uint64(1)<<lo - 1)
}

// markCode records that bytes pa..end, on one page, back a cached
// instruction.
func (c *icTable) markCode(pa, end isa.Word) {
	p := pa >> fullsys.PageShift
	c.pages.slot(p / slotPages)[p%slotPages].lines |= lineSpan(pa, end)
}

// noteLines bumps the generation of the page holding bytes pa..end when
// they overlap a line that backs a cached instruction.
func (c *icache) noteLines(pa, end isa.Word) {
	if pc := c.page(pa >> fullsys.PageShift); pc != nil && pc.lines&lineSpan(pa, end) != 0 {
		pc.gen++
		c.invalidations++
	}
}

// probe looks up the instruction at physical address pa.
func (c *icache) probe(pa isa.Word) (*icEntry, bool) {
	if c == nil {
		return nil, false
	}
	return c.probeOn(pa, c.page(pa>>fullsys.PageShift))
}

// probeOn is probe with pa's page record pg already read (nil while its
// group holds no code), the way a superblock walk reads it once. A miss
// returns the slot pa indexes, nil while unallocated.
func (c *icache) probeOn(pa isa.Word, pg *pageCode) (*icEntry, bool) {
	e := c.slots.peek(pa & c.mask)
	if e == nil || e.inst.Size == 0 || e.pa != pa || pg == nil || e.gen != pg.gen {
		c.misses++
		return e, false
	}
	c.hits++
	return e, true
}

// fill predecodes the freshly decoded instruction at pa, whose bytes lie on
// one page, installs it and returns its slot. Unlike the other methods it
// needs a cache: both callers hold one.
func (c *icTable) fill(pa isa.Word, inst isa.Inst) *icEntry {
	e := c.slots.slot(pa & c.mask)
	*e = icEntry{pa: pa, gen: c.gen(pa >> fullsys.PageShift), predecoded: predecode(inst)}
	c.markCode(pa, pa+isa.Word(inst.Size)-1)
	return e
}

// noteStore invalidates cached instructions on the pages an n-byte write
// at physical address pa overlaps code on; the write spans at most two
// pages. Called from Model.store and from rollback memory undo (which
// rewrites memory without going through store).
func (c *icache) noteStore(pa isa.Word, n int) {
	if c == nil {
		return
	}
	end := pa + isa.Word(n) - 1
	if last := pa | (fullsys.PageSize - 1); end > last {
		c.noteLines(pa, last)
		pa = last + 1
	}
	c.noteLines(pa, end)
}

// flush empties the table (program load): its slots and page records.
func (c *icache) flush() {
	if c == nil {
		return
	}
	c.slots.drop()
	c.pages.drop()
	c.flushes++
}
