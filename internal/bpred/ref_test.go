package bpred

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/snap"
)

// refBTB is the BTB as it was before it allocated by group: four whole
// sets × ways arrays. FuzzBTBAgreement holds BTB to it.
type refBTB struct {
	sets    int
	ways    int
	tags    []isa.Word
	targets []isa.Word
	valid   []bool
	lru     []uint8
}

func newRefBTB(entries, ways int) *refBTB {
	n := entries
	return &refBTB{
		sets: entries / ways, ways: ways,
		tags: make([]isa.Word, n), targets: make([]isa.Word, n),
		valid: make([]bool, n), lru: make([]uint8, n),
	}
}

func (b *refBTB) set(pc isa.Word) int { return int(pc>>1) & (b.sets - 1) }

func (b *refBTB) Lookup(pc isa.Word) (isa.Word, bool) {
	base := b.set(pc) * b.ways
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.valid[i] && b.tags[i] == pc {
			b.touch(base, w)
			return b.targets[i], true
		}
	}
	return 0, false
}

func (b *refBTB) Insert(pc, target isa.Word) {
	base := b.set(pc) * b.ways
	victim, oldest := 0, uint8(0)
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.valid[i] && b.tags[i] == pc {
			b.targets[i] = target
			b.touch(base, w)
			return
		}
		if !b.valid[i] {
			victim = w
			oldest = 255
			break
		}
		if b.lru[i] >= oldest {
			victim, oldest = w, b.lru[i]
		}
	}
	i := base + victim
	b.tags[i], b.targets[i], b.valid[i] = pc, target, true
	b.touch(base, victim)
}

func (b *refBTB) appendSet(dst []byte, pc isa.Word) []byte {
	base := b.set(pc) * b.ways
	for i := base; i < base+b.ways; i++ {
		dst = binary.LittleEndian.AppendUint32(dst, b.tags[i])
		dst = binary.LittleEndian.AppendUint32(dst, b.targets[i])
		dst = append(dst, b.lru[i])
		if b.valid[i] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func (b *refBTB) touch(base, w int) {
	for k := 0; k < b.ways; k++ {
		if b.lru[base+k] < 255 {
			b.lru[base+k]++
		}
	}
	b.lru[base+w] = 0
}

func (b *refBTB) State(c *snap.Codec) {
	c.Len("btb entries", len(b.tags))
	c.U32s(b.tags)
	c.U32s(b.targets)
	c.Bools(b.valid)
	c.Raw(b.lru)
}

// btbState walks a BTB's state for snap.Marshal.
type btbState struct{ b *BTB }

func (s btbState) State(c *snap.Codec) { s.b.state(c) }

// FuzzBTBAgreement drives the BTB and refBTB with the same Inserts and
// Lookups over PCs that alias within a set, across the sets of one group and
// across groups, and after every operation compares the lookup, what a
// predictor walk lists of the PC's set, and the encoded state. It ends by
// decoding the reference's blob onto a fresh BTB, which must re-encode it
// byte for byte and hold exactly the groups the reference has anything in.
func FuzzBTBAgreement(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(byte(1), bytes.Repeat([]byte{0x80, 0x41, 0x02, 0xC3, 0x44, 0x05}, 20))
	f.Add(byte(2), bytes.Repeat([]byte{0xFF, 0x10, 0x90, 0x11, 0x91, 0x12}, 30))
	f.Add(byte(3), []byte{0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0xA0, 0xA1, 0xA2})
	f.Fuzz(func(t *testing.T, geometry byte, ops []byte) {
		entries, ways := []int{256, 8, 64, 512}[geometry&3], []int{4, 1, 2, 8}[geometry>>2&3]
		if ways > entries {
			ways = entries
		}
		got, want := NewBTB(entries, ways), newRefBTB(entries, ways)
		sets := entries / ways
		g := NewGshare(6, got)
		for i, op := range ops {
			// Low bits pick a set from a few in the first group, the last
			// set of the first group, or sets in other groups; the next bits
			// pick one of five tags per set.
			set := []int{0, 1, 2, groupEntries/ways - 1, groupEntries / ways, sets - 1, sets / 2, 3}[op&7] % sets
			pc := isa.Word((int(op>>3&7)%5*sets + set) << 1)
			target := isa.Word(0x1000 + i)
			if op&0x80 != 0 {
				got.Insert(pc, target)
				want.Insert(pc, target)
			} else {
				gt, gok := got.Lookup(pc)
				wt, wok := want.Lookup(pc)
				if gt != wt || gok != wok {
					t.Fatalf("op %d: Lookup(%#x) = %#x, %v; want %#x, %v", i, pc, gt, gok, wt, wok)
				}
			}
			w, walk := NewWalk(nil, g)
			walk = w.Next(walk, pc, op&0x40 != 0)
			wantWalk := binary.LittleEndian.AppendUint32(nil, g.history)
			wantWalk = append(wantWalk, byte(g.pht[g.index(pc, g.history)]))
			if wantWalk = want.appendSet(wantWalk, pc); !bytes.Equal(walk, wantWalk) {
				t.Fatalf("op %d: walk of %#x lists % x, want % x", i, pc, walk, wantWalk)
			}
			if gb, wb := snap.Marshal(btbState{got}), snap.Marshal(want); !bytes.Equal(gb, wb) {
				t.Fatalf("op %d: state blobs differ", i)
			}
		}
		blob := snap.Marshal(want)
		back := NewBTB(entries, ways)
		if err := snap.Unmarshal(blob, btbState{back}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Marshal(btbState{back}), blob) {
			t.Fatal("decoded BTB re-encodes differently")
		}
		for k, grp := range back.groups {
			lo, hi := k*groupEntries, min((k+1)*groupEntries, entries)
			filled := false
			for i := lo; i < hi; i++ {
				filled = filled || want.tags[i] != 0 || want.targets[i] != 0 || want.valid[i] || want.lru[i] != 0
			}
			if (grp != nil) != filled {
				t.Fatalf("group %d: present %v after decode, reference has entries %v", k, grp != nil, filled)
			}
		}
	})
}

// TestBTBAllocatesWhatItFills: the paper's 8K-entry BTB costs its group
// table until a branch is inserted — 128 pointers, 1 KiB, which the runtime
// rounds up to 1 152 B with its header for a large object holding pointers —
// and each insert into a new group costs that group's 640 B and nothing else.
func TestBTBAllocatesWhatItFills(t *testing.T) {
	if size := unsafe.Sizeof(btbGroup{}); size != 640 {
		t.Errorf("a BTB group is %d B, want 640", size)
	}
	const runs = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perRun := func(f func()) (bytes, objects uint64) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
	}
	if n, objs := perRun(func() { btbSink = NewBTB(8192, 4) }); n > 1216 || objs != 2 {
		t.Errorf("NewBTB(8192, 4) allocates %d B in %d objects, want at most 1216 B in 2", n, objs)
	}
	btbs := make([]*BTB, runs)
	for i := range btbs {
		btbs[i] = NewBTB(8192, 4)
	}
	i := 0
	if n, objs := perRun(func() { btbs[i].Insert(0x1234, 0x5678); i++ }); n < 640 || n >= 656 || objs != 1 {
		t.Errorf("the first Insert allocates %d B in %d objects, want one 640 B group", n, objs)
	}
	i = 0
	if n, objs := perRun(func() { btbs[i].Insert(0x1236, 0x5678); i++ }); n >= 16 || objs != 0 {
		t.Errorf("an Insert into a filled group allocates %d B in %d objects, want none", n, objs)
	}
}

var btbSink *BTB
