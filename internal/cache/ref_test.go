package cache

// refTLB is the TLB timing structure as this package shipped it until the
// LRU ages became stamps: an age byte per entry, every one of them aged on
// every touch. It is kept verbatim, test-only, as the oracle
// FuzzTLBAgreement drives TLBTiming against.

import (
	"bytes"
	"testing"

	"repro/internal/snap"
)

type refTLB struct {
	entries []uint32
	valid   []bool
	age     []uint8
	stats   Stats
}

func newRefTLB(n int) *refTLB {
	return &refTLB{entries: make([]uint32, n), valid: make([]bool, n), age: make([]uint8, n)}
}

func (t *refTLB) Access(vpn uint32) bool {
	t.stats.Accesses++
	for i := range t.entries {
		if t.valid[i] && t.entries[i] == vpn {
			t.stats.Hits++
			t.touch(i)
			return true
		}
	}
	t.stats.Misses++
	victim, oldest := 0, uint8(0)
	for i := range t.entries {
		if !t.valid[i] {
			victim = i
			break
		}
		if t.age[i] >= oldest {
			victim, oldest = i, t.age[i]
		}
	}
	t.entries[victim], t.valid[victim] = vpn, true
	t.touch(victim)
	return false
}

func (t *refTLB) Insert(vpn uint32) {
	for i := range t.entries {
		if t.valid[i] && t.entries[i] == vpn {
			t.touch(i)
			return
		}
	}
	victim, oldest := 0, uint8(0)
	for i := range t.entries {
		if !t.valid[i] {
			victim = i
			break
		}
		if t.age[i] >= oldest {
			victim, oldest = i, t.age[i]
		}
	}
	t.entries[victim], t.valid[victim] = vpn, true
	t.touch(victim)
}

func (t *refTLB) touch(i int) {
	for k := range t.age {
		if t.age[k] < 255 {
			t.age[k]++
		}
	}
	t.age[i] = 0
}

func (t *refTLB) Stats() Stats { return t.stats }

func (t *refTLB) State(s *snap.Codec) {
	s.Version("tlb", cacheStateV)
	s.Len("tlb timing entries", len(t.entries))
	s.U32s(t.entries)
	s.Bools(t.valid)
	s.Raw(t.age)
	t.stats.state(s)
}

// FuzzTLBAgreement drives TLBTiming and refTLB through the same calls and
// requires the same hit or miss, Stats and State bytes after every step.
// The first byte picks the size; then two bytes per step, an op and a VPN
// drawn from a little over twice the size (hits, fills and evictions alike):
// an Access, an Insert, a burst of 300 Accesses to one VPN (every other
// entry's age saturates, so the next miss breaks a tie among 255s), or a
// save→load round trip of each into a fresh structure.
func FuzzTLBAgreement(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 3, 3, 5, 9, 0, 1, 6, 0, 0, 1})
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 5, 9, 0, 7, 6, 0, 0, 8, 3, 2, 0, 9})
	seed := []byte{4}
	for i := byte(0); i < 40; i++ {
		seed = append(seed, i%5, i*7)
	}
	f.Add(append(seed, 5, 3, 6, 0, 0, 60, 0, 61, 6, 0, 0, 62))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := []int{1, 2, 4, 8, 32}[int(data[0])%5]
		got, want := NewTLBTiming(n), newRefTLB(n)
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			op, vpn := data[0]%7, uint32(data[1])%uint32(2*n+3)
			switch op {
			case 0, 1, 2:
				if g, w := got.Access(vpn), want.Access(vpn); g != w {
					t.Fatalf("Access(%d) hit %v, want %v", vpn, g, w)
				}
			case 3, 4:
				got.Insert(vpn)
				want.Insert(vpn)
			case 5:
				for i := 0; i < 300; i++ {
					if g, w := got.Access(vpn), want.Access(vpn); g != w {
						t.Fatalf("burst Access(%d) hit %v, want %v", vpn, g, w)
					}
				}
			case 6:
				blob := snap.Marshal(got)
				got, want = NewTLBTiming(n), newRefTLB(n)
				if err := snap.Unmarshal(blob, got); err != nil {
					t.Fatal(err)
				}
				if err := snap.Unmarshal(blob, want); err != nil {
					t.Fatal(err)
				}
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("Stats %+v, want %+v", got.Stats(), want.Stats())
			}
			if g, w := snap.Marshal(got), snap.Marshal(want); !bytes.Equal(g, w) {
				t.Fatalf("State bytes differ\n got: %x\nwant: %x", g, w)
			}
		}
	})
}
