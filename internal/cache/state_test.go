package cache

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/snap"
)

// TestStateRoundTripAndRejects round-trips the shared hierarchy and a
// round-robin cache through their State walks, then flips single fields of
// the encoded blobs into values the decoder must refuse: each would decode
// cleanly as bytes but index out of range on a later access (a sharer bit
// or owner beyond the core count reaches l1s[i] in backInvalidate, a
// round-robin pointer beyond the ways becomes a victim way), or would not
// re-encode to the same bytes (directory lines out of order).
func TestStateRoundTripAndRejects(t *testing.T) {
	newCoherent := func() *Coherent {
		return NewCoherent(CoherentConfig{L2: DefaultL2(), MemLatency: 25, Cores: 2})
	}
	src := newCoherent()
	src.Port(0).Access(0x1000, false)
	src.Port(1).Access(0x1000, false)
	src.Port(1).Access(0x2000, true)
	blob := snap.Marshal(src)
	dst := newCoherent()
	if err := snap.Unmarshal(blob, dst); err != nil {
		t.Fatal(err)
	}
	if again := snap.Marshal(dst); !bytes.Equal(blob, again) {
		t.Fatal("coherent hierarchy did not round-trip to the same bytes")
	}
	// The blob ends with two 14-byte directory entries (line, sharers,
	// owner, dirty) and three 8-byte counters.
	entry0, entry1 := len(blob)-24-28, len(blob)-24-14

	rrCfg := Config{Name: "rr", SizeBytes: 1 << 10, Ways: 4, LineBytes: 64, Policy: RoundRobin}
	rr := New(rrCfg, NewFixedMemory(10))
	for a := uint32(0); a < 4<<10; a += 64 {
		rr.Access(a, false)
	}
	rrBlob := snap.Marshal(rr)
	if err := snap.Unmarshal(rrBlob, New(rrCfg, NewFixedMemory(10))); err != nil {
		t.Fatal(err)
	}
	// A cache blob ends with one pointer byte per set and four 8-byte counters.
	rrPtr0 := len(rrBlob) - 32 - rr.sets

	for _, tc := range []struct {
		name   string
		blob   []byte
		mutate func(b []byte)
		target snap.Stater
	}{
		{"sharer bit beyond the cores", blob, func(b []byte) { b[entry0+4] |= 1 << 2 }, newCoherent()},
		{"owner beyond the cores", blob, func(b []byte) { b[entry1+12] = 2 }, newCoherent()},
		{"negative owner", blob, func(b []byte) { b[entry1+12] = 0xFF }, newCoherent()},
		{"directory lines out of order", blob, func(b []byte) {
			binary.LittleEndian.PutUint32(b[entry1:], binary.LittleEndian.Uint32(b[entry0:]))
		}, newCoherent()},
		{"round-robin pointer beyond the ways", rrBlob, func(b []byte) { b[rrPtr0] = 4 }, New(rrCfg, NewFixedMemory(10))},
	} {
		bad := append([]byte(nil), tc.blob...)
		tc.mutate(bad)
		if bytes.Equal(bad, tc.blob) {
			t.Fatalf("%s: mutation changed nothing", tc.name)
		}
		if err := snap.Unmarshal(bad, tc.target); err == nil {
			t.Errorf("%s: decode succeeded", tc.name)
		}
	}
}
