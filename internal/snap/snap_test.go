package snap

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// step is one field of a scripted walk: kind picks the Codec method, and the
// value lives in the slot that method moves.
type step struct {
	kind  int
	u8    uint8
	b     bool
	u32   uint32
	u64   uint64
	f64   float64
	i     int
	bytes []byte   // Bytes (length-prefixed) and Raw (fixed length)
	str   string   // String
	words []uint32 // U32Slice (length-prefixed) and U32s (fixed length)
}

const stepKinds = 11

// script is a Stater whose walk visits its steps in order, so one script
// encodes and a blank copy of it (same kinds, same fixed lengths) decodes.
type script []step

func (s script) State(c *Codec) {
	for i := range s {
		st := &s[i]
		switch st.kind {
		case 0:
			c.U8(&st.u8)
		case 1:
			c.Bool(&st.b)
		case 2:
			c.U32(&st.u32)
		case 3:
			c.U64(&st.u64)
		case 4:
			c.F64(&st.f64)
		case 5:
			c.Int(&st.i)
		case 6:
			c.Bytes(&st.bytes)
		case 7:
			c.String(&st.str)
		case 8:
			c.U32Slice(&st.words)
		case 9:
			c.Len("words", len(st.words))
			c.U32s(st.words)
		case 10:
			c.Raw(st.bytes)
		}
	}
}

// randomScript draws a walk of n steps. Empty variable-length values are nil,
// which is what decoding an empty one yields.
func randomScript(rng *rand.Rand, n int) script {
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	randBytes := func() []byte {
		if n := rng.Intn(40); n > 0 {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		return nil
	}
	randWords := func() []uint32 {
		var w []uint32
		for n := rng.Intn(12); n > 0; n-- {
			w = append(w, rng.Uint32())
		}
		return w
	}
	s := make(script, n)
	for i := range s {
		st := &s[i]
		st.kind = rng.Intn(stepKinds)
		switch st.kind {
		case 0:
			st.u8 = uint8(rng.Uint32())
		case 1:
			st.b = rng.Intn(2) == 1
		case 2:
			st.u32 = rng.Uint32()
		case 3:
			st.u64 = rng.Uint64()
		case 4:
			if st.f64 = rng.NormFloat64(); rng.Intn(3) == 0 {
				st.f64 = floats[rng.Intn(len(floats))]
			}
		case 5:
			st.i = int(int64(rng.Uint64())) // negative values included
		case 6, 10:
			st.bytes = randBytes()
		case 7:
			st.str = string(randBytes())
		case 8, 9:
			st.words = randWords()
		}
	}
	return s
}

// blank returns s with every value zeroed; the fixed-length kinds keep their
// lengths, which are configuration the decoding side already has.
func (s script) blank() script {
	out := make(script, len(s))
	for i, st := range s {
		out[i].kind = st.kind
		switch st.kind {
		case 9:
			if st.words != nil {
				out[i].words = make([]uint32, len(st.words))
			}
		case 10:
			if st.bytes != nil {
				out[i].bytes = make([]byte, len(st.bytes))
			}
		}
	}
	return out
}

// TestCodecRoundTrip is the Codec's contract as a property: any walk encoded
// through a Writer decodes through a Reader into the same values, consumes
// the blob exactly, and re-encodes to the same bytes (so the encoding is
// bit-exact and deterministic); every strict prefix of the blob fails with a
// typed error instead of decoding or panicking.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		want := randomScript(rng, 1+rng.Intn(30))
		blob := Marshal(want)
		got := want.blank()
		if err := Unmarshal(blob, got); err != nil {
			t.Fatalf("round %d: decode of a fresh encoding: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: round trip changed the walk:\n  in  %+v\n  out %+v", round, want, got)
		}
		if again := Marshal(got); !bytes.Equal(again, blob) {
			t.Fatalf("round %d: re-encoding the decoded walk moved bytes", round)
		}
		for cut := 0; cut < len(blob); cut += 1 + len(blob)/16 {
			err := Unmarshal(blob[:cut], want.blank())
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("round %d: decode of %d/%d bytes: %v, want a typed error", round, cut, len(blob), err)
			}
		}
	}
}

// pinned is a State walk shaped like the simulator's: a version, the
// configured geometry pinned before the arrays it sizes, then a counted
// keyed collection and the length-prefixed kinds.
type pinned struct {
	regs  [4]uint32
	keys  []uint32
	vals  []uint64
	blob  []byte
	name  string
	words []uint32
	n     int
	f     float64
	ok    bool
	raw   [3]byte
}

func (p *pinned) State(c *Codec) {
	c.Version("pinned", 3)
	c.Len("regs", len(p.regs))
	c.U32s(p.regs[:])
	c.Size("memory", 1<<24)
	c.Tag("predictor", "gshare")
	c.Flag("sparse", true)
	n := c.Count(len(p.keys), 12)
	if c.Loading() {
		p.keys, p.vals = make([]uint32, n), make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		c.U32(&p.keys[i])
		c.U64(&p.vals[i])
	}
	c.Bytes(&p.blob)
	c.String(&p.name)
	c.U32Slice(&p.words)
	c.Int(&p.n)
	c.F64(&p.f)
	c.Bool(&p.ok)
	c.Raw(p.raw[:])
}

// FuzzCodec feeds arbitrary bytes through every pin a State walk checks its
// input with (Version, Len, Size, Tag, Flag, Count) and every field kind: a
// decode never panics and never allocates from an unchecked count, fails
// only with a typed error, and whatever it accepts re-encodes to the very
// bytes it was given.
func FuzzCodec(f *testing.F) {
	valid := Marshal(&pinned{
		regs: [4]uint32{1, 2, 3, 4}, keys: []uint32{7, 9}, vals: []uint64{70, 90},
		blob: []byte("blob"), name: "name", words: []uint32{5, 6}, n: -1, f: 0.5, ok: true,
		raw: [3]byte{1, 2, 3},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0))
	// The Count prefix follows version (1), regs (4+16), size (8), tag (4+6)
	// and flag (1).
	hugeCount := append([]byte(nil), valid...)
	copy(hugeCount[40:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(hugeCount)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p pinned
		switch err := Unmarshal(data, &p); {
		case err == nil:
			if again := Marshal(&p); !bytes.Equal(again, data) {
				t.Fatalf("accepted blob re-encodes differently:\n  in  %x\n  out %x", data, again)
			}
		case !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt):
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}
