// Package snap is the serialization substrate for warm-start snapshots: a
// tiny, deterministic, versioned binary codec. Every stateful layer of the
// simulator (devices, functional model, timing model, predictors, caches)
// has exactly one State(*Codec) method that walks its persistent fields in
// a fixed order. A Codec sits over a Writer or a Reader, so the one walk
// both encodes and decodes: the field list cannot drift between the two
// directions, the same state always produces the same bytes — a requirement
// for content-addressed snapshot storage — and truncated or corrupt blobs
// fail decode with an error instead of a panic.
//
// Decoding is in place: a walk reads straight into the target's fields and
// fixed-size arrays. A failed load therefore leaves the target undefined —
// rebuild it rather than reuse it (the one production caller, the fast
// engine's Configure, rebuilds cold on any restore error). Every length,
// index and geometry a walk reads is checked (Version, Len, Size, Tag,
// Flag, Count, Failf) before anything uses it.
//
// The encoding is little-endian with no self-description: framing is the
// responsibility of each layer (each walk opens with Version). Varints are
// deliberately avoided; fixed-width fields keep the encoding branch-free
// and the decode bounds-checks trivial.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrTruncated is returned (wrapped) when a Reader runs out of bytes.
var ErrTruncated = errors.New("snap: truncated blob")

// ErrCorrupt is the sentinel decode layers wrap when content is
// structurally invalid (bad version, impossible length, failed check).
var ErrCorrupt = errors.New("snap: corrupt blob")

// Corruptf builds an ErrCorrupt-wrapped error.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Stater is anything with a State walk: the one method that lists its
// persistent fields, in wire order, for both directions.
type Stater interface {
	State(c *Codec)
}

// Marshal encodes x through its State walk.
func Marshal(x Stater) []byte {
	c := Codec{w: newWriter(1 << 16)}
	x.State(&c)
	return c.w.Bytes()
}

// Unmarshal decodes blob onto x through the same walk and requires the blob
// to be consumed exactly. On error x is undefined (see the package comment).
func Unmarshal(blob []byte, x Stater) error {
	c := Codec{r: newReader(blob)}
	x.State(&c)
	return c.r.Close()
}

// Codec is one direction of a State walk: over a Writer it encodes the
// fields it is pointed at, over a Reader it decodes into them. Decode
// errors are sticky (the Reader's): after the first failure every read
// yields zero values, so a walk runs to its end and the caller checks once.
type Codec struct {
	w *Writer
	r *Reader
}

// Loading reports whether the walk is decoding. Only bodies whose two
// directions really differ (sparse or keyed collections, post-load
// rebuilds) branch on it.
func (c *Codec) Loading() bool { return c.r != nil }

// Err returns the first decode error, or nil (always nil when encoding).
func (c *Codec) Err() error {
	if c.r == nil {
		return nil
	}
	return c.r.err
}

// Failf fails a decode with an ErrCorrupt-wrapped error: walks call it when
// a value they just read is out of range for the target. The first error
// sticks; encoding never fails.
func (c *Codec) Failf(format string, args ...any) {
	if c.r != nil {
		c.r.fail(Corruptf(format, args...))
	}
}

// field moves one value between *p and the blob in the codec's direction.
func field[T any](c *Codec, p *T, read func(*Reader) T, write func(*Writer, T)) {
	if c.r != nil {
		*p = read(c.r)
	} else {
		write(c.w, *p)
	}
}

// U8, Bool, U32, U64 and F64 walk one fixed-width scalar.
func (c *Codec) U8(p *uint8)    { field(c, p, (*Reader).U8, (*Writer).U8) }
func (c *Codec) Bool(p *bool)   { field(c, p, (*Reader).Bool, (*Writer).Bool) }
func (c *Codec) U32(p *uint32)  { field(c, p, (*Reader).U32, (*Writer).U32) }
func (c *Codec) U64(p *uint64)  { field(c, p, (*Reader).U64, (*Writer).U64) }
func (c *Codec) F64(p *float64) { field(c, p, (*Reader).F64, (*Writer).F64) }

// Bytes, String and U32Slice walk one length-prefixed value; decoding
// replaces *p with a fresh copy.
func (c *Codec) Bytes(p *[]byte)      { field(c, p, (*Reader).Bytes32, (*Writer).Bytes32) }
func (c *Codec) String(p *string)     { field(c, p, (*Reader).String, (*Writer).String) }
func (c *Codec) U32Slice(p *[]uint32) { field(c, p, (*Reader).U32Slice, (*Writer).U32Slice) }

// Int walks an int as a two's-complement 64-bit field.
func (c *Codec) Int(p *int) {
	v := uint64(*p)
	c.U64(&v)
	*p = int(int64(v))
}

// Int32 walks a non-negative int as a 32-bit field.
func (c *Codec) Int32(p *int) {
	v := uint32(*p)
	c.U32(&v)
	*p = int(v)
}

// U32s, U64s, F64s, Bools and Raw walk a fixed-length array with no length
// prefix, decoding in place: the length is configuration, which the walk
// has already pinned with Len.
func (c *Codec) U32s(s []uint32) {
	for i := range s {
		c.U32(&s[i])
	}
}

func (c *Codec) U64s(s []uint64) {
	for i := range s {
		c.U64(&s[i])
	}
}

func (c *Codec) F64s(s []float64) {
	for i := range s {
		c.F64(&s[i])
	}
}

func (c *Codec) Bools(s []bool) {
	for i := range s {
		c.Bool(&s[i])
	}
}

func (c *Codec) Raw(b []byte) {
	if c.r != nil {
		c.r.Raw(b)
	} else {
		c.w.Raw(b)
	}
}

// Version opens a layer's walk: it writes the layer's format version, or
// reads one and fails unless it is v.
func (c *Codec) Version(what string, v uint8) {
	got := v
	c.U8(&got)
	if got != v {
		c.Failf("%s state version %d, want %d", what, got, v)
	}
}

// Len pins a configured length or geometry n (a uint32 on the wire): it
// writes n, or reads one and fails if the target was built with another.
func (c *Codec) Len(what string, n int) {
	got := uint32(n)
	c.U32(&got)
	c.expect(what, uint64(got), uint64(n))
}

// Size is Len for a 64-bit configured quantity.
func (c *Codec) Size(what string, n uint64) {
	got := n
	c.U64(&got)
	c.expect(what, got, n)
}

// Tag is Len for a configured name.
func (c *Codec) Tag(what, s string) {
	got := s
	c.String(&got)
	if got != s {
		c.Failf("%s %q, want %q", what, got, s)
	}
}

// Flag is Len for a configured yes/no (which of two layouts follows).
func (c *Codec) Flag(what string, b bool) {
	got := b
	c.Bool(&got)
	if got != b {
		c.Failf("%s %v, want %v", what, got, b)
	}
}

func (c *Codec) expect(what string, got, want uint64) {
	if got != want {
		c.Failf("%s %d, want %d", what, got, want)
	}
}

// Count walks the element count of a variable-length collection: it writes
// n, or reads one — failing if the remaining input cannot hold that many
// elements of at least elemSize bytes, so a corrupt count cannot drive a
// giant allocation — and returns the count to walk (0 after an error).
func (c *Codec) Count(n, elemSize int) int {
	if c.r != nil {
		return c.r.length(elemSize)
	}
	c.w.U32(uint32(n))
	return n
}

// SortedKeys returns m's keys ascending — the one wire order of a keyed
// collection, which its decoder in turn insists on.
func SortedKeys[V any](m map[uint32]V) []uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Writer accumulates a deterministic binary encoding: the encoding half of
// a Codec.
type Writer struct {
	buf []byte
}

// newWriter returns a writer with capacity preallocated.
func newWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a bool as one byte (0/1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// F64 writes a float64 bit-exactly (IEEE 754 bits, little-endian).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes32 writes a length-prefixed byte slice (uint32 length).
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes with no length prefix; the reader must know the size.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// U32Slice writes a length-prefixed []uint32.
func (w *Writer) U32Slice(s []uint32) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.U32(v)
	}
}

// Reader decodes a Writer's output with a sticky error: after the first
// failure every subsequent read returns zero values and Err() reports the
// failure, so decode layers can read a whole struct and check once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// newReader wraps blob for decoding.
func newReader(blob []byte) *Reader { return &Reader{data: blob} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Close verifies the blob was consumed exactly: trailing bytes are as
// corrupt as missing ones.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return Corruptf("%d trailing bytes", len(r.data)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) || r.off+n < r.off {
		r.fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.data)))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool; any byte other than 0/1 is corrupt.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(Corruptf("invalid bool byte"))
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64 bit-exactly.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// length reads a uint32 length prefix and sanity-checks it against the
// remaining bytes assuming each element costs at least elemSize bytes, so
// a corrupt length cannot drive a giant allocation.
func (r *Reader) length(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if elemSize > 0 && n > r.Remaining()/elemSize {
		r.fail(fmt.Errorf("%w: length %d exceeds remaining %d bytes", ErrTruncated, n, r.Remaining()))
		return 0
	}
	return n
}

// Raw reads len(dst) bytes with no length prefix into dst (which is left
// untouched on a short read).
func (r *Reader) Raw(dst []byte) { copy(dst, r.take(len(dst))) }

// Bytes32 reads a length-prefixed byte slice (always a fresh copy).
func (r *Reader) Bytes32() []byte {
	n := r.length(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length(1)
	b := r.take(n)
	return string(b)
}

// U32Slice reads a length-prefixed []uint32.
func (r *Reader) U32Slice() []uint32 {
	n := r.length(4)
	if n == 0 {
		return nil
	}
	s := make([]uint32, n)
	for i := range s {
		s[i] = r.U32()
	}
	return s
}
