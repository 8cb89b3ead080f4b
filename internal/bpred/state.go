package bpred

// Warm-start serialization of predictor state. Predictor is an interface
// with small concrete implementations, so rather than widen the interface
// (and every test fake) the walk lives here as a free function that
// switches on the concrete type. A resumed run must replay predictions
// bit-identically, so everything that influences a Prediction is carried:
// PHT/counter tables, global history, the BTB arrays including LRU ages,
// and the fixed predictor's branch count.

import (
	"repro/internal/isa"
	"repro/internal/snap"
)

const predStateV = 1

// state walks the BTB as the four whole sets × ways arrays it once was —
// tags, targets, valid bits, LRU ages, each in entry order — so the blob
// does not depend on which groups a run filled: an absent group encodes as
// zeros, and one that decodes to all zeros stays absent.
func (b *BTB) state(c *snap.Codec) {
	c.Len("btb entries", b.sets*b.ways)
	var scratch *btbGroup // decoding: where an absent group's part is read
	if c.Loading() {
		clear(b.groups)
		scratch = new(btbGroup)
	}
	groupField(c, b, scratch, func(g *btbGroup) *[groupEntries]isa.Word { return &g.tags }, c.U32s)
	groupField(c, b, scratch, func(g *btbGroup) *[groupEntries]isa.Word { return &g.targets }, c.U32s)
	groupField(c, b, scratch, func(g *btbGroup) *[groupEntries]bool { return &g.valid }, c.Bools)
	groupField(c, b, scratch, func(g *btbGroup) *[groupEntries]uint8 { return &g.lru }, c.Raw)
}

// groupField walks one of the BTB's arrays group by group through walk. A
// group present (or any group, encoding) is walked in place; an absent
// group's part is decoded into scratch and materialises the group only if
// it is not all zeros.
func groupField[T comparable](c *snap.Codec, b *BTB, scratch *btbGroup, field func(*btbGroup) *[groupEntries]T, walk func([]T)) {
	for k, g := range b.groups {
		n := min(groupEntries, b.sets*b.ways-k*groupEntries)
		if g != nil || !c.Loading() {
			if g == nil {
				g = &zeroGroup
			}
			walk(field(g)[:n])
			continue
		}
		buf := field(scratch)
		if walk(buf[:n]); *buf != [groupEntries]T{} {
			g = new(btbGroup)
			b.groups[k] = g
			*field(g), *buf = *buf, [groupEntries]T{}
		}
	}
}

// counters walks a table of saturating counters, one byte each.
func counters(c *snap.Codec, t []counter) {
	for i := range t {
		c.U8((*uint8)(&t[i]))
	}
}

// State walks p's versioned dynamic state. Predictors are tagged by name so
// a blob restored onto a differently configured predictor fails decode
// rather than silently diverging.
func State(c *snap.Codec, p Predictor) {
	c.Version("predictor", predStateV)
	c.Tag("predictor", p.Name())
	switch v := p.(type) {
	case Perfect:
	case *Fixed:
		c.Size("fixed predictor period", v.period)
		c.U64(&v.n)
	case *TwoBit:
		counters(c, v.table)
		v.btb.state(c)
	case *Gshare:
		counters(c, v.pht)
		c.U32(&v.history)
		v.btb.state(c)
	default:
		panic("bpred: State: unknown predictor type " + p.Name())
	}
}

// State walks the accuracy counters.
func (s *Stats) State(c *snap.Codec) {
	c.U64(&s.Branches)
	c.U64(&s.Correct)
	c.U64(&s.DirWrong)
	c.U64(&s.TargetWrong)
}
