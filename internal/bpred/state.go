package bpred

// Warm-start serialization of predictor state. Predictor is an interface
// with small concrete implementations, so rather than widen the interface
// (and every test fake) the walk lives here as a free function that
// switches on the concrete type. A resumed run must replay predictions
// bit-identically, so everything that influences a Prediction is carried:
// PHT/counter tables, global history, the BTB arrays including LRU ages,
// and the fixed predictor's branch count.

import (
	"repro/internal/snap"
)

const predStateV = 1

func (b *BTB) state(c *snap.Codec) {
	c.Len("btb entries", len(b.tags))
	c.U32s(b.tags)
	c.U32s(b.targets)
	c.Bools(b.valid)
	c.Raw(b.lru)
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
