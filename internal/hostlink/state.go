package hostlink

// Warm-start serialization: the link's dynamic state is exactly its
// accumulated counters (configuration and histograms are rebuilt by the
// owning simulator). Nanos is a float accumulator; F64 carries the exact
// bit pattern so a resumed run's link time is byte-identical.

import "repro/internal/snap"

const linkStateV = 1

// State walks the link's accumulated counters.
func (l *Link) State(c *snap.Codec) {
	c.Version("hostlink", linkStateV)
	c.U64(&l.stats.Reads)
	c.U64(&l.stats.Writes)
	c.U64(&l.stats.BurstWords)
	c.F64(&l.stats.Nanos)
}
