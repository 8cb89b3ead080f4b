package tm

// Warm-start serialization of the timing model. A TM snapshot is legal
// only at a quiescent boundary (Quiescent below): the pipeline is empty —
// ROB, front-end connectors, decode cursor, pending branch/miss lists all
// drained, no recovery in flight. At that point the only state that must
// survive is the target clock, the fetch frontier, the predictor and
// memory-hierarchy structures, the return-address stack, the LSU port
// reservations and the cumulative counters; everything in-flight is
// structurally empty and a freshly built TM already starts that way.
//
// The shared multicore hierarchy (cfg.Shared) is owned by the container,
// which serializes the Coherent directory once; a private-hierarchy TM
// carries its own L2 and memory counters. The blob records which shape it
// was taken from and refuses to restore onto the other.

import (
	"repro/internal/bpred"
	"repro/internal/snap"
)

const tmStateV = 1

// Quiescent reports whether the pipeline is fully drained: nothing
// in-flight anywhere, no mispredict recovery pending, and the trace not
// yet ended. Only in this state is State's pipeline-free encoding
// faithful. The unresolved counter is not required to be zero — it is a
// drifting accounting value that gates the nested-branch fetch limit, so
// it is serialized as-is rather than assumed drained.
func (t *TM) Quiescent() bool {
	return !t.ended && t.Drained()
}

// Drained reports the pipeline-empty predicates alone, without the
// not-ended requirement: a terminal core of a multicore target keeps an
// ended-but-drained TM, which is still snapshottable (the ended flag is
// part of the encoding).
func (t *TM) Drained() bool {
	return t.robHead == t.nextUop && // ROB and rename queue
		t.fetchQ.Len() == 0 &&
		t.decLeft == 0 &&
		len(t.pendingBranches) == 0 &&
		len(t.pendingMisses) == 0 &&
		!t.recovering
}

// state walks the connector's rate-limiter clocks and counters. The
// transaction queue must be empty (quiescence); the count is encoded so a
// blob captured otherwise fails decode.
func (c *Connector[T]) state(s *snap.Codec) {
	s.Len("connector "+c.name+" in-flight items", c.n)
	s.U64(&c.putCycle)
	s.Int32(&c.putsThis)
	s.U64(&c.getCycle)
	s.Int32(&c.getsThis)
	s.U64(&c.stats.Puts)
	s.U64(&c.stats.Gets)
	s.U64(&c.stats.PutStalls)
	s.U64(&c.stats.GetStalls)
	s.U64(&c.stats.OccupancySum)
}

// State walks the timing model's versioned binary state. Encoding is legal
// only when Quiescent(); decoding targets a freshly built TM of identical
// configuration, whose in-flight pipeline structures are left in their
// freshly-built empty state — the encoding guarantees the capture was
// quiescent.
func (t *TM) State(c *snap.Codec) {
	c.Version("tm", tmStateV)

	// Target clock and fetch frontier. ended distinguishes a live core's
	// boundary from a terminal core that has consumed FetchEnd: restoring
	// it keeps the scheduler skipping the core instead of re-draining it
	// (which would re-advance its cycle counters and break bit-identity).
	c.Bool(&t.ended)
	c.U64(&t.cycle)
	c.U64(&t.fetchIN)
	c.U64(&t.refillUntil)
	c.U64(&t.icacheStallUntil)

	// Return-address stack and the nested-branch gate counter.
	c.U32s(t.ras[:])
	c.Int(&t.rasTop)
	c.Int(&t.unresolved)

	// LSU port reservations (absolute cycles; may be in the future even
	// with an empty ROB — a just-committed memory op holds its port).
	c.Len("tm LSU ports", len(t.lsuFreeAt))
	c.U64s(t.lsuFreeAt)

	// Front-end connectors.
	t.fetchQ.state(c)
	t.uopQ.state(c)

	// Predictor and accuracy counters.
	bpred.State(c, t.BP)
	t.BPStats.State(c)

	// Memory hierarchy. Private L1s and TLB timing structures always;
	// L2/DRAM only when privately owned.
	t.IL1.State(c)
	t.DL1.State(c)
	t.ITLB.State(c)
	t.DTLB.State(c)
	owned := t.cfg.Shared == nil
	c.Flag("tm private L2/DRAM", owned)
	if owned {
		t.L2.State(c)
		t.Memory.State(c)
	}

	// Cumulative counters.
	c.U64(&t.Stats.Cycles)
	c.U64(&t.Stats.Instructions)
	c.U64(&t.Stats.UOps)
	c.U64(&t.Stats.BasicBlocks)
	c.U64(&t.Stats.DrainCycles)
	c.U64(&t.Stats.FetchBubbles)
	c.U64(&t.Stats.ICacheStalls)
	c.U64(&t.Stats.Mispredicts)
	c.U64(&t.Stats.Exceptions)
	c.U64(&t.Stats.Serializes)
	c.U64(&t.Stats.RSFullStalls)
	c.U64(&t.Stats.ROBFullStalls)
	c.U64(&t.Stats.LSQFullStalls)
	c.Len("tm issue classes", len(t.Stats.IssuedByClass))
	c.U64s(t.Stats.IssuedByClass[:])

	// Host-model accumulator.
	c.U64(&t.host.total)

	if c.Loading() {
		t.recovering, t.recoverIN = false, 0
		t.dropView()
		t.viewBase = 0
	}
}
