package fm

// Warm-start serialization of the functional model. A Model snapshot is
// legal only at a quiescent boundary — every produced instruction
// committed by the timing model, no wrong-path speculation in flight —
// which the coupled simulator (internal/core) verifies before it marshals.
// At such a boundary the rollback window is semantically empty, so the
// journal contributes nothing; the only engine state that must survive is
// the checkpoint engine's phase (distance into the current leapfrog
// segment) and its cumulative re-execution count, without which a resumed
// run would place future checkpoints differently and drift from the cold
// run's modeled cost.
//
// The encoding covers architected scalars, physical memory (sparse,
// zero-page-elided), the TLB, the whole device bus, and the model's
// cumulative statistics, so a resumed run continues every counter exactly
// where the cold run left it. The host-side predecode table, which
// superblocks walk, is deliberately excluded: it is bit-invariant by
// contract and rebuilds on demand; a load flushes it (FlushCode) where it
// walks the memory: here when the model owns it, in the container once for
// a shared one.

import "repro/internal/snap"

const fmStateV = 1

// State walks the model's versioned binary state. A model that owns its
// memory (single-core) carries it; cores of a multicore target share one
// Memory (Config.Shared), which the container walks once. The target
// of a load must have been built with the same workload-shaping
// configuration (memory geometry, device complement, rollback mode) —
// mismatches are decode errors, not silent divergence.
func (m *Model) State(c *snap.Codec) {
	c.Version("fm", fmStateV)

	// Architected scalars.
	c.U32s(m.GPR[:])
	c.F64s(m.FPR[:])
	c.U32(&m.Flags)
	c.U32(&m.PC)
	c.U32s(m.CR[:])
	c.Bool(&m.LLValid)
	c.U32(&m.LLAddr)
	c.U32(&m.LLVal)

	// Execution position.
	c.U64(&m.in)
	c.Bool(&m.halted)
	c.U64(&m.idle)

	// Cumulative statistics.
	c.U64(&m.Coverage.Instructions)
	c.U64(&m.Coverage.Covered)
	c.U64(&m.Coverage.UOps)
	c.U64(&m.TraceWords)
	c.U64(&m.Rollbacks)
	c.U64(&m.RolledBack)
	c.U64(&m.Interrupts)
	c.U64(&m.Exceptions)

	// Rollback-engine phase.
	mode := uint8(m.cfg.Rollback)
	c.U8(&mode)
	if RollbackMode(mode) != m.cfg.Rollback {
		c.Failf("rollback mode %d, model configured for %d", mode, m.cfg.Rollback)
	}
	ck, _ := m.engine.(*checkpointEngine)
	segCount := 0
	if ck != nil {
		if ck.segs.len() > 0 {
			segCount = ck.segs.back().count
		}
		c.U64(&ck.reExecuted)
		c.Int32(&segCount)
	}

	m.TLB.State(c)
	ownMem := m.cfg.Shared == nil
	c.Flag("fm memory presence", ownMem)
	if ownMem {
		m.Mem.State(c)
	}
	m.Bus.State(c)

	if !c.Loading() {
		return
	}
	m.fatal = nil
	if ck != nil {
		// Rebuild the leapfrog phase: one segment anchored at the restored
		// state, already segCount instructions deep, so the next checkpoint
		// lands exactly where the cold run's would have.
		ck.segs.tail = ck.segs.head
		ck.mem.reset()
		ck.take(m, segCount)
	} else {
		m.jeng.reset()
	}
	// Memory contents changed under the host-side caches: rebuild on demand.
	if ownMem {
		m.FlushCode()
	}
	m.cut.left = 0
}
