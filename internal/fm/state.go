package fm

// Warm-start serialization of the functional model. A Model snapshot is
// legal only at a quiescent boundary — every produced instruction
// committed by the timing model, no wrong-path speculation in flight —
// which the coupled simulator (internal/core) verifies before it marshals.
// At such a boundary the rollback window is semantically empty, so no
// record is carried; with checkpoints spaced out, what must survive is the
// phase (how far the open checkpoint has got) and the cumulative
// re-execution count, without which a resumed run would place future
// checkpoints differently and drift from the cold run's modeled cost.
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
// configuration (memory geometry, device complement, checkpoint mode) —
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

	// Checkpoint phase: a mode byte (1 = checkpoints spaced out), then in
	// that mode the re-execution count and the open checkpoint's depth.
	j := &m.journal
	checkpoints := j.interval > 0
	mode := uint8(min(j.interval, 1))
	want := mode
	c.U8(&mode)
	if mode != want {
		c.Failf("rollback mode %d, model configured for %d", mode, want)
	}
	depth := 0
	if checkpoints {
		if j.recs.len() > 0 {
			depth = j.covered(m)
		}
		c.U64(&j.reExecuted)
		c.Int32(&depth)
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
	j.reset()
	if checkpoints {
		// Rebuild the leapfrog phase: one checkpoint anchored at the restored
		// state, already depth instructions deep, so the next one lands
		// exactly where the cold run's would have.
		j.open(m)
		j.base = depth
	}
	// Memory contents changed under the host-side caches: rebuild on demand.
	if ownMem {
		m.FlushCode()
	}
	m.cut.left = 0
}
