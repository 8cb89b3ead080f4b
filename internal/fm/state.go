package fm

// Warm-start serialization of the functional model. A Model snapshot is
// legal only at a quiescent boundary — every produced instruction
// committed by the timing model, no wrong-path speculation in flight —
// which the coupled simulator (internal/core) verifies before calling
// Snapshot. At such a boundary the rollback window is semantically empty,
// so the journal contributes nothing; the only engine state that must
// survive is the checkpoint engine's phase (distance into the current
// leapfrog segment) and its cumulative re-execution count, without which a
// resumed run would place future checkpoints differently and drift from
// the cold run's modeled cost.
//
// The encoding covers architected scalars, physical memory (sparse,
// zero-page-elided), the TLB, the whole device bus, and the model's
// cumulative statistics, so a resumed run continues every counter exactly
// where the cold run left it. Host-side accelerator caches (predecode
// icache, superblock cache) are deliberately excluded: they are
// bit-invariant by contract and rebuild on demand; Restore flushes them.

import (
	"fmt"

	"repro/internal/snap"
)

const fmStateV = 1

// Snapshot serializes the model at a quiescent boundary. withMem controls
// whether physical memory is included: a single-core model owns its
// memory (true); multicore cores share one Memory, which the multicore
// container serializes once (false).
func (m *Model) Snapshot(withMem bool) ([]byte, error) {
	if m.fatal != nil {
		return nil, fmt.Errorf("fm: snapshot with fatal condition: %w", m.fatal)
	}
	if m.replay {
		return nil, fmt.Errorf("fm: snapshot during checkpoint replay")
	}
	w := snap.NewWriter(4096)
	m.SaveState(w, withMem)
	return w.Bytes(), nil
}

// SaveState appends the model's versioned binary state.
func (m *Model) SaveState(w *snap.Writer, withMem bool) {
	w.U8(fmStateV)

	// Architected scalars.
	for _, r := range m.GPR {
		w.U32(r)
	}
	for _, f := range m.FPR {
		w.F64(f)
	}
	w.U32(m.Flags)
	w.U32(m.PC)
	for _, c := range m.CR {
		w.U32(c)
	}
	w.Bool(m.LLValid)
	w.U32(m.LLAddr)
	w.U32(m.LLVal)

	// Execution position.
	w.U64(m.in)
	w.Bool(m.halted)
	w.U64(m.idle)

	// Cumulative statistics.
	w.U64(m.Coverage.Instructions)
	w.U64(m.Coverage.Covered)
	w.U64(m.Coverage.UOps)
	w.U64(m.TraceWords)
	w.U64(m.Rollbacks)
	w.U64(m.RolledBack)
	w.U64(m.Interrupts)
	w.U64(m.Exceptions)

	// Rollback-engine phase.
	w.U8(uint8(m.cfg.Rollback))
	if c, ok := m.engine.(*checkpointEngine); ok {
		w.U64(c.reExecuted)
		count := 0
		if len(c.segs) > 0 {
			count = c.cur().count
		}
		w.U32(uint32(count))
	}

	m.TLB.SaveState(w)
	w.Bool(withMem)
	if withMem {
		m.Mem.SaveState(w)
	}
	m.Bus.SaveState(w)
}

// Restore reinstates a Snapshot blob onto a freshly configured model. The
// model must have been built with the same workload-shaping configuration
// (memory geometry, device complement, rollback mode) — mismatches are
// decode errors, not silent divergence.
func (m *Model) Restore(blob []byte) error {
	r := snap.NewReader(blob)
	if err := m.LoadState(r, true); err != nil {
		return err
	}
	return r.Close()
}

// LoadState decodes model state written by SaveState. wantMem asserts
// whether the blob is expected to carry physical memory (single-core) or
// not (multicore cores, whose shared memory the container restores).
func (m *Model) LoadState(r *snap.Reader, wantMem bool) error {
	if v := r.U8(); r.Err() == nil && v != fmStateV {
		return snap.Corruptf("fm state version %d, want %d", v, fmStateV)
	}

	var s Scalars
	for i := range s.GPR {
		s.GPR[i] = r.U32()
	}
	for i := range s.FPR {
		s.FPR[i] = r.F64()
	}
	s.Flags = r.U32()
	s.PC = r.U32()
	for i := range s.CR {
		s.CR[i] = r.U32()
	}
	s.LLValid = r.Bool()
	s.LLAddr = r.U32()
	s.LLVal = r.U32()

	in := r.U64()
	halted := r.Bool()
	idle := r.U64()

	covInst, covCovered, covUOps := r.U64(), r.U64(), r.U64()
	traceWords, rollbacks, rolledBack := r.U64(), r.U64(), r.U64()
	interrupts, exceptions := r.U64(), r.U64()

	mode := RollbackMode(r.U8())
	if r.Err() == nil && mode != m.cfg.Rollback {
		return snap.Corruptf("rollback mode %d, model configured for %d", mode, m.cfg.Rollback)
	}
	var reExec uint64
	var segCount uint32
	if mode == RollbackCheckpoint {
		reExec = r.U64()
		segCount = r.U32()
	}

	if err := m.TLB.LoadState(r); err != nil {
		return err
	}
	hasMem := r.Bool()
	if r.Err() == nil && hasMem != wantMem {
		return snap.Corruptf("memory presence %v, want %v", hasMem, wantMem)
	}
	if hasMem {
		if err := m.Mem.LoadState(r); err != nil {
			return err
		}
	}
	if err := m.Bus.LoadState(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}

	// Decode complete: apply.
	m.Scalars = s
	m.in, m.halted, m.idle = in, halted, idle
	m.fatal = nil
	m.Coverage.Instructions, m.Coverage.Covered, m.Coverage.UOps = covInst, covCovered, covUOps
	m.TraceWords, m.Rollbacks, m.RolledBack = traceWords, rollbacks, rolledBack
	m.Interrupts, m.Exceptions = interrupts, exceptions
	if c, ok := m.engine.(*checkpointEngine); ok {
		// Rebuild the leapfrog phase: one segment anchored at the restored
		// state, already segCount instructions deep, so the next checkpoint
		// lands exactly where the cold run's would have.
		c.reExecuted = reExec
		c.segs = c.segs[:0]
		c.mem.reset()
		c.take(m)
		c.cur().count = int(segCount)
	} else if m.jeng != nil {
		m.jeng.reset()
	}
	// Memory contents changed under the host-side caches: rebuild on demand.
	m.icache.flush()
	m.sb.flush()
	return nil
}
