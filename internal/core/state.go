package core

// Warm-start serialization of a coupled simulation. A snapshot is legal
// only at a quiescent boundary: the FM is asleep on the right path
// (HALT with interrupts enabled — toyOS's syssleep idiom), every produced
// trace entry has been committed by the TM, the TM pipeline is drained,
// and no re-steer is in flight. At that point the trace buffer is
// semantically empty and the whole coupled state reduces to the FM blob,
// the TM blob, the link counters and a handful of host-accounting scalars
// — which is what makes a resumed run bit-identical to the uninterrupted
// one: every cumulative counter continues exactly where the cold run's
// stood.
//
// Capture is pure observation. The boot-complete trigger (SnapshotHook)
// fires at the first quiescent boundary at or after the FM's first
// user-mode instruction; whether it is armed or not changes no modeled
// quantity, a property experiments.TestStudyInvariance's capturing and
// resuming rows lock.

import (
	"errors"

	"repro/internal/snap"
)

const (
	coreStateV      = 1
	multicoreStateV = 1
)

// Quiescent reports whether the coupled simulation is at a boundary where
// SaveState's drained-pipeline encoding is faithful: the FM idle-halted on
// the right path with nothing unpublished, the TB fully committed, and the
// TM drained with its fetch frontier caught up.
func (s *Sim) Quiescent() bool {
	return !s.wrongPath &&
		s.FM.Fatal() == nil &&
		s.FM.Halted() && !s.terminal() &&
		s.app.Pending() == 0 &&
		s.TB.Occupancy() == 0 &&
		s.TM.Quiescent() &&
		s.TM.NextFetchIN() >= s.app.NextIN()
}

// SaveState appends the coupled state. withMem selects whether the FM blob
// carries physical memory (single-core) or leaves it to a multicore
// container that serializes the shared memory once.
func (s *Sim) SaveState(w *snap.Writer, withMem bool) {
	w.U8(coreStateV)
	w.F64(s.fmNanos)
	w.F64(s.budget)
	w.I64(int64(s.bbSincePoll))
	w.I64(int64(s.pendingWords))
	w.U64(s.wrongProduced)
	w.U64(s.committed)
	w.U64(s.lastHost)
	w.U64(s.app.NextIN())
	w.I64(int64(s.TB.MaxOccupancy()))
	w.U64(s.app.Flushes())
	w.U64(s.app.Entries())
	s.link.SaveState(w)
	s.FM.SaveState(w, withMem)
	s.TM.SaveState(w)
}

// LoadState decodes state written by SaveState onto a freshly built Sim of
// identical configuration.
func (s *Sim) LoadState(r *snap.Reader, wantMem bool) error {
	if v := r.U8(); r.Err() == nil && v != coreStateV {
		return snap.Corruptf("core state version %d, want %d", v, coreStateV)
	}
	fmNanos, budget := r.F64(), r.F64()
	bbSincePoll, pendingWords := r.I64(), r.I64()
	wrongProduced, committed, lastHost := r.U64(), r.U64(), r.U64()
	nextIN := r.U64()
	maxOcc := r.I64()
	flushes, entries := r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if err := s.link.LoadState(r); err != nil {
		return err
	}
	if err := s.FM.LoadState(r, wantMem); err != nil {
		return err
	}
	if err := s.TM.LoadState(r); err != nil {
		return err
	}

	// Decode complete: apply.
	s.fmNanos, s.budget = fmNanos, budget
	s.bbSincePoll, s.pendingWords = int(bbSincePoll), int(pendingWords)
	s.wrongProduced, s.committed, s.lastHost = wrongProduced, committed, lastHost
	s.wrongPath = false
	s.err = nil
	s.sawUser = true // a warm start resumes past boot by construction
	s.TB.ResetDrained(nextIN, int(maxOcc))
	s.app.Rebase(flushes, entries)
	return nil
}

// Snapshot serializes the coupled simulation at a quiescent boundary.
func (s *Sim) Snapshot() ([]byte, error) {
	if !s.Quiescent() {
		return nil, errors.New("core: snapshot outside a quiescent boundary")
	}
	w := snap.NewWriter(1 << 16)
	s.SaveState(w, true)
	return w.Bytes(), nil
}

// Restore reinstates a Snapshot blob onto a freshly built, identically
// configured Sim; Run then continues the captured run.
func (s *Sim) Restore(blob []byte) error {
	r := snap.NewReader(blob)
	if err := s.LoadState(r, true); err != nil {
		return err
	}
	return r.Close()
}

// observeBoot runs once per target cycle while user-mode tracking is
// armed: it latches the FM's first user-mode instruction and, when this
// Sim owns its own capture hook, fires it at the first quiescent boundary
// at or after that point. A multicore container arms only the tracking
// (the boot core reaches user mode mid-quantum, which round-boundary
// polling would miss) and performs capture itself at round boundaries.
func (s *Sim) observeBoot() {
	if !s.sawUser {
		if s.FM.Kernel() {
			return
		}
		s.sawUser = true
	}
	if s.cfg.SnapshotHook == nil || !s.Quiescent() {
		return
	}
	hook := s.cfg.SnapshotHook
	s.cfg.SnapshotHook = nil
	blob, err := s.Snapshot()
	if err != nil {
		return
	}
	hook(s.committed, blob)
}

// Quiescent reports whether every core sits at a quiescent boundary — the
// multicore capture condition, checked at round boundaries where all cores
// have converged.
func (m *Multicore) Quiescent() bool {
	for _, s := range m.cores {
		if s.err != nil {
			return false
		}
		// A terminal core (idle-halted forever, or exited) is stable once
		// its pipeline has drained — its TM may legitimately be ended,
		// which the TM encoding preserves — so it does not block capture.
		if s.terminal() {
			if s.wrongPath || s.app.Pending() != 0 || s.TB.Occupancy() != 0 || !s.TM.Drained() {
				return false
			}
			continue
		}
		if !s.Quiescent() {
			return false
		}
	}
	return true
}

// Snapshot serializes the whole target: the shared physical memory once,
// the shared L2 + directory once, then each core without its memory.
func (m *Multicore) Snapshot() ([]byte, error) {
	if !m.Quiescent() {
		return nil, errors.New("core: multicore snapshot outside a quiescent boundary")
	}
	w := snap.NewWriter(1 << 16)
	w.U8(multicoreStateV)
	w.U32(uint32(len(m.cores)))
	m.sharedMem.SaveState(w)
	m.shared.SaveState(w)
	for _, s := range m.cores {
		s.SaveState(w, false)
	}
	return w.Bytes(), nil
}

// Restore reinstates a Snapshot blob onto a freshly built, identically
// configured Multicore.
func (m *Multicore) Restore(blob []byte) error {
	r := snap.NewReader(blob)
	if v := r.U8(); r.Err() == nil && v != multicoreStateV {
		return snap.Corruptf("multicore state version %d, want %d", v, multicoreStateV)
	}
	if n := r.U32(); r.Err() == nil && int(n) != len(m.cores) {
		return snap.Corruptf("multicore snapshot with %d cores, want %d", n, len(m.cores))
	}
	if err := m.sharedMem.LoadState(r); err != nil {
		return err
	}
	if err := m.shared.LoadState(r); err != nil {
		return err
	}
	for _, s := range m.cores {
		if err := s.LoadState(r, false); err != nil {
			return err
		}
	}
	if err := r.Close(); err != nil {
		return err
	}
	m.committed = 0
	for _, s := range m.cores {
		m.committed += s.committed
	}
	m.err = nil
	return nil
}

// maybeCapture fires the container's one-shot SnapshotHook when the boot
// core has reached user mode and every core is quiescent at this round
// boundary.
func (m *Multicore) maybeCapture() {
	if !m.cores[0].sawUser || !m.Quiescent() {
		return
	}
	hook := m.snapHook
	m.snapHook = nil
	blob, err := m.Snapshot()
	if err != nil {
		return
	}
	hook(m.committed, blob)
}
