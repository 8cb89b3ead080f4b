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
// State's drained-pipeline encoding is faithful: the FM idle-halted on
// the right path with nothing unpublished, the TB fully committed, and the
// TM drained with its fetch frontier caught up.
func (s *Sim) Quiescent() bool {
	return !s.wrongPath &&
		s.FM.Fatal() == nil &&
		s.FM.Halted() && !s.FM.Terminal() &&
		s.app.Pending() == 0 &&
		s.TB.Occupancy() == 0 &&
		s.TM.Quiescent() &&
		s.TM.NextFetchIN() >= s.app.NextIN()
}

// State walks the coupled state: the host-accounting scalars, the trace
// buffer's drained position, then the link, FM and TM in turn. Decoding
// targets a freshly built Sim of identical configuration.
func (s *Sim) State(c *snap.Codec) {
	c.Version("core", coreStateV)
	c.F64(&s.fmNanos)
	c.F64(&s.budget)
	c.Int(&s.bbSincePoll)
	c.Int(&s.pendingWords)
	c.U64(&s.wrongProduced)
	c.U64(&s.committed)
	c.U64(&s.lastHost)
	nextIN, maxOcc := s.app.NextIN(), s.TB.MaxOccupancy()
	flushes, entries := s.app.Flushes(), s.app.Entries()
	c.U64(&nextIN)
	c.Int(&maxOcc)
	c.U64(&flushes)
	c.U64(&entries)
	s.link.State(c)
	s.FM.State(c)
	s.TM.State(c)
	if c.Loading() {
		s.wrongPath, s.err = false, nil
		s.sawUser = true // a warm start resumes past boot by construction
		s.TB.ResetDrained(nextIN, maxOcc)
		s.app.Rebase(flushes, entries)
	}
}

// Snapshot serializes the coupled simulation at a quiescent boundary.
func (s *Sim) Snapshot() ([]byte, error) {
	if !s.Quiescent() {
		return nil, errors.New("core: snapshot outside a quiescent boundary")
	}
	return snap.Marshal(s), nil
}

// Restore reinstates a Snapshot blob onto a freshly built, identically
// configured Sim; Run then continues the captured run. After an error the
// Sim is undefined: build another.
func (s *Sim) Restore(blob []byte) error { return snap.Unmarshal(blob, s) }

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
		if s.FM.Terminal() {
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

// State walks the whole target: the shared physical memory once, the
// shared L2 + directory once, then each core (whose FM leaves the shared
// memory out). A load drops the decoded code over the shared memory once,
// for all cores.
func (m *Multicore) State(c *snap.Codec) {
	c.Version("multicore", multicoreStateV)
	c.Len("multicore cores", len(m.cores))
	m.sharedMem.Mem.State(c)
	m.shared.State(c)
	for _, s := range m.cores {
		s.State(c)
	}
	if c.Loading() {
		m.cores[0].FM.FlushCode()
		m.committed, m.err = 0, nil
		for _, s := range m.cores {
			m.committed += s.committed
		}
	}
}

// Snapshot serializes the whole target at a quiescent boundary.
func (m *Multicore) Snapshot() ([]byte, error) {
	if !m.Quiescent() {
		return nil, errors.New("core: multicore snapshot outside a quiescent boundary")
	}
	return snap.Marshal(m), nil
}

// Restore reinstates a Snapshot blob onto a freshly built, identically
// configured Multicore (undefined after an error, like Sim.Restore).
func (m *Multicore) Restore(blob []byte) error { return snap.Unmarshal(blob, m) }

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
