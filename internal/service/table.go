package service

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Record is a backend's job record: anything embedding JobState, whose
// State is the record as the table reports it.
type Record interface{ State() JobState }

// State returns j itself. A backend's job record embeds JobState, so its
// wire view and result bytes are fields of the record, and this is how a
// Table reads them.
func (j JobState) State() JobState { return j }

// SweepRecord is one admitted sweep: the expanded points and one child
// record per point, both in spec order.
type SweepRecord[R Record] struct {
	ID          string
	SubmittedAt time.Time
	Points      []sim.Point
	Children    []R
}

// State snapshots the sweep with each child's current state.
func (sw *SweepRecord[R]) State() SweepState {
	st := SweepState{ID: sw.ID, SubmittedAt: sw.SubmittedAt, Points: sw.Points, Children: make([]JobState, len(sw.Children))}
	for i, j := range sw.Children {
		st.Children[i] = j.State()
	}
	return st
}

// Table is the bookkeeping every Backend keeps: the one admission sequence
// that mints "job-%06d" / "sweep-%06d" ids, and the jobs and sweeps by id.
// It has no lock of its own; the backend holds its own around every call.
// The zero value is an empty table.
type Table[R Record] struct {
	seq    uint64
	jobs   map[string]R
	sweeps map[string]*SweepRecord[R]
}

// mint draws the next id of kind from the admission sequence.
func (t *Table[R]) mint(kind string) string {
	t.seq++
	return fmt.Sprintf("%s-%06d", kind, t.seq)
}

// idSeq recovers the admission sequence number from a job/sweep id
// ("job-000123" → 123). Ordering by the numeric suffix instead of the id
// string keeps newest-first correct past the %06d formatting width.
func idSeq(id string) (uint64, error) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0, fmt.Errorf("malformed id %q", id)
	}
	n, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed id %q", id)
	}
	return n, nil
}

// NextJobID mints a job id. A record is published with Add only once it is
// admitted, so a rejected submission spends an id but leaves no record.
func (t *Table[R]) NextJobID() string { return t.mint("job") }

// NewSweep mints a sweep id and returns its record with one empty child
// slot per point; publish it with AddSweep once every child is admitted.
func (t *Table[R]) NewSweep(points []sim.Point) *SweepRecord[R] {
	return &SweepRecord[R]{ID: t.mint("sweep"), SubmittedAt: time.Now(), Points: points, Children: make([]R, len(points))}
}

// Add publishes a job record under its id.
func (t *Table[R]) Add(j R) {
	if t.jobs == nil {
		t.jobs = map[string]R{}
	}
	t.jobs[j.State().View.ID] = j
}

// AddSweep publishes a sweep record (its children are Added on their own).
func (t *Table[R]) AddSweep(sw *SweepRecord[R]) {
	if t.sweeps == nil {
		t.sweeps = map[string]*SweepRecord[R]{}
	}
	t.sweeps[sw.ID] = sw
}

// Job looks a job up, answering the not_found envelope for an unknown id.
func (t *Table[R]) Job(id string) (R, error) {
	j, ok := t.jobs[id]
	if !ok {
		return j, NotFound("job", id)
	}
	return j, nil
}

// Sweep looks a sweep up, answering the not_found envelope for an unknown id.
func (t *Table[R]) Sweep(id string) (*SweepRecord[R], error) {
	sw, ok := t.sweeps[id]
	if !ok {
		return nil, NotFound("sweep", id)
	}
	return sw, nil
}

// Jobs is every job's current view, in no particular order.
func (t *Table[R]) Jobs() []JobView {
	out := make([]JobView, 0, len(t.jobs))
	for _, j := range t.jobs {
		out = append(out, j.State().View)
	}
	return out
}

// Sweeps is every sweep's current state, in no particular order.
func (t *Table[R]) Sweeps() []SweepState {
	out := make([]SweepState, 0, len(t.sweeps))
	for _, sw := range t.sweeps {
		out = append(out, sw.State())
	}
	return out
}

// Each calls f on every job record.
func (t *Table[R]) Each(f func(R)) {
	for _, j := range t.jobs {
		f(j)
	}
}

// Len counts the jobs and sweeps held.
func (t *Table[R]) Len() (jobs, sweeps int) { return len(t.jobs), len(t.sweeps) }
