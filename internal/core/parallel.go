package core

import (
	"sync/atomic"

	"repro/internal/trace"
)

// asyncLink is what the producer policy adds to a Sim: the FM runs free in
// its own goroutine (produce) while the TM runs on the caller's, coupled
// only by the trace buffer and this TM→FM command channel — the software
// realization of §3's parallelization across the functional/timing
// boundary. The FM runs ahead speculatively; round trips occur only on
// mispredicts and resolutions.
//
// Cross-goroutine synchronization is chunked (§3.1's Amdahl argument made
// concrete): the producer publishes trace entries a chunk at a time, the TM
// consumes chunk views, and the commit stream is batched at the chunk
// stride — one channel send per chunk instead of one per instruction. The
// FM-side accounting is goroutine-local (apply runs on the producer), so
// the steady-state entry path acquires no locks at all.
//
// Architectural results (instructions, branch outcomes, basic blocks) are
// identical to the inline policy; cycle counts can differ slightly because
// fetch-bubble timing depends on real goroutine scheduling rather than the
// modeled production rate.
type asyncLink struct {
	// cmds is deep enough that the TM never blocks posting the one-way
	// commit stream while the producer is inside a long superblock.
	cmds   chan command
	done   chan struct{} // closed by RunContext to stop the producer
	notify chan struct{} // producer progress ticks for blocking fetches

	// TM-goroutine-owned commit batching: retirements accumulate and one
	// cmdCommit carrying the latest IN covers the whole batch (the commit
	// pointer is monotone).
	commitPend int
	lastCommit uint64

	// terminal is set by the producer when the FM is halted forever *on
	// the right path*: only then may the TM treat the stream as ended. A
	// wrong-path HALT is speculative and will be rolled back by the pending
	// resolution.
	terminal atomic.Bool
}

// NewParallel builds a simulator under the producer policy: the same
// coupled core as New, with the FM on its own goroutine for the duration of
// RunContext. Single-core, and no snapshot capture — both ride the inline
// scheduler.
func NewParallel(cfg Config) (*Sim, error) {
	return newSim(cfg, &asyncLink{
		cmds:   make(chan command, 4096),
		done:   make(chan struct{}),
		notify: make(chan struct{}, 1),
	})
}

// post delivers one command from the TM side. Commits are one-way and
// batched: the commit pointer is monotone, so one command carrying the
// newest IN releases the whole batch, and a batch is sent per stride
// retirements — one channel send per chunk. A re-steer is a round trip: it
// flushes the batch (so the producer observes the commits ahead of the
// rewind) and waits for the producer to apply it.
func (a *asyncLink) post(c command, stride int) {
	if c.kind == cmdCommit {
		a.lastCommit = c.in
		if a.commitPend++; a.commitPend >= stride {
			a.flushCommits()
		}
		return
	}
	a.flushCommits()
	c.ack = make(chan struct{})
	a.cmds <- c
	<-c.ack
}

// flushCommits posts the batched commit pointer to the producer. Also
// called before the TM blocks on producer progress: withholding retirements
// while the producer waits for buffer space would deadlock.
func (a *asyncLink) flushCommits() {
	if a.commitPend == 0 {
		return
	}
	a.commitPend = 0
	a.cmds <- command{kind: cmdCommit, in: a.lastCommit}
}

// wait blocks the TM side until the producer makes progress; false means
// the run is shutting down.
func (a *asyncLink) wait() bool {
	a.flushCommits()
	select {
	case <-a.notify:
		return true
	case <-a.done:
		return false
	}
}

// tick wakes a TM goroutine blocked waiting for producer progress.
func (a *asyncLink) tick() {
	select {
	case a.notify <- struct{}{}:
	default:
	}
}

// produce is the FM goroutine under the producer policy: it speculatively
// runs ahead, appending trace entries into their ring slots, and applies
// the TM's commands. It never reads TM state.
func (s *Sim) produce() {
	a := s.async
	// pending is a copy of the first entry that did not fit (parked is set
	// while it waits): the FM's own entry is rewritten by its next
	// instruction.
	var pending trace.Entry
	parked := false
	// idleLimit guards against a hung target (HALT with interrupts enabled
	// but no interrupt source): after this many idle ticks with no wake,
	// the stream is declared over.
	const idleLimit = 50_000_000
	idleTicks := uint64(0)
	// emit accounts one produced entry and parks the first that does not
	// fit (stopping a superblock). One closure for the goroutine's
	// lifetime — the hot path stays allocation-free.
	emit := func(e *trace.Entry) bool {
		s.entryCost(e)
		if !s.app.Append(e) {
			pending, parked = *e, true
			return false
		}
		return true
	}
	// serve applies one command; a re-steer additionally invalidates the
	// parked entry and revives the stream — the end-of-stream hint clears
	// before the TM resumes (the ack provides the happens-before edge).
	serve := func(c command) {
		s.apply(c)
		if c.ack != nil {
			parked = false
			a.terminal.Store(false)
			close(c.ack)
		}
	}
	for {
		// Drain pending commands first — they may roll the FM back and
		// invalidate the pending entry.
		for {
			select {
			case c := <-a.cmds:
				serve(c)
				continue
			case <-a.done:
				return
			default:
			}
			break
		}
		if parked {
			if pending.IN >= s.FM.IN() {
				parked = false // rolled back underneath us
			} else if s.app.Append(&pending) {
				parked = false
			} else {
				// Buffer full: we have run as far ahead as allowed. Publish
				// the partial chunk (the capacity gate guarantees it fits)
				// so the TM can drain it, then block on the next command (a
				// commit frees space, a re-steer rewinds).
				s.app.Flush()
				select {
				case c := <-a.cmds:
					serve(c)
				case <-a.done:
					return
				}
				continue
			}
		}
		if s.FM.Terminal() || idleTicks > idleLimit {
			// The FM can do nothing more on its own. This is NOT
			// necessarily the end of the run: the TM may still re-steer
			// us into a wrong path (a mispredicted branch it has not
			// reached yet), or a resolve may roll a speculative
			// wrong-path HALT back. Publish the partial chunk and the
			// terminal state — in that order, so the TM never sees
			// end-of-stream with entries still unpublished — and service
			// commands.
			s.app.Flush()
			a.terminal.Store(true)
			a.tick()
			select {
			case c := <-a.cmds:
				serve(c)
				if !s.FM.Terminal() {
					idleTicks = 0
				}
			case <-a.done:
				return
			}
			continue
		}
		if s.FM.Halted() {
			// Waiting for a timer wake: publish what the TM can already
			// consume, then let idle time pass.
			s.app.Flush()
			s.FM.AdvanceIdle(1)
			idleTicks++
			continue
		}
		idleTicks = 0
		// Run a superblock at a time (one instruction where no block can
		// run). emit parks the first entry that does not fit and stops the
		// block — the loop top then flushes and blocks on commands. Commands
		// are drained once per block rather than per instruction; this
		// coupling is asynchronous by design (§3.3), so command latency is a
		// performance knob, not an architectural one.
		s.FM.Produce(emit)
	}
}
