// Package tm implements FAST's timing model: a cycle-accurate,
// host-cycle-accounted model of the Figure 3 out-of-order target, built
// from Modules wired by Connectors (§4), driven by the functional-path
// instruction trace.
//
// Like the hardware it models, the TM keeps everything in flight in
// fixed-size structures built once by New: µops and instructions are values
// in two rings addressed by monotonic sequence number, the ROB and the
// rename queue are ranges of the µop ring, producers and rename-table
// entries are sequence numbers, the Connectors are rings of their
// MaxTransactions, and a REP's iterations are cracked one µop at a time from
// the trace entry's immutable microcode. A target cycle allocates nothing
// (TestTMSteadyStateZeroAllocs); ref_test.go keeps the pointer-based model
// this replaced as the oracle TestTMAgreement steps it against.
package tm

import "fmt"

// Connector is the paper's inter-module coupling primitive [10]: a FIFO
// "that enforce[s] timing and throughput constraints. Connectors can be
// configured for input throughput, output throughput, minimum latency and
// maximum transactions", and gathers statistics. Reconfiguring Connector
// parameters is how a single-issue target becomes multi-issue (§4).
type Connector[T any] struct {
	name string
	cfg  ConnectorConfig

	// items is a ring of MaxTransactions slots: n live items starting at
	// head. The capacity is a Connector parameter, so the storage is fixed.
	items   []connItem[T]
	head, n int

	// Per-cycle throughput bookkeeping.
	putCycle uint64
	putsThis int
	getCycle uint64
	getsThis int

	stats ConnectorStats
}

type connItem[T any] struct {
	v     T
	ready uint64 // first cycle the item may be taken
}

// ConnectorConfig are the four §4 parameters.
type ConnectorConfig struct {
	InputThroughput  int    // max puts per cycle
	OutputThroughput int    // max gets per cycle
	MinLatency       uint64 // cycles between put and earliest get
	MaxTransactions  int    // capacity
}

// ConnectorStats is the built-in statistics gathering (§4: Connectors
// "will also provide statistics gathering and logging capabilities").
type ConnectorStats struct {
	Puts         uint64
	Gets         uint64
	PutStalls    uint64 // puts refused (full or throughput)
	GetStalls    uint64 // gets refused (empty, latency or throughput)
	OccupancySum uint64 // summed at each put for average occupancy
}

// NewConnector builds a connector.
func NewConnector[T any](name string, cfg ConnectorConfig) *Connector[T] {
	if cfg.InputThroughput < 1 || cfg.OutputThroughput < 1 || cfg.MaxTransactions < 1 {
		panic(fmt.Sprintf("tm: connector %s: bad config %+v", name, cfg))
	}
	return &Connector[T]{name: name, cfg: cfg, items: make([]connItem[T], cfg.MaxTransactions)}
}

// at returns the i-th oldest in-flight item.
func (c *Connector[T]) at(i int) *connItem[T] {
	if i += c.head; i >= len(c.items) {
		i -= len(c.items)
	}
	return &c.items[i]
}

// Name returns the connector's instance name.
func (c *Connector[T]) Name() string { return c.name }

// Config returns the connector's parameters.
func (c *Connector[T]) Config() ConnectorConfig { return c.cfg }

// Stats returns accumulated statistics.
func (c *Connector[T]) Stats() ConnectorStats { return c.stats }

// Len returns current occupancy.
func (c *Connector[T]) Len() int { return c.n }

// CanPut reports whether a Put at cycle would succeed.
func (c *Connector[T]) CanPut(cycle uint64) bool {
	if c.n >= len(c.items) {
		return false
	}
	return cycle != c.putCycle || c.putsThis < c.cfg.InputThroughput
}

// Put inserts v at cycle, honoring capacity and input throughput.
func (c *Connector[T]) Put(cycle uint64, v T) bool {
	if cycle != c.putCycle {
		c.putCycle, c.putsThis = cycle, 0
	}
	if c.n >= len(c.items) || c.putsThis >= c.cfg.InputThroughput {
		c.stats.PutStalls++
		return false
	}
	c.putsThis++
	c.stats.Puts++
	c.stats.OccupancySum += uint64(c.n)
	*c.at(c.n) = connItem[T]{v: v, ready: cycle + c.cfg.MinLatency}
	c.n++
	return true
}

// Peek returns the head item if one is gettable at cycle.
func (c *Connector[T]) Peek(cycle uint64) (T, bool) {
	var zero T
	if c.n == 0 || c.items[c.head].ready > cycle {
		return zero, false
	}
	if cycle == c.getCycle && c.getsThis >= c.cfg.OutputThroughput {
		return zero, false
	}
	return c.items[c.head].v, true
}

// Get removes and returns the head item, honoring latency and output
// throughput.
func (c *Connector[T]) Get(cycle uint64) (T, bool) {
	var zero T
	if cycle != c.getCycle {
		c.getCycle, c.getsThis = cycle, 0
	}
	if c.n == 0 || c.items[c.head].ready > cycle || c.getsThis >= c.cfg.OutputThroughput {
		c.stats.GetStalls++
		return zero, false
	}
	v := c.items[c.head].v
	c.pop(cycle)
	return v, true
}

// pop removes the head item once Get's checks have passed, or a Peek at
// the same cycle has made them.
func (c *Connector[T]) pop(cycle uint64) {
	if cycle != c.getCycle {
		c.getCycle, c.getsThis = cycle, 0
	}
	if c.head++; c.head == len(c.items) {
		c.head = 0
	}
	c.n--
	c.getsThis++
	c.stats.Gets++
}

// Flush discards all in-flight items (pipeline flush on recovery).
func (c *Connector[T]) Flush() { c.head, c.n = 0, 0 }
