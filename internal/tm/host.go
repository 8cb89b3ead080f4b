package tm

import "repro/internal/fpga"

// workCounts records what one target cycle actually did; the host model
// charges FPGA cycles accordingly (§4.5: "even bubbles consume some host
// cycles and if there are many bubbles, those host cycles add up and become
// a bottleneck").
type workCounts struct {
	decoded   int
	issued    int
	predicted bool
	memIssued bool
}

// hostModel charges host (FPGA) cycles per target cycle. Structures wider
// than the FPGA's dual-ported block RAMs are folded over multiple host
// cycles (§3.3), so the charge grows with issue width while area does not.
type hostModel struct {
	base      uint64 // control, statistics, connector sequencing
	rename    uint64 // ROB/rename table ports folded
	commit    uint64
	wakeup    uint64 // RS scan
	selectFUs uint64
	total     uint64
}

func (h *hostModel) init(cfg Config) {
	// The prototype "had not paid sufficient attention to the number of
	// host cycles consumed, resulting in a larger number of host cycles
	// per target cycle than the approximately twenty or so ... we feel is
	// reasonable" (§4.5) — much of it the temporary per-Module statistics
	// fabric (§4.7). The base charge reflects that prototype, not the
	// eventual optimized design.
	h.base = 30
	h.rename = uint64(fpga.HostCyclesForPorts(3 * cfg.IssueWidth))
	h.commit = uint64(fpga.HostCyclesForPorts(2 * cfg.IssueWidth))
	h.wakeup = uint64((cfg.RSEntries + 7) / 8)
	h.selectFUs = 3 // ALU, BRU, LSU arbitration passes
}

// account charges one target cycle's host cost.
func (h *hostModel) account(w workCounts) {
	c := h.base + h.rename + h.commit + h.wakeup + h.selectFUs
	c += 2 // fetch: iTLB + iL1 tag sequencing
	if w.predicted {
		c++ // PHT/BTB folded lookup
	}
	if w.decoded > 0 {
		c += uint64(w.decoded) // microcode table read per µop
	} else {
		c++ // decode control still ticks
	}
	if w.memIssued {
		c += 2 // dL1 tag + data sequencing
	}
	h.total += c
}

// PerTargetCycle returns the long-run average host cycles per target cycle.
func (t *TM) PerTargetCycle() float64 {
	if t.Stats.Cycles == 0 {
		return 0
	}
	return float64(t.host.total) / float64(t.Stats.Cycles)
}
