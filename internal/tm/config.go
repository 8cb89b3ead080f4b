package tm

import (
	"fmt"
	"strings"

	"repro/internal/cache"
)

// Config describes the target microarchitecture (Figure 3 and §4): "a
// two-issue single core with eight-way 32KB L1 instruction and data caches,
// an eight-way 256KB shared L2 cache, 64 ROB entries, 16 shared reservation
// stations, 16 load/store queue entries, a 4-way and 8K BTB gshare branch
// predictor, multiple branch units, one load/store unit, eight
// general-purpose ALUs and up to four nested branches. The pipeline is
// between eight and ten stages deep."
type Config struct {
	IssueWidth     int // instructions fetched / µops renamed & committed per cycle
	ROBEntries     int // µops
	RSEntries      int // shared reservation stations (µops)
	LSQEntries     int // load/store queue (memory µops)
	ALUs           int
	BranchUnits    int
	LoadStoreUnits int
	FPUs           int

	// MaxNestedBranches bounds unresolved in-flight branches (§4: "up to
	// four nested branches"); fetch stalls beyond it.
	MaxNestedBranches int

	// FrontEndDepth is the fetch-to-rename depth in cycles; it sets the
	// refill penalty after a flush and, with the back end, the 8-10 stage
	// pipeline.
	FrontEndDepth int

	// Predictor selects the branch predictor: "perfect", "97%", "95%",
	// "2bit", "gshare".
	Predictor string

	L1I, L1D, L2 cache.Config
	MemLatency   int // fixed DRAM delay (Figure 3: 25)

	ITLBEntries, DTLBEntries int
	TLBMissPenalty           int // front-end stall cycles on an iTLB miss

	// Latencies per functional unit.
	ALULatency, BranchLatency, FPULatency, StoreLatency int

	// The §4.1 prototype limitations, fixable per §4.5 ("Improving
	// performance requires ... improving the target microarchitecture
	// (e.g., non-blocking caches and better handling of branch
	// mis-speculation)"):
	//
	// MSHRs > 0 makes the data cache non-blocking: the LSU can issue the
	// next memory operation while up to MSHRs misses are outstanding
	// (hit-under-miss and miss-under-miss).
	MSHRs int
	// FastRecovery resumes fetch FrontEndDepth cycles after a mispredicted
	// branch *resolves*, instead of the prototype's flush-through-ROB
	// (fetch gated on the branch's commit).
	FastRecovery bool

	// Shared, when non-nil, is the shared L2 + directory of a multicore
	// target: the private L1s forward their misses through this core's
	// interconnect port instead of a private L2, and the L2/MemLatency
	// fields above are ignored (the shared hierarchy owns them). CoreID
	// selects the port.
	Shared *cache.Coherent
	CoreID int
}

// DefaultConfig is the prototype's target (Figure 3 with default delays).
func DefaultConfig() Config {
	return Config{
		IssueWidth:        2,
		ROBEntries:        64,
		RSEntries:         16,
		LSQEntries:        16,
		ALUs:              8,
		BranchUnits:       2,
		LoadStoreUnits:    1,
		FPUs:              1,
		MaxNestedBranches: 4,
		FrontEndDepth:     4,
		Predictor:         "gshare",
		L1I:               cache.DefaultL1I(),
		L1D:               cache.DefaultL1D(),
		L2:                cache.DefaultL2(),
		MemLatency:        25,
		ITLBEntries:       32,
		DTLBEntries:       32,
		TLBMissPenalty:    3,
		ALULatency:        1,
		BranchLatency:     1,
		FPULatency:        4,
		StoreLatency:      1,
	}
}

// WithFutureMicroarch applies the §4.1/§4.5 fixes the paper was working
// on: non-blocking caches and resolve-time mispredict recovery.
func (c Config) WithFutureMicroarch() Config {
	c.MSHRs = 8
	c.FastRecovery = true
	return c
}

// WithIssueWidth returns the configuration rescaled to another issue width,
// the Table 2 sweep. Only widths change; capacities stay, which is exactly
// why the FPGA footprint stays flat (§3.3's multi-host-cycle structures).
func (c Config) WithIssueWidth(w int) Config {
	c.IssueWidth = w
	if c.BranchUnits < (w+1)/2 {
		c.BranchUnits = (w + 1) / 2
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.IssueWidth < 1:
		return fmt.Errorf("tm: issue width %d", c.IssueWidth)
	case c.ROBEntries < c.IssueWidth:
		return fmt.Errorf("tm: ROB %d smaller than issue width", c.ROBEntries)
	case c.RSEntries < 1 || c.LSQEntries < 1:
		return fmt.Errorf("tm: empty RS or LSQ")
	case c.ALUs < 1 || c.BranchUnits < 1 || c.LoadStoreUnits < 1 || c.FPUs < 1:
		return fmt.Errorf("tm: missing functional units")
	case c.ITLBEntries < 1 || c.DTLBEntries < 1:
		return fmt.Errorf("tm: empty iTLB or dTLB")
	case min(c.ALULatency, c.BranchLatency, c.FPULatency, c.StoreLatency, c.TLBMissPenalty, c.MemLatency) < 0:
		return fmt.Errorf("tm: negative latency")
	case c.MSHRs < 0:
		return fmt.Errorf("tm: %d MSHRs", c.MSHRs)
	case c.MaxNestedBranches < 1:
		return fmt.Errorf("tm: max nested branches %d", c.MaxNestedBranches)
	case c.FrontEndDepth < 1:
		return fmt.Errorf("tm: front end depth %d", c.FrontEndDepth)
	}
	return nil
}

// Describe renders the configuration in the style of Figure 3 (used by
// cmd/fastsim -print-config).
func (c Config) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Target microarchitecture (Figure 3):\n")
	fmt.Fprintf(&b, "  issue width          %d\n", c.IssueWidth)
	fmt.Fprintf(&b, "  pipeline depth       %d front-end + execute + commit (8-10 stages)\n", c.FrontEndDepth)
	fmt.Fprintf(&b, "  branch predictor     %s, %d nested branches max\n", c.Predictor, c.MaxNestedBranches)
	fmt.Fprintf(&b, "  ROB                  %d entries\n", c.ROBEntries)
	fmt.Fprintf(&b, "  reservation stations %d shared\n", c.RSEntries)
	fmt.Fprintf(&b, "  load/store queue     %d entries, %d LSU\n", c.LSQEntries, c.LoadStoreUnits)
	fmt.Fprintf(&b, "  ALUs                 %d (latency %d)\n", c.ALUs, c.ALULatency)
	fmt.Fprintf(&b, "  branch units         %d (latency %d)\n", c.BranchUnits, c.BranchLatency)
	fmt.Fprintf(&b, "  FPUs                 %d (latency %d)\n", c.FPUs, c.FPULatency)
	fmt.Fprintf(&b, "  iL1                  %dKB %d-way, hit %d\n", c.L1I.SizeBytes>>10, c.L1I.Ways, c.L1I.HitLatency)
	fmt.Fprintf(&b, "  dL1                  %dKB %d-way, hit %d\n", c.L1D.SizeBytes>>10, c.L1D.Ways, c.L1D.HitLatency)
	fmt.Fprintf(&b, "  L2                   %dKB %d-way, access %d\n", c.L2.SizeBytes>>10, c.L2.Ways, c.L2.HitLatency)
	fmt.Fprintf(&b, "  memory               fixed delay %d\n", c.MemLatency)
	fmt.Fprintf(&b, "  iTLB/dTLB            %d/%d entries\n", c.ITLBEntries, c.DTLBEntries)
	return b.String()
}
