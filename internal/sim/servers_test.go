package sim_test

import (
	"testing"

	"repro/internal/sim"
)

// TestFastEngineServerWorkloads is the sim-level acceptance bar for the
// toyFS server workloads: each runs to completion on the fast engine
// (they power off well under any cap), produces sane counters, and is
// bit-identical with the FM fast paths off (the reference), at their
// defaults and under longer superblocks — the per-point half of what
// experiments.TestStudyInvariance checks on the rendered servers study. An
// explicitly spelled default disk latency must also leave every result bit
// untouched, matching the Key() fold.
func TestFastEngineServerWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled full-boot runs")
	}
	for _, w := range []string{"shell-fork", "logwrite", "nicserv"} {
		w := w
		t.Run(w, func(t *testing.T) {
			base := runFast(t, allOff(sim.Params{Workload: w}))
			if base["instructions"].(float64) == 0 || base["target_cycles"].(float64) == 0 {
				t.Fatalf("zero architectural counters: %v", base)
			}
			if base["workload"].(string) != w {
				t.Errorf("Result.Workload = %q", base["workload"])
			}
			for name, p := range map[string]sim.Params{
				"superblock64":     {Workload: w, SuperblockLen: 64},
				"explicit disklat": {Workload: w, DiskLatency: 200},
			} {
				got := runFast(t, p)
				if diffs := diffMaps("", base, got); len(diffs) != 0 {
					for _, d := range diffs {
						t.Errorf("%s: %s", name, d)
					}
				}
			}
		})
	}
}

// TestFastEngineServerDiskLatencyMoves pins that the disk knob is live
// for FS workloads: a slower disk must change the run (the FS kernel
// polls the disk status port, so both the instruction path and the
// modeled time move), which is why DiskLatency is part of Params.Key().
func TestFastEngineServerDiskLatencyMoves(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled full-boot runs")
	}
	fast := runFast(t, sim.Params{Workload: "logwrite", DiskLatency: 50})
	slow := runFast(t, sim.Params{Workload: "logwrite", DiskLatency: 1000})
	if fast["instructions"] == slow["instructions"] && fast["target_cycles"] == slow["target_cycles"] {
		t.Errorf("disk latency 50 vs 1000 changed nothing: inst=%v cycles=%v",
			fast["instructions"], fast["target_cycles"])
	}
	if slow["target_cycles"].(float64) <= fast["target_cycles"].(float64) {
		t.Errorf("slow disk finished in %v cycles, fast disk in %v",
			slow["target_cycles"], fast["target_cycles"])
	}
}
