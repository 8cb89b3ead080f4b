package sim

import (
	"runtime"
	"testing"

	"repro/internal/fm"
)

// TestRunAllocBudget bounds what one configure-and-run of two yardstick
// points allocates, configured as bench/ configures them (fast engine,
// the CLI's predecode cache and superblocks): smp-lock on 4 cores to
// completion, and 181.mcf capped at 500 k instructions. Each budget is the
// bytes measured once the undo journal logged only what changed and each
// core's BTB allocated by group, plus 10 %: a journal record, ring,
// pre-image or fixed per-core table that grows again shows here first.
// Each point runs once before it is measured, so the memoised boot image
// is built outside the measurement, as the yardstick's warm-up builds it.
// A coverage build moves heap escapes, so the budget holds in a plain
// build only.
func TestRunAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("allocation budgets hold in an uninstrumented build")
	}
	if testing.Short() {
		t.Skip("coupled full runs")
	}
	point := func(workload string, maxInst uint64, cores int) Params {
		return Params{Workload: workload, MaxInstructions: maxInst, Cores: cores,
			ICacheEntries: fm.DefaultICacheEntries, SuperblockLen: fm.DefaultSuperblockLen}
	}
	for _, tc := range []struct {
		name   string
		p      Params
		budget uint64 // bytes: measured, plus 10 %
	}{
		{"smp-lock/4 cores", point("smp-lock", 0, 4), 961_048 * 11 / 10},
		{"181.mcf/500k", point("181.mcf", 500_000, 1), 483_168 * 11 / 10},
	} {
		run := func() uint64 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			eng, err := New("fast", tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		run()
		got := run()
		t.Logf("%s: %d bytes per run, budget %d", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: a run allocates %d bytes, budget %d", tc.name, got, tc.budget)
		}
	}
}
