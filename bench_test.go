package repro

// One benchmark per table and figure of the paper's evaluation section,
// plus the DESIGN.md ablations and the repo's own studies: the reproduction
// record. Each prints the regenerated rows/series with the published values
// alongside (the same output cmd/fastbench produces) and reports its
// headline number as a benchmark metric; one iteration is the whole
// experiment, so run them once:
//
//	make bench
//
// How fast the simulator itself runs is not measured here: end to end that
// is bench/ (bash bench/run.sh), per layer the time-based benchmarks beside
// each package (make bench-layers).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/experiments"
	"repro/internal/fpga"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tm"
)

// BenchmarkAnalyticalModel regenerates the §3.1 worked examples (E3):
// 1.8, 2.1, 8.7 and 6.8 MIPS.
func BenchmarkAnalyticalModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Analytical()
		if i == 0 {
			fmt.Println(out)
		}
	}
	b.ReportMetric(analytic.PaperExamples()[2].Model.MIPS(), "FAST-model-MIPS")
}

// BenchmarkTable1Microcode regenerates Table 1 (E5): microcode coverage
// fraction and dynamic µops per instruction for all sixteen workloads.
func BenchmarkTable1Microcode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// figure4Once runs the Figure 4/5 sweep once and caches it: both figures
// come from the same 51 coupled simulations, fanned out over a
// GOMAXPROCS-wide sim.Fleet.
var figure4Once = sync.OnceValues(func() (rowsAndText, error) {
	rows, text, err := experiments.Runner{}.Figure4()
	return rowsAndText{rows, text}, err
})

type rowsAndText struct {
	rows []experiments.Figure4Row
	text string
}

// BenchmarkFigure4Performance regenerates Figure 4 (E6): simulator MIPS per
// workload under gshare, fixed-97% and perfect branch prediction.
func BenchmarkFigure4Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt, err := figure4Once()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(rt.text)
		}
		var sum float64
		for _, r := range rt.rows {
			sum += r.Gshare
		}
		b.ReportMetric(sum/float64(len(rt.rows)), "amean-MIPS")
	}
}

// BenchmarkFigure5BranchPrediction regenerates Figure 5 (E7): gshare
// accuracy including all branches.
func BenchmarkFigure5BranchPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt, err := figure4Once()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.Figure5(rt.rows))
		}
		var sum float64
		for _, r := range rt.rows {
			sum += r.GshareAccuracy
		}
		b.ReportMetric(100*sum/float64(len(rt.rows)), "amean-accuracy-%")
	}
}

// BenchmarkFigure6StatTrace regenerates Figure 6 (E8): the windowed
// statistics trace (iCache hits, BP accuracy, pipe drains) over the Linux
// boot.
func BenchmarkFigure6StatTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sampler, out, err := experiments.Runner{}.Figure6(2000, 400_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(out)
		}
		b.ReportMetric(float64(len(sampler.Samples)), "samples")
	}
}

// BenchmarkTable2FPGAArea regenerates Table 2 (E9): the LX200 footprint of
// the timing model across issue widths 1-8.
func BenchmarkTable2FPGAArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Table2()
		if i == 0 {
			fmt.Println(out)
		}
	}
	a := tm.DefaultConfig().Area()
	b.ReportMetric(100*fpga.Virtex4LX200.LogicFraction(a), "logic-%")
	b.ReportMetric(100*fpga.Virtex4LX200.BRAMFraction(a), "bram-%")
}

// BenchmarkTable3SimulatorComparison regenerates Table 3 (E10): published
// software-simulator speeds, our runnable baselines, and FAST.
func BenchmarkTable3SimulatorComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Runner{}.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// BenchmarkBottleneckAnalysis regenerates §4.5 (E11): the QEMU configuration
// ladder, the measured DRC latencies, the per-2-basic-block arithmetic and
// the coherent-HyperTransport projection.
func BenchmarkBottleneckAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Runner{}.Bottleneck()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// BenchmarkAblations runs A1-A6 of DESIGN.md: coupling style, polling
// frequency, the branch-predictor-predictor, multi-host-cycle structures,
// trace compression and the link type.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Runner{}.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// BenchmarkServerWorkloads regenerates the server-class workload study:
// the three toyFS workloads (shell-fork, logwrite, nicserv) swept over the
// disk-latency grid on the fast engine.
func BenchmarkServerWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Runner{}.Servers()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// BenchmarkWarmStartSweep measures what the snapshot tier buys a
// parameter sweep sharing one boot prefix: a 4-point instruction-cap
// sweep over 253.perlbmk run cold (every point boots from reset) and
// warm (the first point captures a boot snapshot, the rest resume from
// it). ns/op is the full cold+warm pair; warm-speedup-x is the wall-time
// ratio for the second-and-later points — the number the warm-start tier
// exists for — and resumed-points counts how many of them actually resumed.
func BenchmarkWarmStartSweep(b *testing.B) {
	caps := []uint64{16_500, 17_000, 17_500, 18_000}
	runPoint := func(cap uint64, snaps sim.SnapshotStore) bool {
		p := sim.Params{Workload: "253.perlbmk", MaxInstructions: cap, Snapshots: snaps}
		eng, err := sim.New("fast", p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		_, resumed := eng.(sim.WarmStarted).ResumedFrom()
		return resumed
	}
	var coldTail, warmTail time.Duration
	var resumedPoints int
	for i := 0; i < b.N; i++ {
		runPoint(caps[0], nil)
		mark := time.Now()
		for _, c := range caps[1:] {
			runPoint(c, nil)
		}
		coldTail += time.Since(mark)

		snaps := service.NewSnapshotStore(nil, nil)
		runPoint(caps[0], snaps) // capture
		mark = time.Now()
		for _, c := range caps[1:] {
			if runPoint(c, snaps) {
				resumedPoints++
			}
		}
		warmTail += time.Since(mark)
	}
	b.ReportMetric(float64(coldTail)/float64(warmTail), "warm-speedup-x")
	b.ReportMetric(float64(resumedPoints)/float64(b.N), "resumed-points")
}
