package repro

// One benchmark per table and figure of the paper's evaluation section,
// plus the DESIGN.md ablations and a few genuine Go performance benchmarks
// of the simulator itself. Each table/figure benchmark prints the
// regenerated rows/series with the published values alongside (the same
// output cmd/fastbench produces) and reports its headline number as a
// benchmark metric.
//
// Run with:
//
//	go test -bench=. -benchmem -benchtime=1x

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fm"
	"repro/internal/fpga"
	"repro/internal/isa"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/workload"
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

// figure4Rows runs the Figure 4/5 sweep once and caches it: both figures
// come from the same 51 coupled simulations, fanned out over a
// GOMAXPROCS-wide sim.Fleet.
var figure4Once = sync.OnceValues(func() (rowsAndText, error) {
	rows, text, err := experiments.Figure4()
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

// BenchmarkFigure4FleetSpeedup regenerates Figure 4 twice in one
// iteration — once through a single-worker (sequential) sim.Fleet, once
// through a GOMAXPROCS-wide fleet — verifies the rendered tables are
// byte-identical, and reports the wall-clock speedup. The sweep is
// embarrassingly parallel, so on a ≥4-core host the fleet runs >2× faster;
// on a single-core host the ratio degenerates to ~1× (the fleet adds no
// overhead worth measuring).
func BenchmarkFigure4FleetSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		_, seqText, err := experiments.Figure4Workers(1)
		if err != nil {
			b.Fatal(err)
		}
		seq := time.Since(t0)

		t0 = time.Now()
		_, parText, err := experiments.Figure4Workers(0)
		if err != nil {
			b.Fatal(err)
		}
		par := time.Since(t0)

		if seqText != parText {
			b.Fatalf("fleet output differs from sequential output:\n--- sequential ---\n%s\n--- fleet ---\n%s",
				seqText, parText)
		}
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-x")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	}
}

// BenchmarkFigure6StatTrace regenerates Figure 6 (E8): the windowed
// statistics trace (iCache hits, BP accuracy, pipe drains) over the Linux
// boot.
func BenchmarkFigure6StatTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sampler, out, err := experiments.Figure6(2000, 400_000)
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
		out, err := experiments.Table3()
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
		out, err := experiments.Bottleneck()
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
		out, err := experiments.Ablations()
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
		out, err := experiments.Servers()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// --- Genuine Go performance benchmarks of the simulator itself ---

// BenchmarkFMExecution measures raw functional-model interpretation speed
// (simulated instructions per host second), committing at the TM's chunk
// cadence like BenchmarkFMDecodeLoop: without commits it would measure the
// growth of an unbounded journal instead.
func BenchmarkFMExecution(b *testing.B) {
	prog := isa.MustAssemble(`
		movi r0, 1000000000
	loop:	addi r1, 3
		mov  r2, r1
		andi r2, 1023
		stw  r2, [r2+0x4000]
		ldw  r3, [r2+0x4000]
		dec  r0
		jnz  loop
		halt
	`, 0x1000)
	m := fm.New(fm.Config{DisableInterrupts: true})
	m.LoadProgram(prog)
	const commitStride = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Step(); !ok {
			b.Fatal("halted early")
		}
		if i%commitStride == commitStride-1 {
			m.Commit(m.IN() - 1)
		}
	}
	b.ReportMetric(float64(b.N), "target-insts")
}

// BenchmarkFMDecodeLoop isolates the fetch/decode/crack path the predecode
// cache targets: the same instruction mix as BenchmarkFMExecution, run
// FM-only with the cache on (the CLI default) and off, plus the superblock
// fast path on top of the cache (also the CLI default). The spread between
// the sub-benchmarks is the per-instruction win with no TM in the loop to
// dilute it; ns/op is per target instruction in all three.
func BenchmarkFMDecodeLoop(b *testing.B) {
	src := `
		movi r0, 1000000000
	loop:	addi r1, 3
		mov  r2, r1
		andi r2, 1023
		stw  r2, [r2+0x4000]
		ldw  r3, [r2+0x4000]
		dec  r0
		jnz  loop
		halt
	`
	for _, bc := range []struct {
		name    string
		entries int
		sblen   int
	}{
		{"superblock", fm.DefaultICacheEntries, fm.DefaultSuperblockLen},
		{"icache", fm.DefaultICacheEntries, 0},
		{"nocache", 0, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := fm.New(fm.Config{
				DisableInterrupts: true,
				ICacheEntries:     bc.entries,
				SuperblockLen:     bc.sblen,
			})
			m.LoadProgram(isa.MustAssemble(src, 0x1000))
			// Commit at the TM's default chunk cadence: an uncommitted
			// journal grows without bound and its growslice cost would
			// swamp the decode/dispatch spread this benchmark isolates.
			const commitStride = 64
			b.ResetTimer()
			if bc.sblen > 0 {
				// Block-at-a-time with an always-continue sink, the way the
				// coupled pump drives it with budget to spare.
				sink := func(trace.Entry) bool { return true }
				for produced, lastCommit := 0, 0; produced < b.N; {
					n := m.StepBlock(sink)
					if n == 0 {
						b.Fatal("halted early")
					}
					produced += n
					if produced-lastCommit >= commitStride {
						m.Commit(m.IN() - 1)
						lastCommit = produced
					}
				}
			} else {
				for i := 0; i < b.N; i++ {
					if _, ok := m.Step(); !ok {
						b.Fatal("halted early")
					}
					if i%commitStride == commitStride-1 {
						m.Commit(m.IN() - 1)
					}
				}
			}
			b.ReportMetric(float64(b.N), "target-insts")
		})
	}
}

// BenchmarkTMCycle measures timing-model evaluation speed (target cycles
// per host second) replaying a recorded trace.
func BenchmarkTMCycle(b *testing.B) {
	m := fm.New(fm.Config{DisableInterrupts: true})
	m.LoadProgram(isa.MustAssemble(`
		movi r0, 100000
	loop:	addi r1, 3
		stw  r1, [r2+0x4000]
		ldw  r3, [r2+0x4000]
		dec  r0
		jnz  loop
		halt
	`, 0x1000))
	var entries []trace.Entry
	for {
		e, ok := m.Step()
		if !ok {
			break
		}
		entries = append(entries, e)
	}
	src := &tm.SliceSource{Entries: entries}
	model, err := tm.New(tm.DefaultConfig(), src, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if model.Done() {
			b.StopTimer()
			model, _ = tm.New(tm.DefaultConfig(), src, nil)
			b.StartTimer()
		}
		model.Step()
	}
}

// BenchmarkCoupledSimulator measures the end-to-end coupled simulator on a
// small workload (host seconds per simulated instruction).
func BenchmarkCoupledSimulator(b *testing.B) {
	spec, _ := workload.ByName("164.gzip")
	for i := 0; i < b.N; i++ {
		boot, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.FM.Devices = boot.Devices()
		cfg.MaxInstructions = 20_000
		sim, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sim.LoadProgram(boot.Kernel)
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulticoreCoupledSimulator measures the N-core scheduler: the
// smp-lock workload on four coupled FM/TM pairs over the modeled coherent
// interconnect, run to the instruction cap.
func BenchmarkMulticoreCoupledSimulator(b *testing.B) {
	spec := workload.SMP(4)
	for i := 0; i < b.N; i++ {
		boot, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.FM.Devices = boot.Devices()
		cfg.MaxInstructions = 80_000
		sim, err := core.NewMulticore(cfg, core.MulticoreConfig{Cores: 4})
		if err != nil {
			b.Fatal(err)
		}
		sim.LoadProgram(boot.Kernel)
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmStartSweep measures what the snapshot tier buys a
// parameter sweep sharing one boot prefix: a 4-point instruction-cap
// sweep over 253.perlbmk run cold (every point boots from reset) and
// warm (the first point captures a boot snapshot, the rest resume from
// it). ns/op is the full cold+warm pair, so the gate still catches
// regressions on either path; warm-speedup-x is the wall-time ratio for
// the second-and-later points — the number the warm-start tier exists
// for — and resumed-points counts how many of them actually resumed.
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

// BenchmarkParallelCoupledSimulator is the same workload through the
// goroutine-parallel coupling.
func BenchmarkParallelCoupledSimulator(b *testing.B) {
	spec, _ := workload.ByName("164.gzip")
	for i := 0; i < b.N; i++ {
		boot, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.FM.Devices = boot.Devices()
		cfg.MaxInstructions = 20_000
		sim, err := core.NewParallel(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sim.LoadProgram(boot.Kernel)
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
