// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index in DESIGN.md). cmd/fastbench and the
// top-level benchmarks both drive these functions, so the numbers printed
// by `go test -bench` and by the CLI are the same.
//
// Every simulator run goes through the internal/sim engine registry, and
// every multi-point experiment is a declarative sim.Sweep executed by a
// sim.Fleet — Figure 4's 51 coupled simulations fan out over a worker pool
// and still aggregate in spec order, so the rendered tables are
// byte-identical at any worker count.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analytic"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fm"
	"repro/internal/fpga"
	"repro/internal/hostlink"
	"repro/internal/microcode"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Runner carries the cross-cutting execution state of an experiment pass: a
// cancellation context (ctrl-C in cmd/fastbench lands here) and the fleet —
// worker width, telemetry, progress callback — every sweep fans out over.
// The zero value runs to completion on GOMAXPROCS workers with no
// telemetry: Runner{}.Table3() is the default run of an experiment.
type Runner struct {
	Ctx   context.Context
	Fleet sim.Fleet

	// Overlay is merged (sim.Merge, non-zero fields win) into every point
	// an experiment runs — single runs and sweeps alike. It carries
	// host-side knobs that must not change any printed number — TraceChunk,
	// ICacheEntries, SuperblockLen, Snapshots: the rows of
	// TestStudyInvariance — and the experiment's own fields always take
	// precedence over the zero-value semantics of Merge, so an overlay
	// cannot silently alter an experiment's axes.
	Overlay sim.Params
}

func (r Runner) ctx() context.Context {
	if r.Ctx == nil {
		return context.Background()
	}
	return r.Ctx
}

// point is p as the runner executes it: the overlay merged under it and
// the fleet's telemetry attached.
func (r Runner) point(p sim.Params) sim.Params {
	p = sim.Merge(r.Overlay, p)
	if p.Telemetry == nil {
		p.Telemetry = r.Fleet.Telemetry
	}
	return p
}

// run executes one engine point under the runner's context and telemetry.
func (r Runner) run(engine string, p sim.Params) (sim.Result, error) {
	return sim.RunContext(r.ctx(), engine, r.point(p))
}

// sweep executes a sweep through the runner's fleet.
func (r Runner) sweep(s sim.Sweep) []sim.PointResult {
	s.Base = sim.Merge(r.Overlay, s.Base)
	return r.Fleet.RunContext(r.ctx(), s.Points())
}

// InstCap bounds committed instructions per coupled run so a full harness
// pass stays interactive. The shapes (who wins, by what factor) are stable
// well below the cap.
const InstCap = 250_000

// FMInstCap bounds functional-model-only runs (Table 1), which are cheap.
const FMInstCap = 400_000

// runFM executes a workload on the functional model alone and returns it.
// (Table 1 measures the microcode layer, not a simulator, so it is the one
// run shape that does not go through the engine registry.)
func runFM(spec workload.Spec, maxInst uint64) (*fm.Model, *workload.Boot, error) {
	boot, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}
	// Zero at the fm.Config layer means off: take the host defaults
	// (predecode cache, superblocks) from the coupled core's configuration.
	cfg := core.DefaultConfig().FM
	cfg.Devices = boot.Devices()
	m := fm.New(cfg)
	m.LoadProgram(boot.Kernel)
	if err := m.Run(func(e *trace.Entry) bool { return e.IN+1 < maxInst }); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return m, boot, nil
}

// fastParams is the shared parameter shape of a capped FAST run. Ablation
// knobs overlay named Params fields via sim.Merge.
func fastParams(workloadName, predictor string) sim.Params {
	return sim.Params{
		Workload:        workloadName,
		Predictor:       predictor,
		MaxInstructions: InstCap,
	}
}

// Table1 reproduces "Fraction of Dynamic Instructions Translated to µOps".
func Table1() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — microcode coverage and µop expansion\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %12s %12s\n",
		"App", "Fraction", "(paper)", "µOps/inst", "(paper)")
	var agg microcode.CoverageStats
	for _, spec := range workload.All() {
		m, _, err := runFM(spec, FMInstCap)
		if err != nil {
			return "", err
		}
		cov := m.Coverage
		agg.Merge(cov)
		fmt.Fprintf(&b, "%-14s %9.2f%% %9.2f%% %12.2f %12.2f\n",
			spec.Name, 100*cov.Fraction(), 100*spec.PaperFraction,
			cov.UopsPerInst(), spec.PaperUopsPerInst)
	}
	fmt.Fprintf(&b, "%-14s %9.2f%% %10s %12.2f\n", "aggregate",
		100*agg.Fraction(), "", agg.UopsPerInst())
	return b.String(), nil
}

// Figure4Row is one bar group of the simulator-performance figure.
type Figure4Row struct {
	Name                     string
	Gshare, Fixed97, Perfect float64 // MIPS
	PaperGshare              float64
	GshareAccuracy           float64
	IPC                      float64
}

// figure4Predictors are the three predictor configurations of the figure,
// in column order.
var figure4Predictors = []string{"gshare", "97%", "perfect"}

// Figure4Sweep is the declarative spec of the figure: every workload
// (Linux and WindowsXP first, as the paper orders them) × the FAST engine
// × the three predictor configurations.
func Figure4Sweep() sim.Sweep {
	all := workload.All()
	names := make([]string, 0, len(all)+1)
	names = append(names, all[0].Name, "WindowsXP")
	for _, s := range all[1:] {
		names = append(names, s.Name)
	}
	variants := make([]sim.Params, len(figure4Predictors))
	for i, pred := range figure4Predictors {
		variants[i] = sim.Params{Predictor: pred}
	}
	return sim.Sweep{
		Workloads: names,
		Engines:   []string{"fast"},
		Variants:  variants,
		Base:      sim.Params{MaxInstructions: InstCap},
	}
}

// Figure4 reproduces simulator performance under the three predictor
// configurations (gshare, 97%, perfect), fanning the sweep out over the
// runner's fleet.
func (r Runner) Figure4() ([]Figure4Row, string, error) {
	sweep := Figure4Sweep()
	results := r.sweep(sweep)
	if err := sim.FirstErr(results); err != nil {
		return nil, "", err
	}
	nPred := len(figure4Predictors)
	var rows []Figure4Row
	for i := 0; i < len(results); i += nPred {
		g := results[i].Result // the gshare point leads each group
		spec, _ := workload.ByName(g.Workload)
		rows = append(rows, Figure4Row{
			Name:           g.Workload,
			PaperGshare:    spec.PaperGshareMIPS,
			Gshare:         g.TargetMIPS,
			GshareAccuracy: g.BPAccuracy,
			IPC:            g.IPC,
			Fixed97:        results[i+1].Result.TargetMIPS,
			Perfect:        results[i+2].Result.TargetMIPS,
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — simulator performance (MIPS)\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %10s %8s\n",
		"App", "gshare", "BP 97%", "BP 100%", "(paper g)", "IPC")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8.2f %8.2f %8.2f %10.2f %8.3f\n",
			r.Name, r.Gshare, r.Fixed97, r.Perfect, r.PaperGshare, r.IPC)
		sum += r.Gshare
	}
	fmt.Fprintf(&b, "%-14s %8.2f %26s\n", "amean", sum/float64(len(rows)),
		"(paper average: 1.2 MIPS)")
	return rows, b.String(), nil
}

// Figure4And5 renders both figures of the one sweep: fastbench's fig4
// section.
func (r Runner) Figure4And5() (string, error) {
	rows, out, err := r.Figure4()
	if err != nil {
		return "", err
	}
	return out + "\n" + Figure5(rows), nil
}

// Figure5 reproduces branch-prediction accuracy (all branches) per
// workload under the default gshare predictor.
func Figure5(rows []Figure4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — gshare branch prediction accuracy (incl. all branches)\n")
	fmt.Fprintf(&b, "%-14s %10s %10s\n", "App", "accuracy", "(paper~)")
	var sum float64
	n := 0
	for _, r := range rows {
		paper := ""
		if s, ok := workload.ByName(r.Name); ok && s.PaperGshareAcc > 0 {
			paper = fmt.Sprintf("%9.1f%%", 100*s.PaperGshareAcc)
		}
		fmt.Fprintf(&b, "%-14s %9.2f%% %10s\n", r.Name, 100*r.GshareAccuracy, paper)
		sum += r.GshareAccuracy
		n++
	}
	fmt.Fprintf(&b, "%-14s %9.2f%%\n", "amean", 100*sum/float64(n))
	return b.String()
}

// Figure6 reproduces the statistics trace over the Linux boot under the
// runner's context: iCache hit rate, BP accuracy and pipe-drain percentage
// sampled every interval basic blocks. The sampler attaches between
// Configure and Run — the reason the engine interface splits them.
func (r Runner) Figure6(interval uint64, maxInst uint64) (*stats.Sampler, string, error) {
	eng, err := sim.New("fast", sim.Params{
		Workload:        "Linux-2.4",
		MaxInstructions: maxInst,
		Telemetry:       r.Fleet.Telemetry,
	})
	if err != nil {
		return nil, "", err
	}
	t := eng.(sim.Coupled).TimingModel()
	sampler := stats.NewSampler(t, interval)
	t.Probe = func(uint64, int) { sampler.Poll() }
	if _, err := eng.RunContext(r.ctx()); err != nil {
		return nil, "", err
	}
	out := "Figure 6 — statistics trace, Linux boot (per-window metrics)\n" + sampler.Render()
	return sampler, out, nil
}

// Table2 reproduces the FPGA-area sweep over issue widths.
func Table2() string {
	var b strings.Builder
	dev := fpga.Virtex4LX200
	fmt.Fprintf(&b, "Table 2 — fraction of a Virtex-4 LX200 consumed by the timing model\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s   (paper: 32.84/32.76/32.81/32.87 logic; 50.0/51.2 BRAM)\n",
		"Issue Width", "1", "2", "4", "8")
	logic, brams := "User Logic ", "Block RAMs "
	for _, w := range []int{1, 2, 4, 8} {
		a := tm.DefaultConfig().WithIssueWidth(w).Area()
		logic += fmt.Sprintf(" %7.2f%%", 100*dev.LogicFraction(a))
		brams += fmt.Sprintf(" %7.1f%%", 100*dev.BRAMFraction(a))
	}
	fmt.Fprintf(&b, "%s\n%s\n", logic, brams)
	return b.String()
}

// table3Engines are the runnable rows of the simulator comparison, with
// the display labels the paper's table uses.
var table3Engines = []struct{ engine, label, note string }{
	{"monolithic", "monolithic (sim-outorder-class)", "(ours, measured)"},
	{"gems", "monolithic (GEMS-class)", "(ours, measured)"},
	{"lockstep", "lockstep(F=1)", "(ours, measured)"},
	{"fast", "FAST", "(ours, measured; paper: 1.2 MIPS avg)"},
}

// Table3 reproduces the simulator comparison: published rows, then every
// runnable engine on the Linux boot — one sweep across the registry,
// through the runner's fleet.
func (r Runner) Table3() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — software simulator performance (Linux boot class workload)\n")
	fmt.Fprintf(&b, "%-28s %10s %6s\n", "Simulator", "speed", "OS")
	for _, r := range baseline.PublishedRows() {
		os := "N"
		if r.FullSystem {
			os = "Y"
		}
		fmt.Fprintf(&b, "%-28s %7.0fKIPS %6s   (published)\n", r.Simulator, r.KIPS, os)
	}
	engines := make([]string, len(table3Engines))
	for i, row := range table3Engines {
		engines[i] = row.engine
	}
	results := r.sweep(sim.Sweep{
		Workloads: []string{"Linux-2.4"},
		Engines:   engines,
		Base:      sim.Params{MaxInstructions: InstCap},
	})
	if err := sim.FirstErr(results); err != nil {
		return "", err
	}
	for i, row := range table3Engines {
		fmt.Fprintf(&b, "%-28s %7.0fKIPS %6s   %s\n",
			row.label, results[i].Result.KIPS, "Y", row.note)
	}
	return b.String(), nil
}

// Analytical reproduces the §3.1 worked examples.
func Analytical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.1 — analytical model of parallel simulator performance\n")
	for _, ex := range analytic.PaperExamples() {
		fmt.Fprintf(&b, "%-45s %6.2f MIPS (paper: %.1f)\n", ex.Name, ex.Model.MIPS(), ex.PaperMIPS)
	}
	return b.String()
}

// Bottleneck reproduces the §4.5 analysis: the functional-model config
// ladder, the measured DRC latencies, the 2-basic-block streaming
// arithmetic and the coherent-HT projection, through the runner's fleet.
func (r Runner) Bottleneck() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.5 — bottleneck analysis\n\n")
	fmt.Fprintf(&b, "Functional model configuration ladder (Linux boot class):\n")
	// The ladder's top rows are the paper's measured QEMU-variant speeds
	// (core.FMNanosPerInst is the tracing-rig row: 87 ns/inst); the
	// rollback rows are derived from the model: 87 ns/inst plus F×(Lrt+α)
	// per-instruction rollback overhead at the given accuracy.
	rollbackMIPS := func(acc float64) float64 {
		f := (1 - acc) * 0.20 * 2 // §3.1's F with a 20% branch ratio
		perInst := core.FMNanosPerInst + f*(469+1000)
		return 1e3 / perInst
	}
	ladder := []struct {
		name  string
		mips  float64
		paper float64
	}{
		{"unmodified QEMU", 137, 137},
		{"optimizations off", 45.8, 45.8},
		{"+ tracing & checkpointing (test rig)", 1e3 / core.FMNanosPerInst, 11.5},
		{"+ 97% BP rollbacks", rollbackMIPS(0.97), 8.6},
		{"+ 95% BP rollbacks", rollbackMIPS(0.95), 5.9},
		{"+ software 2-bit BP (94.8%)", rollbackMIPS(0.948), 5.1},
		{"immediate-commit FPGA dummy TM", 5.4, 5.4},
		{"real Fetch, perfect BP", 4.6, 4.6},
	}
	for _, l := range ladder {
		fmt.Fprintf(&b, "  %-38s %6.1f MIPS (paper: %.1f)\n", l.name, l.mips, l.paper)
	}

	fmt.Fprintf(&b, "\nMeasured DRC HyperTransport latencies:\n")
	drc, pin := hostlink.DRC(), hostlink.DRCPinRegisters()
	fmt.Fprintf(&b, "  user-logic read %0.0fns write %0.0fns burst %0.1fns/word\n",
		drc.ReadNanos, drc.WriteNanos, drc.BurstWriteNanosPerWord)
	fmt.Fprintf(&b, "  pin-register read %0.0fns write %0.0fns burst %0.1fns/word\n",
		pin.ReadNanos, pin.WriteNanos, pin.BurstWriteNanosPerWord)

	l := hostlink.New(hostlink.DRC())
	per2BB := 10*core.FMNanosPerInst + l.Poll(1) + l.BurstWrite(40)
	fmt.Fprintf(&b, "\nPer-2-basic-block streaming cost: 10×87ns + 469ns + 800ns = %.0fns\n", per2BB)
	fmt.Fprintf(&b, "  => %.0fns/inst = %.1f MIPS streaming bound (paper: 214ns, 4.7 MIPS; measured 4.6)\n",
		per2BB/10, 1e3/(per2BB/10))

	// Coherent-HT projection: run the same workload under both links.
	linkSweep := r.sweep(sim.Sweep{
		Workloads: []string{"Linux-2.4"},
		Variants:  []sim.Params{{Link: "drc"}, {Link: "coherent"}},
		Base:      sim.Params{Predictor: "95%", MaxInstructions: InstCap},
	})
	if err := sim.FirstErr(linkSweep); err != nil {
		return "", err
	}
	perInst := func(r sim.Result) float64 {
		return r.LinkStats.Nanos / float64(r.Instructions+r.WrongPath)
	}
	fmt.Fprintf(&b, "\nCoherent-HT projection (95%% BP): link cost %.1f -> %.1f ns/inst "+
		"(paper: ~127 -> ~1.2 ns/inst; FM-side bound then ~5.9 MIPS)\n",
		perInst(linkSweep[0].Result), perInst(linkSweep[1].Result))
	return b.String(), nil
}

// SMP is the Table-3-style multicore study: the smp-lock workload (ll/sc
// spinlock contention over shared counters) swept over a core-count ×
// interconnect-latency grid on the serial fast engine — the one engine that
// models the coherent interconnect. The single-core row is the contention-
// free baseline; the grid shows coherence traffic and the latency it costs
// growing with both axes.
func (r Runner) SMP() (string, error) {
	var variants []sim.Params
	for _, cores := range []int{1, 2, 4} {
		if cores == 1 {
			variants = append(variants, sim.Params{Cores: 1})
			continue
		}
		for _, hop := range []int{2, 4, 8} {
			variants = append(variants, sim.Params{Cores: cores, InterconnectLatency: hop})
		}
	}
	results := r.sweep(sim.Sweep{
		Workloads: []string{workload.SMPName},
		Variants:  variants,
		Base:      sim.Params{MaxInstructions: InstCap},
	})
	if err := sim.FirstErr(results); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Multicore study — %s (ll/sc spinlock) on the fast engine\n", workload.SMPName)
	fmt.Fprintf(&b, "%5s %4s %10s %10s %6s %10s %10s %10s\n",
		"cores", "hop", "inst", "cycles", "IPC", "transfers", "invals", "hops")
	for _, pr := range results {
		res := pr.Result
		p := pr.Point.Params
		cores, hop := p.Cores, p.InterconnectLatency
		if cores == 1 {
			fmt.Fprintf(&b, "%5d %4s %10d %10d %6.3f %10s %10s %10s\n",
				cores, "-", res.Instructions, res.TargetCycles, res.IPC, "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%5d %4d %10d %10d %6.3f %10d %10d %10d\n",
			cores, hop, res.Instructions, res.TargetCycles, res.IPC,
			res.CoherenceTransfers, res.CoherenceInvalidations, res.CoherenceHops)
	}
	return b.String(), nil
}

// Servers is the toyFS/server-workload study: the three server-class
// workloads (shell-fork, logwrite, nicserv) swept over a disk-latency
// grid on the fast engine. Every workload runs to completion (each
// powers off well under InstCap), so the instruction count itself moves
// with the disk knob — the FS kernel polls the disk status port, and a
// slower disk is paid for in polled instructions as well as in target
// cycles. Only deterministic fields are printed, so the table is
// byte-identical at any fleet width.
func (r Runner) Servers() (string, error) {
	lats := []int{50, 200, 1000}
	var variants []sim.Params
	for _, lat := range lats {
		variants = append(variants, sim.Params{DiskLatency: lat})
	}
	results := r.sweep(sim.Sweep{
		Workloads: []string{workload.ShellForkName, workload.LogWriteName, workload.NICServName},
		Variants:  variants,
		Base:      sim.Params{MaxInstructions: InstCap},
	})
	if err := sim.FirstErr(results); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Server workloads — toyFS + process syscalls on the fast engine\n")
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %6s\n",
		"workload", "disklat", "inst", "cycles", "IPC")
	for _, pr := range results {
		res := pr.Result
		p := pr.Point.Params
		fmt.Fprintf(&b, "%-10s %8d %10d %10d %6.3f\n",
			p.Workload, p.DiskLatency, res.Instructions, res.TargetCycles, res.IPC)
	}
	return b.String(), nil
}

// Ablations runs A1-A8 of DESIGN.md on a fixed workload under the runner's
// context.
func (r Runner) Ablations() (string, error) {
	var b strings.Builder
	const app = "176.gcc"
	fmt.Fprintf(&b, "Ablations (%s, gshare)\n", app)

	// A1: parallel (latency-tolerant) vs lockstep coupling.
	fastRes, err := r.run("fast", fastParams(app, "gshare"))
	if err != nil {
		return "", err
	}
	lock, err := r.run("lockstep", sim.Params{Workload: app, MaxInstructions: InstCap})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  A1 coupling: FAST %.2f MIPS vs lockstep %.2f MIPS (%.1fx)\n",
		fastRes.TargetMIPS, lock.TargetMIPS, fastRes.TargetMIPS/lock.TargetMIPS)

	// A2: polling frequency.
	perBB, err := r.run("fast", sim.Merge(fastParams(app, "gshare"),
		sim.Params{PollEveryBBs: 1}))
	if err != nil {
		return "", err
	}
	resteer, err := r.run("fast", sim.Merge(fastParams(app, "gshare"),
		sim.Params{PollEveryBBs: sim.PollOnResteer}))
	if err != nil {
		return "", err
	}
	linkPer := func(r sim.Result) float64 {
		return r.LinkStats.Nanos / float64(r.Instructions+r.WrongPath)
	}
	fmt.Fprintf(&b, "  A2 polling: per-BB %d reads, per-2-BB %d reads, per-resteer %d reads "+
		"(link %.0f / %.0f / %.0f ns/inst)\n",
		perBB.LinkStats.Reads, fastRes.LinkStats.Reads, resteer.LinkStats.Reads,
		linkPer(perBB), linkPer(fastRes), linkPer(resteer))

	// A3: branch-predictor-predictor.
	bpp, err := r.run("fast", sim.Merge(fastParams(app, "gshare"),
		sim.Params{BPP: true}))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  A3 BPP: off %.2fms FM-side, on %.2fms\n",
		fastRes.FMNanos/1e6, bpp.FMNanos/1e6)

	// A4: multi-host-cycle structures (20-ported register file).
	fmt.Fprintf(&b, "  A4 ports: 20-port RF = %d host cycles on a dual-ported BRAM "+
		"(area %v vs %v direct)\n",
		fpga.HostCyclesForPorts(20), fpga.BlockRAM(64*32, 20), fpga.BlockRAM(64*32, 2))

	// A5: trace compression.
	comp := fastRes
	uncomp, err := r.run("fast", sim.Merge(fastParams(app, "gshare"),
		sim.Params{UncompressedTrace: true}))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  A5 trace compression: %.2f words/inst compressed vs %.2f uncompressed\n",
		float64(comp.TraceWords)/float64(comp.Instructions+comp.WrongPath),
		float64(uncomp.TraceWords)/float64(uncomp.Instructions+uncomp.WrongPath))

	// A6: blocking vs coherent polling reads.
	coh, err := r.run("fast", sim.Merge(fastParams(app, "gshare"),
		sim.Params{Link: "coherent"}))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  A6 link: DRC blocking reads %.0f ns/inst vs coherent HT %.0f ns/inst\n",
		linkPer(fastRes), linkPer(coh))

	// A7: rollback engine — per-instruction undo journal vs the paper's
	// leapfrog checkpoints + replay (§3.2), whose re-execution is the αBA
	// of §3.1. Needs the live functional model, so it uses the two-phase
	// engine API instead of sim.Run.
	cpEng, err := sim.New("fast", r.point(sim.Merge(fastParams(app, "gshare"),
		sim.Params{Rollback: "checkpoint", CheckpointInterval: 64})))
	if err != nil {
		return "", err
	}
	cp, err := cpEng.RunContext(r.ctx())
	if err != nil {
		return "", err
	}
	cpFM := cpEng.(sim.Coupled).FunctionalModel()
	fmt.Fprintf(&b, "  A7 rollback: journal FM %.2fms vs leapfrog checkpoints %.2fms "+
		"(%d instructions re-executed across %d rollbacks)\n",
		fastRes.FMNanos/1e6, cp.FMNanos/1e6, cpFM.ReExecuted(), cp.Rollbacks)

	// A8: the §4.1 target limitations fixed — non-blocking caches +
	// resolve-time recovery ("Improving performance requires both improving
	// the target microarchitecture ... and going over each module", §4.5).
	future, err := r.run("fast", sim.Merge(fastParams(app, "gshare"),
		sim.Params{FutureMicroarch: true}))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  A8 future µarch: prototype IPC %.3f / %.2f MIPS vs "+
		"non-blocking+fast-recovery IPC %.3f / %.2f MIPS\n",
		fastRes.IPC, fastRes.TargetMIPS, future.IPC, future.TargetMIPS)
	return b.String(), nil
}
