// fastsim runs one workload on any registered simulator engine and prints
// the run statistics. Engines resolve through the internal/sim registry:
// fast, fast-parallel, monolithic, gems, lockstep, fsbcache.
//
// Usage:
//
//	fastsim -list
//	fastsim -list-workloads
//	fastsim -engines
//	fastsim -workload nicserv -console
//	fastsim -workload logwrite -disk-latency 1000
//	fastsim -workload 164.gzip [-predictor gshare] [-max 250000]
//	fastsim -workload Linux-2.4 -simulator fast-parallel
//	fastsim -workload 176.gcc -simulator monolithic
//	fastsim -workload Linux-2.4 -metrics - -tracefile boot.trace.json
//	fastsim -workload 164.gzip -json
//	fastsim -print-config
//	fastsim -print-kernel
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/fm"
	"repro/internal/fpga"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/diskcache"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// Engine defaults are not restated as flag defaults: an unset flag is a
	// zero Params field, and the help text reads what that resolves to.
	def := sim.Params{}.Resolved()
	var (
		list        = flag.Bool("list", false, "list workload names")
		listLong    = flag.Bool("list-workloads", false, "list the workload registry with descriptions")
		engines     = flag.Bool("engines", false, "list registered simulator engines")
		name        = flag.String("workload", "", fmt.Sprintf("workload name (see -list) (default %q)", def.Workload))
		predictor   = flag.String("predictor", "", fmt.Sprintf("branch predictor: gshare, 2bit, 97%%, 95%%, perfect (default %q)", def.Predictor))
		maxInst     = flag.Uint64("max", 250_000, "maximum committed instructions (0 = to completion)")
		simulator   = flag.String("simulator", "fast", "simulator engine (see -engines)")
		issueWidth  = flag.Int("issue", 0, fmt.Sprintf("target issue width (default %d)", def.IssueWidth))
		cores       = flag.Int("cores", 0, fmt.Sprintf("target core count (1 = the single-core target; >1 = N coupled FM/TM pairs over the modeled coherent interconnect, fast engine only) (default %d)", def.Cores))
		hopLatency  = flag.Int("interconnect-latency", 0, "per-hop core↔L2 interconnect delay in target cycles (0 = default; only meaningful with -cores > 1)")
		diskLatency = flag.Int("disk-latency", 0, "disk device latency in target time units (0 = workload default; only meaningful for booted workloads)")
		link        = flag.String("link", "", fmt.Sprintf("host link: drc, pins, coherent (default %q)", def.Link))
		traceChunk  = flag.Int("tracechunk", 0, "FM→TM trace-buffer publish granularity in entries (0 = default, 1 = per-entry; architectural results are identical for any value)")
		icacheEnt   = flag.Int("icache", 0, "FM predecode-cache entries, rounded up to a power of two (0 = default, -1 = disable; architected results and modeled times are bit-identical at any value)")
		superblock  = flag.Int("superblock", 0, "FM superblock length cap (0 = default, -1 = disable; requires the predecode cache and the journal rollback engine; architected results and modeled times are bit-identical at any value)")
		printConfig = flag.Bool("print-config", false, "print the Figure 3 target configuration and exit")
		printKernel = flag.Bool("print-kernel", false, "print the generated toyOS kernel assembly and exit")
		disasm      = flag.Bool("disasm", false, "print the workload's kernel and user program disassembly and exit")
		console     = flag.Bool("console", false, "dump target console output")
		power       = flag.Bool("power", false, "print the relative power estimate (§6 extension; serial fast engine only)")
		traceN      = flag.Int("trace", 0, "dump the first N committed trace entries (continues through idle waits)")
		connectors  = flag.Bool("connectors", false, "print Connector statistics (serial fast engine only)")
		snapshotDir = flag.String("snapshot-dir", "", "disk directory for warm-start boot snapshots: capture at boot-complete, resume later runs sharing the boot prefix (empty = disabled)")
		metricsPath = flag.String("metrics", "", "write Prometheus-style metrics to this file after the run (\"-\" = stdout)")
		tracePath   = flag.String("tracefile", "", "write a Chrome trace_event JSON timeline to this file (open in chrome://tracing or ui.perfetto.dev)")
		jsonOut     = flag.Bool("json", false, "print the run result as one JSON object instead of text")
	)
	flag.Parse()
	params := sim.Params{
		Workload:            *name,
		Predictor:           *predictor,
		IssueWidth:          *issueWidth,
		Cores:               *cores,
		InterconnectLatency: *hopLatency,
		DiskLatency:         *diskLatency,
		Link:                *link,
		MaxInstructions:     *maxInst,
		TraceChunk:          *traceChunk,
		ICacheEntries:       *icacheEnt,
		SuperblockLen:       *superblock,
	}
	resolved := params.Resolved()

	if *printConfig {
		cfg := tm.DefaultConfig().WithIssueWidth(resolved.IssueWidth)
		fmt.Print(cfg.Describe())
		fmt.Printf("\nFPGA footprint: %s\n", cfg.AreaReport(fpga.Virtex4LX200))
		return
	}
	if *list || *listLong {
		for _, e := range workload.Registry() {
			if *listLong {
				fmt.Printf("%-14s %s\n", e.Name, e.Description)
			} else {
				fmt.Println(e.Name)
			}
		}
		return
	}
	if *engines {
		for _, n := range sim.Names() {
			desc, _ := sim.Describe(n)
			fmt.Printf("%-14s %s\n", n, desc)
		}
		return
	}

	// Resolve the engine name through the registry before doing anything
	// else, so a typo fails with the valid names instead of a late error.
	engine := *simulator
	if !sim.Registered(engine) {
		fatal(fmt.Errorf("unknown simulator %q (registered: %s)",
			engine, strings.Join(sim.Names(), ", ")))
	}
	// Reject instrumentation flags the selected engine cannot honour —
	// previously they were silently ignored.
	if *power && engine != "fast" {
		fatal(fmt.Errorf("-power requires the serial fast engine (the power model "+
			"attaches to the live timing model); -simulator %s cannot honour it", engine))
	}
	if *connectors && engine != "fast" {
		fatal(fmt.Errorf("-connectors requires the serial fast engine; "+
			"-simulator %s cannot honour it", engine))
	}

	spec, ok := workload.ByName(resolved.Workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (try -list)", resolved.Workload))
	}
	if *printKernel {
		fmt.Print(workload.KernelSource(spec.Kernel))
		return
	}
	if *disasm {
		boot, err := spec.Build()
		if err != nil {
			fatal(err)
		}
		fmt.Println("; ---- toyOS kernel ----")
		fmt.Print(isa.DisassembleProgram(boot.Kernel))
		user, uerr := isa.Assemble(spec.UserAsm(), workload.UserVA)
		if uerr == nil {
			fmt.Println("; ---- user program ----")
			fmt.Print(isa.DisassembleProgram(user))
		}
		return
	}

	// -trace: dump the first N trace entries from a fresh functional run
	// of the same boot (every engine commits the identical right path),
	// idling through HALTs until the target can never wake.
	if *traceN > 0 {
		tb, terr := spec.Build()
		if terr != nil {
			fatal(terr)
		}
		fmCfg := core.DefaultConfig().FM // the host defaults: predecode cache on
		fmCfg.Devices = tb.Devices()
		m := fm.New(fmCfg)
		m.LoadProgram(tb.Kernel)
		n := 0
		if err := m.Run(func(e *trace.Entry) bool {
			fmt.Println(" ", e)
			n++
			return n < *traceN
		}); err != nil {
			fatal(err)
		}
	}

	// Telemetry is built only when a flag asks for it, so the default run
	// keeps the nil-telemetry (near-free) instrumentation paths.
	var tel *obs.Telemetry
	switch {
	case *tracePath != "":
		tel = obs.NewWithTrace()
	case *metricsPath != "":
		tel = obs.New()
	}

	// -snapshot-dir attaches the warm-start tier: boot once, then every
	// later invocation sharing the boot prefix skips straight past boot.
	params.Telemetry = tel
	if *snapshotDir != "" {
		store, serr := diskcache.New(*snapshotDir, 0, nil)
		if serr != nil {
			fatal(fmt.Errorf("open snapshot dir: %w", serr))
		}
		params.Snapshots = service.NewSnapshotStore(store, nil)
	}

	eng, err := sim.New(engine, params)
	if err != nil {
		fatal(err)
	}

	var powerModel *tm.PowerModel
	if *power {
		powerModel = eng.(sim.Coupled).TimingModel().AttachPower(tm.DefaultPowerWeights())
	}

	// ctrl-C cancels the run cooperatively; the partial result and any
	// requested metric/trace files still come out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	result, err := eng.RunContext(ctx)
	writeTelemetry(tel, *metricsPath, *tracePath)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(result); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Println(result)
	if ws, ok := eng.(sim.WarmStarted); ok {
		if in, resumed := ws.ResumedFrom(); resumed {
			fmt.Printf("warm-start: resumed from snapshot at instruction %d (boot skipped)\n", in)
		}
	}
	if c, ok := eng.(sim.Coupled); ok {
		fmt.Printf("fm: %.1fms ∥ tm: %.1fms  wrong-path: %d  rollbacks: %d\n",
			result.FMNanos/1e6, result.TMNanos/1e6, result.WrongPath, result.Rollbacks)
		fmt.Println(c.TimingModel().Describe())
	}
	if result.Cores > 1 {
		fmt.Printf("cores: %d  coherence: %d transfers, %d invalidations, %d hops\n",
			result.Cores, result.CoherenceTransfers, result.CoherenceInvalidations, result.CoherenceHops)
	}
	if sc, ok := eng.(sim.SoftwareComparison); ok {
		fmt.Printf("vs %v\n", sc.Software())
	}
	if *connectors {
		fmt.Print(eng.(sim.Coupled).TimingModel().ConnectorReport())
	}
	if powerModel != nil {
		powerModel.Sample()
		fmt.Print(powerModel.Report())
	}
	if *console {
		if booted, ok := eng.(sim.Booted); ok && booted.Boot() != nil {
			fmt.Printf("console: %q\n", booted.Boot().Console.Output())
		}
	}
}

// writeTelemetry flushes the run's metrics and timeline to the requested
// destinations ("-" = stdout for metrics; trace JSON always goes to a file).
func writeTelemetry(tel *obs.Telemetry, metricsPath, tracePath string) {
	if tel == nil {
		return
	}
	if metricsPath != "" {
		if metricsPath == "-" {
			tel.Metrics.WritePrometheus(os.Stdout)
		} else {
			f, err := os.Create(metricsPath)
			if err != nil {
				fatal(err)
			}
			tel.Metrics.WritePrometheus(f)
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		if err := tel.Trace.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastsim:", err)
	os.Exit(1)
}
