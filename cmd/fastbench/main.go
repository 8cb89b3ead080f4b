// fastbench regenerates every table and figure of the paper's evaluation
// section (plus the DESIGN.md ablations and the multicore and server
// studies) and prints them with the published values alongside.
//
// Usage:
//
//	fastbench                 # everything, in the order of `sections`
//	fastbench -only table1    # one section (see -h for the names)
//	fastbench -quiet          # suppress the stderr fleet progress line
//
// ctrl-C cancels the in-flight sweep cooperatively and exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/service/diskcache"
	"repro/internal/sim"
)

// sections is the one list of what fastbench prints: the -only names, the
// flag help and the run order all come from it.
var sections = []struct {
	name   string
	render func(experiments.Runner) (string, error)
}{
	{"analytic", func(experiments.Runner) (string, error) { return experiments.Analytical(), nil }},
	{"table1", func(experiments.Runner) (string, error) { return experiments.Table1() }},
	{"fig4", experiments.Runner.Figure4And5},
	{"fig6", func(r experiments.Runner) (string, error) {
		_, out, err := r.Figure6(2000, 400_000)
		return out, err
	}},
	{"table2", func(experiments.Runner) (string, error) { return experiments.Table2(), nil }},
	{"table3", experiments.Runner.Table3},
	{"bottleneck", experiments.Runner.Bottleneck},
	{"ablations", experiments.Runner.Ablations},
	{"smp", experiments.Runner.SMP},
	{"servers", experiments.Runner.Servers},
}

const rule = "\n────────────────────────────────────────────────────────"

func main() {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	only := flag.String("only", "", "run a single section ("+strings.Join(names, "|")+")")
	workers := flag.Int("workers", 0, "sim.Fleet workers for swept experiments (0 = GOMAXPROCS, 1 = sequential)")
	snapshotDir := flag.String("snapshot-dir", "", "warm-start boot-snapshot directory shared by every run (empty = disabled; printed numbers are identical either way)")
	quiet := flag.Bool("quiet", false, "suppress the stderr fleet progress line")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var snaps sim.SnapshotStore
	if *snapshotDir != "" {
		store, err := diskcache.New(*snapshotDir, 0, nil)
		check(err)
		snaps = service.NewSnapshotStore(store, nil)
	}

	runner := experiments.Runner{
		Ctx:     ctx,
		Fleet:   sim.Fleet{Workers: *workers},
		Overlay: sim.Params{Snapshots: snaps},
	}
	if !*quiet {
		runner.Fleet.Progress = progressLine
	}

	for i, s := range sections {
		if *only != "" && *only != s.name {
			continue
		}
		out, err := s.render(runner)
		check(err)
		fmt.Println(out)
		if i < len(sections)-1 {
			fmt.Println(rule)
		}
	}
}

// progressLine rewrites one stderr status line per completed fleet point;
// results on stdout stay clean for redirection.
func progressLine(done, total int, pr sim.PointResult) {
	status := ""
	if pr.Err != nil {
		status = "  !err"
	}
	fmt.Fprintf(os.Stderr, "\r\x1b[2K[fleet %d/%d] %s%s", done, total, pr.Point, status)
	if done == total {
		fmt.Fprint(os.Stderr, "\n")
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fastbench:", err)
		os.Exit(1)
	}
}
