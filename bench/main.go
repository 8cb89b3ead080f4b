// Command fastyard is the repository's yardstick: five workloads, the
// end-to-end metrics a user of the simulator and of fastd sees, and an
// outside-in ladder of per-layer metrics. See README.md beside this file.
//
// The driver contract: `bash bench/run.sh --workload NAME --seed N
// --seconds S --trace 0|1` from the checkout root runs one workload and
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Everything else (the human
// table, notes, failures) goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 20

// logw receives everything that is not the result line.
var logw io.Writer = os.Stderr

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run of one workload as -out files keep it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	resultLine
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Header map[string]string `json:"header"`
	Runs   []runRecord       `json:"runs"`
}

type options struct {
	Seed     uint64
	Seconds  int
	Trace    bool
	TraceOut string
	Sizes    sizes
}

type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	var names stringList
	flag.Var(&names, "workload", "workload to run (repeatable; default: all five, each in its own child process)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs: the job list of service_mix and the rollback-drill points")
	seconds := flag.Int("seconds", defaultSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and the span file instead of the end-to-end metrics")
	out := flag.String("out", "", "write the runs as JSON to this file")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default: a temp file)")
	runs := flag.Int("runs", 1, "with several workloads: repeat the whole set this many times, seed+0, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two -out files: fastyard -compare A.json B.json")
	update := flag.Bool("update-digests", false, "regenerate testdata/digests.json from this commit's results")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *update:
		if err := updateDigests(); err != nil {
			fatal(err)
		}
	case len(names) == 1:
		w, ok := findWorkload(names[0])
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", names[0]))
		}
		digests, err := loadDigests()
		if err != nil {
			fatal(err)
		}
		opt := options{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, TraceOut: *traceOut, Sizes: fullSizes}
		rec, err := runWorkload(w, opt, digests)
		if err != nil {
			fatal(err)
		}
		printTable(logw, rec)
		if *out != "" {
			if err := writeOut(*out, *seconds, []runRecord{rec}); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(rec.resultLine)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !rec.Correct {
			os.Exit(1)
		}
	default:
		if err := runAll(names, *seed, *seconds, *trace, *runs, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastyard:", err)
	os.Exit(2)
}

// runWorkload runs one workload in this process and folds the outcome into
// the record the driver and -out see.
func runWorkload(w workloadDef, opt options, digests digestSet) (runRecord, error) {
	var err error
	budget := time.Duration(opt.Seconds) * time.Second
	var (
		values            map[string]float64
		attempted, failed int
		defs              = endToEnd
	)
	switch {
	case !opt.Trace && len(w.Points) > 0:
		out, err := runSimWorkload(w, opt.Sizes, digests[w.Name], budget, nil)
		if err != nil {
			return runRecord{}, err
		}
		fmt.Fprint(logw, "repetition wall (s) × host speed:")
		for i, r := range out.Reps {
			fmt.Fprintf(logw, " %.3f×%.2f", r.Wall.Seconds(), r.HostSpeed)
			if r.Failure != "" {
				fmt.Fprintf(logw, "\nrepetition %d failed: %s\n", i, r.Failure)
			}
		}
		fmt.Fprintln(logw)
		values, attempted, failed = simEndToEnd(out)
	case !opt.Trace:
		values, attempted, failed, err = untracedMix(opt, budget)
	default:
		defs = perLayer
		values, attempted, failed, err = tracedRun(w, opt, digests, budget)
	}
	if err != nil {
		return runRecord{}, err
	}
	if !opt.Trace {
		if rss, ok := peakRSSMB(); ok {
			values["peak_rss_mb"] = rss
		} else {
			fmt.Fprintln(logw, "note: /proc/self/status has no VmHWM here; peak_rss_mb is omitted")
		}
	}
	rec := runRecord{Workload: w.Name, Seed: opt.Seed, Trace: opt.Trace}
	rec.Attempted, rec.Failed = attempted, failed
	rec.Metrics = map[string]metricValue{}
	complete := true
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && d.Name == "peak_rss_mb" {
			continue
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(logw, "metric %s could not be measured\n", d.Name)
			complete = false
			continue
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rec.Correct = complete && failed == 0 && attempted > 0
	return rec, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() (float64, bool) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// untracedMix is the untraced run of service_mix: set-up several times for
// its median, then one timed region on the last server, then verification.
func untracedMix(opt options, budget time.Duration) (map[string]float64, int, int, error) {
	sz := opt.Sizes
	clock := newHostClock(mixClients) // the mix keeps as many cores busy as it has clients
	var servers []*mixServer          // the earlier ones idle until the run ends
	defer func() {
		for _, s := range servers {
			s.stop()
		}
	}()
	setups, err := timedSetups(sz.MixSetupReps, clock, func() error {
		s, err := startMixServer(sz)
		if err == nil {
			servers = append(servers, s)
		}
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	srv := servers[len(servers)-1]
	out := runMix(srv, clock, sz, opt.Seed, 0, budget, nil)
	attempted, failed := verifyMix(srv, &out, sz, opt.Seed)
	for _, f := range out.Failures {
		fmt.Fprintln(logw, f)
	}
	m := mixEndToEnd(out)
	m["setup_s"] = median(setups)
	all := out.latencies(-1)
	tail := tailPercentile(len(all))
	fmt.Fprintf(logw, "timed region %.2f s, %.2f s at the reference host speed\n", out.Elapsed.Seconds(), out.AtRef.Seconds())
	fmt.Fprintf(logw, "jobs %d: cached p50 %.2f ms, warm p50 %.2f ms, cold p50 %.2f ms, p%d %.2f ms (ungated)\n",
		len(all), median(out.latencies(classCached)), median(out.latencies(classWarm)),
		median(out.latencies(classCold)), tail, percentile(all, float64(tail)))
	return m, attempted, failed, nil
}

// tracedRun is the traced run of any workload: the ladder over the
// workload's program(s), the service layers from a traced job mix, and the
// single-call probes. Spans are kept in memory and written out at the end.
func tracedRun(w workloadDef, opt options, digests digestSet, budget time.Duration) (map[string]float64, int, int, error) {
	sz := opt.Sizes
	rec := &spanRecorder{}
	values := map[string]float64{}
	// Per-layer times are reported as measured; the host's speed beside
	// them, read before each part of the run, says how quiet the host was.
	clock := newHostClock(mixClients)
	var kernel []float64
	readClock := func() { kernel = append(kernel, float64(clock.read())) }
	merge := func(m map[string]float64) {
		for k, v := range m {
			values[k] = v
		}
	}

	// The ladder. The job mix takes it over the program its jobs run, as
	// the jobs run it (API defaults: predecode cache off).
	ladder, want, ladderBudget := w, digests[w.Name], budget
	mix := len(w.Points) == 0
	if mix {
		p := cachedKeyParams(0, sz)
		ladder = workloadDef{Name: w.Name, Points: []simPoint{{Label: p.Workload, Params: p}}}
		want, ladderBudget = nil, budget/4
	}
	readClock()
	m, attempted, failed, err := tracedSim(ladder, sz, want, ladderBudget, opt.Seed, rec)
	if err != nil {
		return nil, attempted, failed, err
	}
	merge(m)

	// The service layers: the mix itself for half the run traced and half
	// untraced, or a short fixed-length mix beside a simulator workload.
	mixSizes := sz
	if !mix {
		mixSizes.MixJobs = sz.ProbeJobs
	}
	srv, err := startMixServer(mixSizes)
	if err != nil {
		return nil, attempted, failed, fmt.Errorf("set-up: %w", err)
	}
	defer srv.stop()
	readClock()
	traced := runMix(srv, clock, mixSizes, opt.Seed, 0, budget/2, rec)
	a, f := verifyMix(srv, &traced, mixSizes, opt.Seed)
	attempted, failed = attempted+a, failed+f
	for _, msg := range traced.Failures {
		fmt.Fprintln(logw, msg)
	}
	merge(mixLayers(traced))
	if mix {
		plain := runMix(srv, clock, mixSizes, opt.Seed, len(traced.Samples), budget/2, nil)
		a, f := verifyMix(srv, &plain, mixSizes, opt.Seed)
		attempted, failed = attempted+a, failed+f
		values["bench.trace_overhead_pct"] = 100 * (ratio(mixEndToEnd(plain)["points_per_s"], mixEndToEnd(traced)["points_per_s"]) - 1)
	}

	// The probes.
	readClock()
	if values["service.handler_submit_us_p50"], err = handlerProbe(srv, mixSizes); err != nil {
		return nil, attempted, failed, err
	}
	sp, err := simProbes(mixSizes)
	if err != nil {
		return nil, attempted, failed, err
	}
	merge(sp)
	snapshotBlob := make([]byte, int(sp["sim.snapshot_kb"]*1024)+1)
	dp, err := diskProbes(mixSizes, srv.Prefill[0], snapshotBlob)
	if err != nil {
		return nil, attempted, failed, err
	}
	merge(dp)
	if values["sim.fleet_points_per_s"], err = fleetProbe(opt.Seed, mixSizes); err != nil {
		return nil, attempted, failed, err
	}
	cp, err := clusterProbes(opt.Seed, mixSizes)
	if err != nil {
		return nil, attempted, failed, err
	}
	merge(cp)

	readClock()
	values["bench.host_speed"] = float64(refKernel) / median(kernel)

	path := opt.TraceOut
	if path == "" {
		f, err := os.CreateTemp("", "fastyard-spans-*.json")
		if err != nil {
			return nil, attempted, failed, err
		}
		path = f.Name()
		f.Close()
	}
	if err := rec.writeFile(path); err != nil {
		return nil, attempted, failed, err
	}
	fmt.Fprintf(logw, "spans: %d written to %s\n", len(rec.spans), path)
	return values, attempted, failed, nil
}

// computeDigests runs every simulator point once and returns the digests of
// the results.
func computeDigests(sz sizes) (digestSet, error) {
	d := digestSet{}
	for _, w := range workloads {
		if len(w.Points) == 0 {
			continue
		}
		rep := runRepetition(w, sz, nil, nil, 0)
		if rep.Failure != "" {
			return nil, fmt.Errorf("%s: %s", w.Name, rep.Failure)
		}
		d[w.Name] = map[string]string{}
		for i, pt := range w.Points {
			sum, err := resultDigest(rep.Runs[i].Result)
			if err != nil {
				return nil, err
			}
			d[w.Name][pt.Label] = sum
		}
	}
	return d, nil
}

// updateDigests rewrites the reference file in the source tree from this
// commit's results.
func updateDigests() error {
	d, err := computeDigests(fullSizes)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	path := "testdata/digests.json"
	if _, err := os.Stat("bench/testdata"); err == nil {
		path = "bench/" + path
	}
	fmt.Fprintln(logw, "writing", path)
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// header records where and how the numbers were taken.
func header(seed uint64, seconds int) map[string]string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"commit":     commit,
		"go":         runtime.Version(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"seed":       strconv.FormatUint(seed, 10),
		"seconds":    strconv.Itoa(seconds),
		"reference":  "seed goldens via testdata/digests.json; allowed difference 0",
	}
}

func writeOut(path string, seconds int, runs []runRecord) error {
	seed := uint64(0)
	if len(runs) > 0 {
		seed = runs[0].Seed
	}
	raw, err := json.MarshalIndent(outFile{Header: header(seed, seconds), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runAll runs each workload in its own child process (fresh heap, its own
// VmHWM), relays the child's notes and collects its result line.
func runAll(names []string, seed uint64, seconds, trace, runs int, out string) error {
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for k, v := range header(seed, seconds) {
		fmt.Fprintf(logw, "%s=%s ", k, v)
	}
	fmt.Fprintln(logw)
	var all []runRecord
	bad := false
	for r := 0; r < runs; r++ {
		for _, name := range names {
			if _, ok := findWorkload(name); !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			s := seed + uint64(r)
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				return err
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			rec := runRecord{Workload: name, Seed: s, Trace: trace != 0}
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.resultLine); jerr != nil {
				return fmt.Errorf("%s: no result line (%v)", name, err)
			}
			if !rec.Correct {
				bad = true
			}
			all = append(all, rec)
		}
	}
	if out != "" {
		if err := writeOut(out, seconds, all); err != nil {
			return err
		}
	}
	if bad {
		return errors.New("at least one operation failed")
	}
	return nil
}

// printTable writes one run's metrics by name with their units.
func printTable(w io.Writer, rec runRecord) {
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d %s: attempted %d, failed %d (reference: seed goldens, allowed difference 0)\n",
		rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
}
