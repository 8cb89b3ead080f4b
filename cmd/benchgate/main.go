// benchgate turns `go test -bench -json` output into a stable bench.json
// and gates pull requests on wall-time regressions against a committed
// baseline. Two modes:
//
//	go test -bench=. -benchtime=1x -count=3 -json | benchgate -emit bench.json
//	benchgate -compare -baseline BENCH_baseline.json -current bench.json
//
// When the input carries repeated runs of a benchmark (`-count=N`), emit
// keeps the per-benchmark MINIMUM ns/op — the run least disturbed by the
// host — and records how many runs were folded in `runs`. Comparing minima
// instead of single samples is what keeps the gate stable on shared CI
// runners: one noisy stroke can inflate a single sample by far more than
// the threshold, but it cannot deflate the minimum.
//
// Compare fails (exit 1) when any benchmark present in both files is slower
// than baseline by more than -threshold (fractional, default 0.15). Very
// short benchmarks are exempt via -floor: with -benchtime=1x a
// microsecond-scale run is all scheduler noise, and gating on it would make
// the job flap.
//
// benchgate is stdlib-only so the CI job needs nothing but the Go
// toolchain.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark result. Metrics holds every per-op value the
// benchmark reported (ns/op, B/op, allocs/op, and custom units like
// speedup-x), keyed by unit.
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Runs counts the `-count` repetitions folded into this entry (emit
	// keeps the fastest); 0/absent means a single run (pre-aggregation
	// files).
	Runs int `json:"runs,omitempty"`
}

// File is the bench.json schema.
type File struct {
	Benchmarks []Bench `json:"benchmarks"`
}

// testEvent is the subset of test2json's event schema benchgate needs.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

// benchLine matches "BenchmarkName-8   	       1	123456 ns/op	..." —
// the result line `go test -bench` prints per benchmark.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// procSuffix is the "-8" go test appends to a benchmark's name when
// GOMAXPROCS is not 1. It is dropped, or a baseline recorded on one host
// would read as MISSING on a host with a different CPU count.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	emit := flag.String("emit", "", "parse `go test -bench -json` on stdin and write bench.json to this path (\"-\" = stdout)")
	compare := flag.Bool("compare", false, "compare -current against -baseline and exit non-zero on regression")
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline bench.json (compare mode)")
	current := flag.String("current", "bench.json", "freshly emitted bench.json (compare mode)")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional wall-time regression per benchmark")
	floor := flag.Float64("floor", 1e6, "ignore benchmarks whose baseline ns/op is below this (single-iteration noise)")
	flag.Parse()

	switch {
	case *emit != "":
		if err := emitMode(*emit); err != nil {
			fatal(err)
		}
	case *compare:
		if err := compareMode(*baseline, *current, *threshold, *floor); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func emitMode(path string) error {
	benches, err := parseStream()
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("benchgate: no benchmark results on stdin (pipe `go test -bench -json` output)")
	}
	benches = foldRuns(benches)
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })
	out, err := json.MarshalIndent(File{Benchmarks: benches}, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// parseStream reads test2json events (or, as a fallback, raw `go test
// -bench` text) from stdin and collects the benchmark result lines.
//
// test2json emits one event per *write*, not per line: a slow benchmark
// flushes its padded name ("BenchmarkX   \t") before running and the
// measurements afterwards, so a single result line can arrive split across
// events — possibly interleaved with other packages' output. Partial lines
// are therefore buffered per (Package, Test) until their newline arrives.
func parseStream() ([]Bench, error) {
	var benches []Bench
	partial := map[string]string{}
	emit := func(line string) {
		if b, ok := parseBenchLine(strings.TrimSpace(line)); ok {
			benches = append(benches, b)
		}
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "{") {
			emit(line) // raw `go test -bench` text fallback
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue // tolerate interleaved non-JSON noise
		}
		if ev.Action != "output" {
			continue
		}
		key := ev.Package + "\x00" + ev.Test
		s := partial[key] + ev.Output
		for {
			i := strings.IndexByte(s, '\n')
			if i < 0 {
				break
			}
			emit(s[:i])
			s = s[i+1:]
		}
		partial[key] = s
	}
	return benches, sc.Err()
}

// foldRuns collapses `-count=N` repetitions of the same benchmark into one
// entry holding the minimum-ns/op run (noise only ever adds time), with
// Runs recording how many samples were folded. First-appearance order is
// preserved; single-run input passes through with Runs == 1.
func foldRuns(benches []Bench) []Bench {
	index := map[string]int{}
	var out []Bench
	for _, b := range benches {
		b.Runs = 1
		i, seen := index[b.Name]
		if !seen {
			index[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		if b.NsPerOp < out[i].NsPerOp {
			b.Runs = out[i].Runs + 1
			out[i] = b
		} else {
			out[i].Runs++
		}
	}
	return out
}

func parseBenchLine(line string) (Bench, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Bench{}, false
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: procSuffix.ReplaceAllString(m[1], ""), Iterations: iters, Metrics: map[string]float64{}}
	// The tail is value/unit pairs: "123456 ns/op  98 B/op  7 allocs/op".
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		unit := fields[i+1]
		b.Metrics[unit] = v
		if unit == "ns/op" {
			b.NsPerOp = v
		}
	}
	if b.NsPerOp == 0 {
		return Bench{}, false
	}
	return b, true
}

func compareMode(basePath, curPath string, threshold, floor float64) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cur, err := load(curPath)
	if err != nil {
		return err
	}
	curByName := map[string]Bench{}
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	var failed bool
	for _, old := range base.Benchmarks {
		now, ok := curByName[old.Name]
		if !ok {
			fmt.Printf("MISSING  %-40s (in baseline, not in current run)\n", old.Name)
			failed = true
			continue
		}
		ratio := now.NsPerOp / old.NsPerOp
		verdict := "ok"
		switch {
		case old.NsPerOp < floor:
			verdict = "skip (below noise floor)"
		case ratio > 1+threshold:
			verdict = fmt.Sprintf("REGRESSION (> +%.0f%%)", threshold*100)
			failed = true
		case ratio < 1-threshold:
			verdict = "improved — consider refreshing the baseline"
		}
		fmt.Printf("%-42s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
			old.Name, old.NsPerOp, now.NsPerOp, (ratio-1)*100, verdict)
	}
	if failed {
		return fmt.Errorf("benchgate: wall-time regression against %s (threshold ±%.0f%%)", basePath, threshold*100)
	}
	fmt.Printf("benchgate: %d benchmarks within ±%.0f%% of %s\n", len(base.Benchmarks), threshold*100, basePath)
	return nil
}

func load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
