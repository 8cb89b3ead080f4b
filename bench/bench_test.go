package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// toySizes shrink every input so the whole file runs in seconds: 2 000
// instruction caps, 24 jobs. Timings at these sizes mean nothing; the tests
// check shape, names, correctness checks and seeding.
var toySizes = sizes{
	InstCap:       2_000,
	WarmupInst:    500,
	DrillInst:     2_000,
	SideInst:      2_000,
	SetupReps:     1,
	MinReps:       1,
	MixJobs:       24,
	MixSetupReps:  1,
	MixBaseCap:    2_000,
	MixCachedKeys: 8,
	MixPrefixes:   2,
	MixVerify:     4,
	ProbeJobs:     16,
	ProbeOps:      8,
}

func TestMain(m *testing.M) {
	logw = io.Discard
	os.Exit(m.Run())
}

var toyDigests = func() func(t *testing.T) digestSet {
	var d digestSet
	return func(t *testing.T) digestSet {
		t.Helper()
		if d == nil {
			var err error
			if d, err = computeDigests(toySizes); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
}()

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in the source
// together and checks the contract's limits on names, units and counts.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bm.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("paths %v", bm.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(bm.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", n, len(workloads))
	}
	for i, w := range bm.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	if n := len(bm.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", n, len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bm.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" || d.Bound != maxBound {
		t.Errorf("setup_s must be reported in s, lower is better, with the largest bound: %+v", d)
	}

	if n := len(bm.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", n, len(perLayer))
	}
	for i, m := range bm.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

func toyRun(t *testing.T, w workloadDef, trace bool) runRecord {
	t.Helper()
	opt := options{Seed: 1, Trace: trace, TraceOut: t.TempDir() + "/spans.json", Sizes: toySizes}
	rec, err := runWorkload(w, opt, toyDigests(t))
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return rec
}

func checkEmitted(t *testing.T, rec runRecord, defs []metricDef) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", rec.Workload, rec.Correct, rec.Attempted, rec.Failed)
	}
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d defined", rec.Workload, len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: %s is not emitted", rec.Workload, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, want %q", rec.Workload, d.Name, v.Unit, d.Unit)
		}
	}
}

// TestEndToEndMetricsEmitted: every workload reports every end-to-end metric
// by name with its unit, none of them zero.
func TestEndToEndMetricsEmitted(t *testing.T) {
	for _, w := range workloads {
		rec := toyRun(t, w, false)
		checkEmitted(t, rec, endToEnd)
		for n, v := range rec.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v", w.Name, n, v.Value)
			}
		}
	}
}

// TestPerLayerMetricsEmitted: the traced run of every workload reports every
// per-layer metric, and the ladder adds up: what the FM and the TM cost at
// their stand-alone rates plus the coupling's self time is the serial run.
func TestPerLayerMetricsEmitted(t *testing.T) {
	for _, w := range workloads {
		name := w.Name
		rec := toyRun(t, w, true)
		checkEmitted(t, rec, perLayer)
		v := func(n string) float64 { return rec.Metrics[n].Value }
		sum := v("fm.exec_ns_per_inst")*(1+v("fm.wrong_path_per_inst")) +
			v("tm.step_ns_per_cycle")*v("tm.cycles_per_inst") +
			v("core.coupling_self_ns_per_inst")
		if serial := v("core.serial_ns_per_inst"); serial <= 0 || math.Abs(sum-serial) > 1e-6*serial {
			t.Errorf("%s: fm + tm + coupling_self = %v, serial = %v", name, sum, serial)
		}
	}
}

// TestDigestCheckBites: a run with one modeled parameter changed must count
// as a failed operation and make the run incorrect (main exits non-zero).
func TestDigestCheckBites(t *testing.T) {
	w, _ := findWorkload("mcf_stall")
	w.Points = append([]simPoint(nil), w.Points...)
	w.Points[0].Params.Predictor = "2bit"
	rec := toyRun(t, w, false)
	if rec.Correct || rec.Failed == 0 || rec.Failed != rec.Attempted {
		t.Fatalf("a 2bit-predictor run passed the gshare digests: %+v", rec.resultLine)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{800, 98}, {1000, 99}, {100, 90}, {724, 98}, {48, 79}, {20, 50}, {3, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && float64(c.n)*float64(100-p)/100 < 10 {
			t.Errorf("n=%d: p%d has fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestJobListIsAFunctionOfTheSeed(t *testing.T) {
	list := func(seed uint64) []mixJob {
		var js []mixJob
		for i := 0; i < 200; i++ {
			js = append(js, mixJobAt(seed, i, fullSizes))
		}
		return js
	}
	a, b, c := list(7), list(7), list(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two job lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same job list")
	}
	count := map[jobClass]int{}
	keys := map[string]bool{}
	for _, j := range a {
		count[j.Class]++
		if j.Class != classCached {
			if k := j.Params.Key(); keys[k] {
				t.Errorf("job %d repeats an engine-run point", j.Index)
			} else {
				keys[k] = true
			}
		}
	}
	for class, want := range map[jobClass]int{classCached: 80, classWarm: 70, classCold: 50} {
		if got := count[class]; got != want {
			t.Errorf("%s: %d of 200 jobs, want %d", classNames[class], got, want)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 6, 8, 7}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	kips := metricDef{Name: "host_kips", Better: "higher", Bound: 0.10}
	rss := metricDef{Name: "peak_rss_mb", Better: "lower", Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	noisy := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", kips, steady(100), steady(100), "ok"},
		{"slower within bound", kips, steady(100), steady(93), "ok"},
		{"slower beyond bound", kips, steady(100), steady(85), "worse"},
		{"faster", kips, steady(100), steady(150), "ok"},
		{"more memory beyond bound", rss, steady(100), steady(120), "worse"},
		{"less memory", rss, steady(100), steady(80), "ok"},
		{"noisy", kips, noisy(100), noisy(95), "unresolved"},
		{"noisy but every run better", kips, noisy(100), noisy(300), "ok"},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
