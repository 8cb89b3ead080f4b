package sim

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestEngineInterfaceConformance pins down which optional interfaces each
// registered engine satisfies — deliberately, not accidentally: the FAST
// engines expose their live coupled simulator, every workload-driven engine
// exposes its boot, and only fsbcache carries a software comparison point.
func TestEngineInterfaceConformance(t *testing.T) {
	expect := map[string]struct{ coupled, booted, software bool }{
		"fast":          {coupled: true, booted: true},
		"fast-parallel": {coupled: true, booted: true},
		"monolithic":    {booted: true},
		"gems":          {booted: true},
		"lockstep":      {booted: true},
		"fsbcache":      {booted: true, software: true},
	}
	if len(expect) != len(Names()) {
		t.Fatalf("expectation table covers %d engines, registry has %v", len(expect), Names())
	}
	for _, name := range Names() {
		want, ok := expect[name]
		if !ok {
			t.Errorf("engine %q missing from the expectation table", name)
			continue
		}
		eng, err := New(name, Params{Workload: "164.gzip", MaxInstructions: 500})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, is := eng.(Coupled); is != want.coupled {
			t.Errorf("%s: Coupled = %v, want %v", name, is, want.coupled)
		}
		if _, is := eng.(Booted); is != want.booted {
			t.Errorf("%s: Booted = %v, want %v", name, is, want.booted)
		}
		if _, is := eng.(SoftwareComparison); is != want.software {
			t.Errorf("%s: SoftwareComparison = %v, want %v", name, is, want.software)
		}
	}
}

// TestParamsValidation is the table of rejections every engine must agree
// on: unknown workloads, links and named-field values fail at Configure
// time with a message naming the offender.
func TestParamsValidation(t *testing.T) {
	cases := []struct {
		name    string
		engine  string
		params  Params
		wantSub string
	}{
		{"unknown engine", "hasim", Params{}, "unknown engine"},
		{"unknown workload", "fast", Params{Workload: "no-such-app"}, "unknown workload"},
		{"unknown link", "fast", Params{Workload: "164.gzip", Link: "fsb"}, "unknown link"},
		{"unknown link on baseline", "monolithic", Params{Workload: "164.gzip", Link: "fsb"}, "unknown link"},
		{"unknown rollback", "fast", Params{Workload: "164.gzip", Rollback: "undo-log"}, "unknown rollback"},
		{"rollback validated on baselines", "lockstep", Params{Workload: "164.gzip", Rollback: "undo-log"}, "unknown rollback"},
		{"negative checkpoint interval", "fast", Params{Workload: "164.gzip", Rollback: "checkpoint", CheckpointInterval: -1}, "checkpoint interval"},
		{"cores out of range", "fast", Params{Workload: "164.gzip", Cores: 65}, "cores"},
		{"negative interconnect latency", "fast", Params{Workload: "164.gzip", Cores: 2, InterconnectLatency: -1}, "interconnect latency"},
		{"negative issue width", "fast", Params{Workload: "164.gzip", IssueWidth: -3}, "issue width"},
		{"poll cadence below PollOnResteer", "fast", Params{Workload: "164.gzip", PollEveryBBs: -7}, "poll cadence"},
		{"unknown predictor", "fast", Params{Workload: "164.gzip", Predictor: "nope"}, "unknown predictor"},
		{"multicore on fast-parallel", "fast-parallel", Params{Workload: "164.gzip", Cores: 2}, "single-core"},
		{"multicore on monolithic", "monolithic", Params{Workload: "164.gzip", Cores: 2}, "single-core"},
		{"multicore on lockstep", "lockstep", Params{Workload: "164.gzip", Cores: 2}, "single-core"},
		{"multicore on fsbcache", "fsbcache", Params{Workload: "164.gzip", Cores: 2}, "single-core"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.engine, tc.params)
			if err == nil {
				t.Fatalf("New(%s, %+v) accepted bad params", tc.engine, tc.params)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
			// Only an engine's own restriction (its name, its core limit)
			// may wait for Configure: everything else Validate alone
			// rejects, so an API can refuse it before admission.
			engineRule := tc.wantSub == "unknown engine" || tc.wantSub == "single-core"
			if verr := tc.params.Validate(); (verr == nil) != engineRule {
				t.Errorf("Validate() = %v, want rejection = %v", verr, !engineRule)
			}
		})
	}
}

// TestNamedAblationParams checks the named ablation fields actually change
// engine behaviour.
func TestNamedAblationParams(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled runs")
	}
	base := Params{Workload: "164.gzip", MaxInstructions: 5000}
	plain, err := Run("fast", base)
	if err != nil {
		t.Fatal(err)
	}
	uncomp, err := Run("fast", Merge(base, Params{UncompressedTrace: true}))
	if err != nil {
		t.Fatal(err)
	}
	if uncomp.TraceWords <= plain.TraceWords {
		t.Errorf("UncompressedTrace should inflate the stream: %d vs %d words",
			uncomp.TraceWords, plain.TraceWords)
	}
	future, err := Run("fast", Merge(base, Params{FutureMicroarch: true}))
	if err != nil {
		t.Fatal(err)
	}
	if future.TargetCycles == plain.TargetCycles {
		t.Error("FutureMicroarch should change cycle timing")
	}
	if _, err := Run("fast", Merge(base, Params{Rollback: "checkpoint", CheckpointInterval: 64})); err != nil {
		t.Errorf("checkpoint rollback run failed: %v", err)
	}
}

// TestUncompressedTraceReachesLink: ablation A5's encoding prices the link,
// not just the FM's word count. Under every policy, compressed or not, the
// words the link carries are the words the FM emitted, and the uncompressed
// stream costs the FM side more host time.
func TestUncompressedTraceReachesLink(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled runs")
	}
	for _, row := range []struct {
		engine string
		p      Params
	}{
		{"fast", Params{Workload: "164.gzip", MaxInstructions: 10_000}},
		{"fast-parallel", Params{Workload: "164.gzip", MaxInstructions: 10_000}},
		{"fast", Params{Workload: "smp-lock", Cores: 4, MaxInstructions: 20_000}},
	} {
		var fmNanos [2]float64
		for i, uncompressed := range []bool{false, true} {
			p := row.p
			p.UncompressedTrace = uncompressed
			r, err := Run(row.engine, p)
			if err != nil {
				t.Fatal(err)
			}
			if r.LinkStats.BurstWords != r.TraceWords {
				t.Errorf("%s %s uncompressed=%v: link carried %d words, FM emitted %d",
					row.engine, row.p.Workload, uncompressed, r.LinkStats.BurstWords, r.TraceWords)
			}
			fmNanos[i] = r.FMNanos
		}
		if fmNanos[1] <= fmNanos[0] {
			t.Errorf("%s %s: uncompressed FM time %.0f ns, compressed %.0f ns: want it higher",
				row.engine, row.p.Workload, fmNanos[1], fmNanos[0])
		}
	}
}

// TestRunContextCancelled checks that an already-cancelled context stops
// every engine promptly with ctx.Err().
func TestRunContextCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled runs")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		if _, err := RunContext(ctx, name, Params{Workload: "164.gzip", MaxInstructions: confCap}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestFleetContextCancellation cancels a sweep mid-flight and checks the
// contract: the spec-order slice still comes back full-length, unclaimed
// points carry ctx.Err() without having run, and FirstErr surfaces the
// cancellation.
func TestFleetContextCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled runs")
	}
	// Uncapped Linux boots take long enough that the cancel lands mid-run.
	points := Sweep{
		Workloads: []string{"Linux-2.4"},
		Variants:  make([]Params, 8),
	}.Points()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	results := Fleet{Workers: 2}.RunContext(ctx, points)
	if len(results) != len(points) {
		t.Fatalf("got %d results for %d points", len(results), len(points))
	}
	cancelled := 0
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has Index %d", i, r.Index)
		}
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no point observed the cancellation")
	}
	if FirstErr(results) == nil {
		t.Error("FirstErr should surface the cancellation")
	}
}

// TestFleetSharedTelemetry fans a sweep out over workers that all write one
// Telemetry — the configuration `go test -race` must prove safe — and
// checks the fleet- and run-level aggregates.
func TestFleetSharedTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled runs")
	}
	tel := obs.NewWithTrace()
	sweep := Sweep{
		Workloads: []string{"164.gzip", "181.mcf"},
		Engines:   []string{"fast", "fast-parallel"},
		Base:      Params{MaxInstructions: 4000},
	}
	var progress int
	fleet := Fleet{
		Workers:   4,
		Telemetry: tel,
		Progress:  func(done, total int, pr PointResult) { progress = done },
	}
	results := fleet.Run(sweep.Points())
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if progress != len(results) {
		t.Errorf("Progress saw %d completions, want %d", progress, len(results))
	}
	m := tel.Metrics
	if got := m.Counter("fleet_points_total").Value(); got != uint64(len(results)) {
		t.Errorf("fleet_points_total = %d, want %d", got, len(results))
	}
	if got := m.Counter("fleet_point_errors_total").Value(); got != 0 {
		t.Errorf("fleet_point_errors_total = %d", got)
	}
	if got := m.Counter("core_runs_total").Value(); got != uint64(len(results)) {
		t.Errorf("core_runs_total = %d, want %d", got, len(results))
	}
	var wantInst uint64
	for _, r := range results {
		wantInst += r.Result.Instructions
	}
	if got := m.Counter("tm_instructions_total").Value(); got != wantInst {
		t.Errorf("tm_instructions_total = %d, want %d (sum over points)", got, wantInst)
	}
	if m.Histogram("fleet_point_seconds", nil).Count() != uint64(len(results)) {
		t.Error("fleet_point_seconds missing samples")
	}
	// Every run landed on its own trace track, plus the fleet's pid 0.
	pids := map[int]bool{}
	for _, ev := range tel.Trace.Events() {
		pids[ev.PID] = true
	}
	if !pids[0] || len(pids) != len(results)+1 {
		t.Errorf("expected %d distinct trace pids + fleet track, got %v", len(results), pids)
	}
}

// TestResultJSONSchema pins the stable serialization contract of `fastsim
// -json`: renaming or dropping a tagged field is a breaking change this
// test makes loud.
func TestResultJSONSchema(t *testing.T) {
	raw, err := json.Marshal(Result{Engine: "fast", Workload: "w"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"engine", "workload", "instructions", "basic_blocks", "target_cycles",
		"ipc", "fm_nanos", "tm_nanos", "sim_nanos", "target_mips", "kips",
		"bp_accuracy", "mispredicts", "wrong_path", "rollbacks", "trace_words",
		"link", "tm", "tb_max_occupancy",
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("Result JSON missing key %q", k)
		}
	}
	if len(m) != len(want) {
		t.Errorf("Result JSON has %d keys, schema lists %d — update the schema test and DESIGN.md together", len(m), len(want))
	}
	for _, sub := range []string{"link", "tm"} {
		if _, ok := m[sub].(map[string]any); !ok {
			t.Errorf("Result JSON %q should be a nested object", sub)
		}
	}
}
