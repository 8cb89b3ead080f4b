package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// panicEngine panics in Configure: TestFleetPanicCapture registers it as
// the injection point for Fleet's per-point panic capture.
type panicEngine struct{}

func (panicEngine) Describe() string                           { return "test engine that panics" }
func (panicEngine) Configure(Params) error                     { panic("injected") }
func (panicEngine) Run() (Result, error)                       { return Result{}, nil }
func (panicEngine) RunContext(context.Context) (Result, error) { return Result{}, nil }

// TestSweepPoints checks the deterministic expansion order: workloads
// outermost, then engines, then variants — and the base/variant merge.
func TestSweepPoints(t *testing.T) {
	s := Sweep{
		Workloads: []string{"w1", "w2"},
		Engines:   []string{"e1", "e2"},
		Variants:  []Params{{Predictor: "gshare"}, {Predictor: "perfect", IssueWidth: 4}},
		Base:      Params{MaxInstructions: 123, IssueWidth: 2},
	}
	pts := s.Points()
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	want := []struct {
		engine, workload, pred string
		width                  int
	}{
		{"e1", "w1", "gshare", 2}, {"e1", "w1", "perfect", 4},
		{"e2", "w1", "gshare", 2}, {"e2", "w1", "perfect", 4},
		{"e1", "w2", "gshare", 2}, {"e1", "w2", "perfect", 4},
		{"e2", "w2", "gshare", 2}, {"e2", "w2", "perfect", 4},
	}
	for i, w := range want {
		pt := pts[i]
		if pt.Engine != w.engine || pt.Params.Workload != w.workload ||
			pt.Params.Predictor != w.pred || pt.Params.IssueWidth != w.width {
			t.Errorf("point %d = %s/%s/%s width %d, want %s/%s/%s width %d",
				i, pt.Engine, pt.Params.Workload, pt.Params.Predictor, pt.Params.IssueWidth,
				w.engine, w.workload, w.pred, w.width)
		}
		if pt.Params.MaxInstructions != 123 {
			t.Errorf("point %d lost base MaxInstructions", i)
		}
	}
}

// setNonZero stores a non-zero value in one Params field, chosen by kind;
// which of two distinct values is picked by alt. Pointer and interface
// fields take a fresh allocation, so two calls never compare equal (Merge's
// result is checked by identity there).
func setNonZero(t *testing.T, name string, f reflect.Value, alt bool) {
	n := int64(7)
	if alt {
		n = 11
	}
	switch f.Kind() {
	case reflect.String:
		f.SetString(strings.Repeat("x", int(n)))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		f.SetFloat(float64(n))
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	case reflect.Interface:
		for _, impl := range []any{newMemSnapshots()} {
			if v := reflect.ValueOf(impl); v.Type().AssignableTo(f.Type()) {
				f.Set(v)
				return
			}
		}
		t.Fatalf("Params.%s: no test implementation of %s — add one to setNonZero", name, f.Type())
	default:
		t.Fatalf("Params.%s: kind %s not handled — extend setNonZero (and check Merge overlays it)", name, f.Kind())
	}
}

// TestMergeEveryField walks Params by reflection instead of listing it: each
// field set non-zero in the overlay must win over an empty and over a fully
// populated base without disturbing any other field, and the zero overlay
// must be the identity. A field added to Params is covered the day it lands.
func TestMergeEveryField(t *testing.T) {
	typ := reflect.TypeOf(Params{})
	var full Params
	for i := 0; i < typ.NumField(); i++ {
		setNonZero(t, typ.Field(i).Name, reflect.ValueOf(&full).Elem().Field(i), false)
	}
	if got := Merge(full, Params{}); !reflect.DeepEqual(got, full) {
		t.Errorf("zero overlay is not the identity:\n  base %+v\n  got  %+v", full, got)
	}
	if got := Merge(Params{}, Params{}); !reflect.DeepEqual(got, Params{}) {
		t.Errorf("Merge of two zero values = %+v", got)
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var overlay Params
		setNonZero(t, name, reflect.ValueOf(&overlay).Elem().Field(i), true)
		want := reflect.ValueOf(overlay).Field(i).Interface()
		for _, base := range []Params{{}, full} {
			got := Merge(base, overlay)
			if f := reflect.ValueOf(got).Field(i).Interface(); f != want {
				t.Errorf("Params.%s: overlay value %v dropped, merged value %v", name, want, f)
			}
			// Every other field inherits from the base.
			reflect.ValueOf(&got).Elem().Field(i).Set(reflect.ValueOf(base).Field(i))
			if !reflect.DeepEqual(got, base) {
				t.Errorf("Params.%s: overlaying it disturbed another field:\n  base %+v\n  got  %+v", name, base, got)
			}
		}
	}
}

// TestSweepDefaults checks the empty-field defaults: fast engine, one
// workload slot, one variant.
func TestSweepDefaults(t *testing.T) {
	pts := Sweep{Base: Params{Workload: "w"}}.Points()
	if len(pts) != 1 || pts[0].Engine != "fast" || pts[0].Params.Workload != "w" {
		t.Fatalf("unexpected default expansion: %+v", pts)
	}
}

// TestFleetErrorCapture injects failing points into a sweep and checks the
// fleet's contract: every other point still runs, spec order is preserved,
// and failures are captured in place instead of aborting the run.
func TestFleetErrorCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled runs")
	}
	ok := Params{Workload: "164.gzip", MaxInstructions: 2000}
	points := []Point{
		{Engine: "fast", Params: ok},
		{Engine: "fast", Params: Params{Workload: "does-not-exist"}}, // bad workload
		{Engine: "lockstep", Params: ok},
		{Engine: "hasim", Params: ok}, // unregistered engine
		{Engine: "monolithic", Params: ok},
	}
	results := Fleet{Workers: 4}.Run(points)
	if len(results) != len(points) {
		t.Fatalf("got %d results for %d points", len(results), len(points))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has Index %d", i, r.Index)
		}
		if r.Point.Engine != points[i].Engine {
			t.Errorf("result %d is for engine %s, want %s", i, r.Point.Engine, points[i].Engine)
		}
	}
	for _, i := range []int{0, 2, 4} {
		if results[i].Err != nil {
			t.Errorf("point %d should have succeeded: %v", i, results[i].Err)
		}
		if results[i].Result.Instructions == 0 {
			t.Errorf("point %d has empty result", i)
		}
	}
	for _, i := range []int{1, 3} {
		if results[i].Err == nil {
			t.Errorf("point %d should have failed", i)
		}
	}
	if FirstErr(results) == nil {
		t.Error("FirstErr should surface the first failure")
	}
	if FirstErr(results[:1]) != nil {
		t.Error("FirstErr on clean results should be nil")
	}
}

// TestFleetDeterministicAcrossWorkers runs the same sweep sequentially and
// fanned out and requires bit-identical results — the property that makes
// fleet-regenerated tables byte-identical at any worker count.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled runs")
	}
	sweep := Sweep{
		Workloads: []string{"164.gzip", "181.mcf"},
		Engines:   []string{"fast", "lockstep"},
		Variants:  []Params{{Predictor: "gshare"}, {Predictor: "perfect"}},
		Base:      Params{MaxInstructions: 4000},
	}
	seq := Fleet{Workers: 1}.Run(sweep.Points())
	par := Fleet{Workers: 8}.Run(sweep.Points())
	if len(seq) != len(par) {
		t.Fatalf("length mismatch: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("point %d errored: %v / %v", i, seq[i].Err, par[i].Err)
		}
		// sim.Result contains only comparable fields, so bit-identity is
		// a single comparison.
		if seq[i].Result != par[i].Result {
			t.Errorf("point %d (%s) differs between 1 and 8 workers:\nseq: %+v\npar: %+v",
				i, seq[i].Point, seq[i].Result, par[i].Result)
		}
	}
}

// TestFleetPanicCapture turns an engine panic into a per-point error.
func TestFleetPanicCapture(t *testing.T) {
	Register("test-panic", func() Engine { return panicEngine{} })
	t.Cleanup(func() { delete(registry, "test-panic") })
	points := []Point{
		{Engine: "test-panic"},
		{Engine: "fast", Params: Params{Workload: "164.gzip", MaxInstructions: 500}},
	}
	results := Fleet{Workers: 2}.Run(points)
	if err := results[0].Err; err == nil || !strings.Contains(err.Error(), "panicked: injected") {
		t.Fatalf("panicking point should surface its panic as an error, got %v", err)
	}
	if results[1].Err != nil {
		t.Fatalf("a panicking neighbour took down a healthy point: %v", results[1].Err)
	}
}
