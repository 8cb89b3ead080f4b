package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Point is one simulation to run: an engine name plus its parameters.
type Point struct {
	Engine string
	Params Params
}

func (pt Point) String() string {
	w := workloadName(pt.Params.Resolved())
	if pt.Params.Predictor != "" {
		return fmt.Sprintf("%s/%s/%s", pt.Engine, w, pt.Params.Predictor)
	}
	return fmt.Sprintf("%s/%s", pt.Engine, w)
}

// Sweep declares a cross product {Workloads × Engines × Variants} of
// simulation points over a base parameter set. Experiments are sweep
// literals: Figure 4 is {16 workloads × fast × 3 predictors}, Table 3 is
// {Linux-2.4 × 4 engines}, a design-space exploration is {1 workload ×
// fast × width·predictor variants}.
//
// The JSON tags mirror Params': internal/service accepts a Sweep spec on
// POST /v1/sweeps (strictly decoded, unknown fields rejected) and fans it
// into one child job per expanded point.
type Sweep struct {
	// Engines are registry names; empty means {"fast"}.
	Engines []string `json:"engines,omitempty"`
	// Workloads are workload names; empty means {Base.Workload}.
	Workloads []string `json:"workloads,omitempty"`
	// Variants are parameter overlays merged over Base (zero fields keep
	// the base value); empty means one point per workload × engine.
	Variants []Params `json:"variants,omitempty"`
	// Base supplies the fields every point shares.
	Base Params `json:"base"`
}

// Points expands the sweep in deterministic spec order: workloads
// outermost, then engines, then variants — the order the paper's tables
// print in.
func (s Sweep) Points() []Point {
	engines := s.Engines
	if len(engines) == 0 {
		engines = []string{"fast"}
	}
	workloads := s.Workloads
	if len(workloads) == 0 {
		workloads = []string{s.Base.Workload}
	}
	variants := s.Variants
	if len(variants) == 0 {
		variants = []Params{{}}
	}
	points := make([]Point, 0, len(workloads)*len(engines)*len(variants))
	for _, w := range workloads {
		for _, e := range engines {
			for _, v := range variants {
				p := Merge(s.Base, v)
				if w != "" {
					p.Workload = w
				}
				points = append(points, Point{Engine: e, Params: p})
			}
		}
	}
	return points
}

// Merge overlays v on base: non-zero fields of v win, zero fields inherit.
// It walks the struct rather than naming fields, so a field added to Params
// is merged into every sweep variant the day it lands.
func Merge(base, v Params) Params {
	dst, src := reflect.ValueOf(&base).Elem(), reflect.ValueOf(v)
	for i := 0; i < src.NumField(); i++ {
		if f := src.Field(i); !f.IsZero() {
			dst.Field(i).Set(f)
		}
	}
	return base
}

// PointResult is one executed sweep point. Err captures a per-point
// failure (bad engine name, unknown workload, run error, or a recovered
// panic) without aborting the rest of the fleet.
type PointResult struct {
	Index  int // position in the expanded spec order
	Point  Point
	Result Result
	Err    error
}

// Fleet fans sweep points out over a bounded worker pool. Every engine
// instance is private to its point and the registry is read-only, so
// points are embarrassingly parallel; results come back in spec order
// regardless of completion order.
type Fleet struct {
	// Workers bounds concurrency; <=0 means GOMAXPROCS.
	Workers int

	// Telemetry, when non-nil, receives fleet-level metrics (points run,
	// errors, queue wait, per-point wall time) and — if it carries a
	// TraceLog — one span per executed point on the fleet track (trace
	// pid 0, one tid per worker). Point runs additionally inherit it
	// through Params.Telemetry when that is unset.
	Telemetry *obs.Telemetry

	// Progress, when non-nil, is called after every completed point with
	// the count finished so far and the fleet total. Calls are serialized;
	// keep it cheap (a status line, not I/O-heavy work).
	Progress func(done, total int, pr PointResult)
}

// fleetInstruments resolves the fleet's metric handles once per Run; all
// fields are nil (and every method a no-op) when telemetry is off.
type fleetInstruments struct {
	points    *obs.Counter
	errors    *obs.Counter
	queueWait *obs.Histogram
	pointSecs *obs.Histogram
	tlog      *obs.TraceLog
}

func (f Fleet) instruments() fleetInstruments {
	var ins fleetInstruments
	if f.Telemetry == nil {
		return ins
	}
	ins.points = f.Telemetry.Counter("fleet_points_total")
	ins.errors = f.Telemetry.Counter("fleet_point_errors_total")
	ins.queueWait = f.Telemetry.Histogram("fleet_queue_wait_seconds", obs.SecondsBuckets)
	ins.pointSecs = f.Telemetry.Histogram("fleet_point_seconds", obs.SecondsBuckets)
	if ins.tlog = f.Telemetry.TraceLog(); ins.tlog != nil {
		ins.tlog.ProcessName(0, "fleet")
	}
	return ins
}

// Run executes every point and returns results indexed and ordered exactly
// like points. It never aborts early: a failing point is captured in its
// slot and the rest of the fleet keeps going.
func (f Fleet) Run(points []Point) []PointResult {
	return f.RunContext(context.Background(), points)
}

// RunContext is Run with cooperative cancellation: in-flight points stop at
// their next cycle boundary, unclaimed points are marked with ctx.Err()
// without running, and the full spec-order slice still comes back.
func (f Fleet) RunContext(ctx context.Context, points []Point) []PointResult {
	results := make([]PointResult, len(points))
	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	ins := f.instruments()
	start := time.Now()
	var mu sync.Mutex // serializes Progress calls
	done := 0
	finish := func(i, worker int, claimed time.Time, pr PointResult) {
		wall := time.Since(claimed)
		ins.points.Inc()
		if pr.Err != nil {
			ins.errors.Inc()
		}
		ins.queueWait.Observe(claimed.Sub(start).Seconds())
		ins.pointSecs.Observe(wall.Seconds())
		if ins.tlog != nil {
			ins.tlog.Complete("fleet", pr.Point.String(), 0, worker+1,
				float64(claimed.Sub(start).Nanoseconds()), float64(wall.Nanoseconds()),
				map[string]any{"index": i, "err": pr.Err != nil})
		}
		results[i] = pr
		if f.Progress != nil {
			mu.Lock()
			done++
			f.Progress(done, len(points), pr)
			mu.Unlock()
		}
	}
	run := func(worker int, i int) {
		if err := ctx.Err(); err != nil {
			// Cancelled before the point started: record the reason, skip
			// the run.
			results[i] = PointResult{Index: i, Point: points[i], Err: err}
			return
		}
		claimed := time.Now()
		finish(i, worker, claimed, runPoint(ctx, i, points[i], f.Telemetry))
	}
	if workers <= 1 {
		for i := range points {
			run(0, i)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				run(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return results
}

// runPoint executes one point (RunContext turns an engine panic into the
// point's error, so one bad point cannot take the fleet down). The fleet's
// telemetry flows into the point unless the point carries its own.
func runPoint(ctx context.Context, i int, pt Point, tel *obs.Telemetry) PointResult {
	if pt.Params.Telemetry == nil {
		pt.Params.Telemetry = tel
	}
	r, err := RunContext(ctx, pt.Engine, pt.Params)
	return PointResult{Index: i, Point: pt, Result: r, Err: err}
}

// FirstErr returns the first captured error in spec order, or nil. Sweeps
// that must be all-or-nothing (figure regeneration) gate on it; partial
// consumers iterate instead.
func FirstErr(results []PointResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Point, r.Err)
		}
	}
	return nil
}
