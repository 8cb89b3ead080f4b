package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// digestsJSON is the reference: per workload and point, the sha256 of the
// canonical json.Marshal(sim.Result) at the commit that last ran
// -update-digests. Host-speed work must leave every simulated statistic
// identical, so the allowed difference is zero and a mismatch is a failed
// operation.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// digestSet maps workload name → point label → hex sha256.
type digestSet map[string]map[string]string

func loadDigests() (digestSet, error) {
	var d digestSet
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("decode testdata/digests.json: %w", err)
	}
	return d, nil
}

func resultDigest(r sim.Result) (string, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// buildImage resolves and assembles a point's boot image exactly as the
// engine's own Configure does, through the workload layer's exported
// functions.
func buildImage(p sim.Params) (*workload.Boot, error) {
	cores := p.Cores
	if cores < 1 {
		cores = 1
	}
	spec, ok := workload.Lookup(p.Workload, cores)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.Workload)
	}
	if p.DiskLatency > 0 {
		spec.Kernel.DiskLatency = uint64(p.DiskLatency)
	}
	return spec.Build()
}

// pointRun is one timed simulator run.
type pointRun struct {
	Configure time.Duration // sim.New: image build + simulator assembly
	Run       time.Duration // Engine.Run
	Result    sim.Result
	DL1Hits   float64 // data-L1 hit ratio of the timing model (core 0)
}

// runPoint is the operation every simulator workload repeats: construct the
// engine from nothing and run it. rec (nil when untraced) receives the
// sim.configure and core.run spans under parent.
func runPoint(engine string, p sim.Params, rec *spanRecorder, trace string, parent int) (pointRun, error) {
	t0 := time.Now()
	e, err := sim.New(engine, p)
	if err != nil {
		return pointRun{}, err
	}
	t1 := time.Now()
	r, err := e.Run()
	t2 := time.Now()
	if err != nil {
		return pointRun{}, err
	}
	rec.add("sim.configure", trace, parent, t0, t1)
	rec.add("core.run", trace, parent, t1, t2)
	pr := pointRun{Configure: t1.Sub(t0), Run: t2.Sub(t1), Result: r}
	if c, ok := e.(sim.Coupled); ok {
		pr.DL1Hits = c.TimingModel().DL1.Stats().HitRate()
	}
	return pr, nil
}

// repetition is one pass over a workload's points.
type repetition struct {
	Wall       time.Duration // sum of sim.New+Run over the points
	RunWall    time.Duration // the Engine.Run share of Wall
	HostSpeed  float64       // of the host while it ran (hostClock.lap); the caller's
	AllocBytes uint64
	Inst       uint64
	Runs       []pointRun
	Failure    string // non-empty: the repetition counts as a failed op
}

// runRepetition runs every point once and checks each result against want
// (nil skips the check, for -update-digests).
func runRepetition(w workloadDef, sz sizes, want map[string]string, rec *spanRecorder, id int) repetition {
	var rep repetition
	trace := fmt.Sprintf("%s/rep%d", w.Name, id)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := rec.open("bench.repetition", trace, 0, time.Now())
	for _, pt := range w.Points {
		pt = sz.point(pt)
		pr, err := runPoint("fast", pt.Params, rec, trace, root)
		if err != nil {
			rep.Failure = fmt.Sprintf("%s: %v", pt.Label, err)
			return rep
		}
		rep.Wall += pr.Configure + pr.Run
		rep.RunWall += pr.Run
		rep.Inst += pr.Result.Instructions
		rep.Runs = append(rep.Runs, pr)
	}
	rec.close(root, time.Now())
	runtime.ReadMemStats(&m1)
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	if want == nil {
		return rep
	}
	for i, pt := range w.Points {
		got, err := resultDigest(rep.Runs[i].Result)
		if err != nil {
			rep.Failure = err.Error()
			return rep
		}
		if got != want[pt.Label] {
			rep.Failure = fmt.Sprintf("%s: result digest %.12s, reference %.12s", pt.Label, got, want[pt.Label])
			return rep
		}
	}
	return rep
}

// setupSim is what must happen before the first timed repetition of a
// simulator workload: every point's image is assembled once and a capped
// run through the boot faults in the engine's code paths.
func setupSim(w workloadDef, sz sizes) error {
	for _, pt := range w.Points {
		pt = sz.point(pt)
		if _, err := buildImage(pt.Params); err != nil {
			return err
		}
		p := pt.Params
		switch {
		case p.MaxInstructions == 0 || p.MaxInstructions > 2*sz.WarmupInst:
			p.MaxInstructions = sz.WarmupInst
		default:
			// A capped point warms up over its first half only (shell-fork's
			// cap sits just past seconds of string copies).
			p.MaxInstructions /= 2
		}
		if _, err := sim.Run("fast", p); err != nil {
			return err
		}
	}
	return nil
}

// timedSetups repeats set-up and returns each wall time in seconds at the
// reference host speed.
func timedSetups(n int, clock *hostClock, setup func() error) ([]float64, error) {
	var out []float64
	clock.mark()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		raw := time.Since(t0).Seconds()
		out = append(out, raw*clock.lap())
	}
	return out, nil
}

// simOutcome is the raw outcome of the repetitions of a simulator workload.
type simOutcome struct {
	SetupS []float64
	Reps   []repetition
}

// runSimWorkload repeats the workload until the run length is used up: a
// new repetition starts only while at least half of it is expected to fit.
// The host's speed is read between repetitions.
func runSimWorkload(w workloadDef, sz sizes, want map[string]string, budget time.Duration, rec *spanRecorder) (simOutcome, error) {
	var out simOutcome
	var err error
	clock := newHostClock(1)
	if out.SetupS, err = timedSetups(sz.SetupReps, clock, func() error { return setupSim(w, sz) }); err != nil {
		return out, err
	}
	start := time.Now()
	for i := 0; ; i++ {
		rep := runRepetition(w, sz, want, rec, i)
		rep.HostSpeed = clock.lap()
		out.Reps = append(out.Reps, rep)
		if len(out.Reps) >= sz.MinReps && time.Since(start)+rep.Wall/2 >= budget {
			break
		}
	}
	return out, nil
}

// simEndToEnd folds the repetitions into the end-to-end metrics. Wall times
// count at the reference host speed.
func simEndToEnd(out simOutcome) (m map[string]float64, attempted, failed int) {
	var wall, allocPerInst []float64
	var inst uint64
	for _, r := range out.Reps {
		attempted++
		if r.Failure != "" {
			failed++
			continue
		}
		inst = r.Inst
		wall = append(wall, r.Wall.Seconds()*r.HostSpeed)
		allocPerInst = append(allocPerInst, float64(r.AllocBytes)/float64(r.Inst))
	}
	m = map[string]float64{"setup_s": median(out.SetupS)}
	if len(wall) == 0 {
		return m, attempted, failed
	}
	med := median(wall)
	m["host_kips"] = float64(inst) / med / 1e3
	m["alloc_mb_per_minst"] = median(allocPerInst) // B/inst == MB/Minst
	m["points_per_s"] = 1 / med                    // at the median, so one stalled repetition does not set it
	return m, attempted, failed
}
