package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fm"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/trace"
)

// The ladder takes one program through each layer alone, from outside: the
// FM down the right path, the recorded right-path trace through a trace
// buffer, and through the TM. What the coupled run costs beyond what these
// account for is the coupling driver's (and the undo journal's) self time.
// This is the paper's §4.5 exercise (137 → 45.8 → 11.5 → 4.6 MIPS as layers
// switch on) for this host.

// ladderSums are one or more points' layer measurements as raw sums: every
// pass adds to them, so a workload of several programs adds up before
// anything is divided.
type ladderSums struct {
	BuildNS float64 // Spec.Build()

	Inst     uint64 // right-path instructions of the FM-alone pass
	FMNS     float64
	FMAllocB uint64
	ICHits, ICProbes,
	SBHits, SBProbes uint64

	DrillInst               uint64 // instructions under the commit drills
	Commit64NS, Commit512NS float64
	RollbackNS              float64
	RollbackUndone          uint64

	TraceEntries uint64
	TraceNS      float64
	RewindNS     float64
	Rewinds      uint64

	TMCycles uint64
	TMNS     float64
	TMAllocB uint64
}

// newFM builds a stand-alone functional model over the point's boot image,
// configured as the engine configures its own.
func newFM(p sim.Params) (*fm.Model, time.Duration, error) {
	t0 := time.Now()
	boot, err := buildImage(p)
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t0)
	m := fm.New(fm.Config{Devices: boot.Devices(), ICacheEntries: p.ICacheEntries, SuperblockLen: p.SuperblockLen})
	m.LoadProgram(boot.Kernel)
	return m, build, nil
}

// driveFM runs the model down the right path until it has produced limit
// instructions or the target ends, as the coupled pump does with budget to
// spare: a superblock at a time, idle ticks one by one while halted. sink
// sees every entry; afterBlock runs between blocks.
func driveFM(m *fm.Model, limit uint64, sink func(trace.Entry), afterBlock func()) {
	gate := func(e trace.Entry) bool {
		sink(e)
		return e.IN+1 < limit
	}
	for m.IN() < limit {
		if m.Halted() {
			if m.Fatal() != nil || m.Flags&isa.FlagI == 0 {
				return
			}
			m.AdvanceIdle(1)
			continue
		}
		if m.StepBlock(gate) == 0 {
			return
		}
		afterBlock()
	}
}

// commitEvery returns an afterBlock hook that releases the journal every
// window instructions, the cadence a trace chunk gives the coupled run.
func commitEvery(m *fm.Model, window uint64) func() {
	last := uint64(0)
	return func() {
		if m.IN()-last >= window {
			m.Commit(m.IN() - 1)
			last = m.IN()
		}
	}
}

func discard(trace.Entry) {}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// fmExecPass is the FM-alone rung: the whole right path, commit every 64.
func fmExecPass(p sim.Params, limit uint64, s *ladderSums) error {
	m, build, err := newFM(p)
	if err != nil {
		return err
	}
	s.BuildNS += float64(build.Nanoseconds())
	runtime.GC()
	a0 := allocated()
	t0 := time.Now()
	driveFM(m, limit, discard, commitEvery(m, trace.DefaultChunk))
	s.FMNS += float64(time.Since(t0).Nanoseconds())
	s.FMAllocB += allocated() - a0
	if m.IN() != limit {
		return fmt.Errorf("%s: FM-alone pass ended at %d instructions, the coupled run committed %d", p.Workload, m.IN(), limit)
	}
	s.Inst += m.IN()
	hits, misses, _, _ := m.ICacheStats()
	s.ICHits, s.ICProbes = s.ICHits+hits, s.ICProbes+hits+misses
	hits, misses, _, _ = m.SuperblockStats()
	s.SBHits, s.SBProbes = s.SBHits+hits, s.SBProbes+hits+misses
	return nil
}

// recordTrace returns the right-path trace of the point. The predecode
// cache is off for this pass: cached entries share their µop slices with
// the cache slot, which a later refill would rewrite under the recording.
func recordTrace(p sim.Params, limit uint64) ([]trace.Entry, error) {
	p.ICacheEntries, p.SuperblockLen = 0, 0
	m, _, err := newFM(p)
	if err != nil {
		return nil, err
	}
	entries := make([]trace.Entry, 0, limit)
	driveFM(m, limit, func(e trace.Entry) { entries = append(entries, e) }, commitEvery(m, trace.DefaultChunk))
	if uint64(len(entries)) != limit {
		return nil, fmt.Errorf("%s: recorded %d entries, want %d", p.Workload, len(entries), limit)
	}
	return entries, nil
}

// commitDrill times the calls into Commit alone, issued per instruction as
// the TM's ROB issues them, with the commit frontier lagging window
// instructions behind the FM (64 is a chunk, 512 a full trace buffer), and
// adds the time to ns.
func commitDrill(p sim.Params, limit, window uint64, ns *float64) error {
	m, _, err := newFM(p)
	if err != nil {
		return err
	}
	next := uint64(0)
	driveFM(m, limit, discard, func() {
		if next+window >= m.IN() {
			return
		}
		t0 := time.Now()
		for ; next+window < m.IN(); next++ {
			m.Commit(next)
		}
		*ns += float64(time.Since(t0).Nanoseconds())
	})
	return nil
}

// rollbackDrill runs depth instructions ahead at seeded points and times
// SetPC back to where it started, the re-steer the TM issues on a
// misprediction. The model then re-executes the same instructions, so the
// pass stays on the right path.
func rollbackDrill(p sim.Params, limit, depth uint64, seed uint64, s *ladderSums) error {
	m, _, err := newFM(p)
	if err != nil {
		return err
	}
	commit := commitEvery(m, trace.DefaultChunk)
	stride := 4*depth + 16
	nextDrill := stride
	var failure error
	driveFM(m, limit, discard, func() {
		commit()
		if m.IN() < nextDrill || m.Halted() || m.IN()+depth >= limit {
			return
		}
		seed = splitmix(seed)
		nextDrill = m.IN() + stride + seed%stride
		if m.IN() > 0 {
			m.Commit(m.IN() - 1)
		}
		in0, pc0 := m.IN(), m.PC
		stop := in0 + depth
		for m.IN() < stop && !m.Halted() {
			if m.StepBlock(func(e trace.Entry) bool { return e.IN+1 < stop }) == 0 {
				break
			}
		}
		undone := m.IN() - in0
		t0 := time.Now()
		err := m.SetPC(in0, pc0)
		s.RollbackNS += float64(time.Since(t0).Nanoseconds())
		s.RollbackUndone += undone
		if err != nil && failure == nil {
			failure = err
		}
	})
	return failure
}

// tracePass pushes the recorded trace through a trace buffer the way the
// coupling does: append and publish per chunk on the producer side, one
// chunk fetch and a commit on the consumer side.
func tracePass(entries []trace.Entry, depth int, s *ladderSums) {
	tb := trace.NewBuffer(512)
	app := tb.NewAppender(0)
	view := make([]trace.Entry, app.ChunkSize())
	fetched := uint64(0)
	t0 := time.Now()
	for i := range entries {
		if !app.TryAppend(entries[i]) {
			panic("bench: trace buffer full despite per-chunk commits")
		}
		if app.Pending() > 0 {
			continue
		}
		for {
			n := tb.TryFetchChunk(fetched, view)
			if n == 0 {
				break
			}
			fetched += uint64(n)
		}
		tb.Commit(fetched - 1)
	}
	s.TraceNS += float64(time.Since(t0).Nanoseconds())
	s.TraceEntries += uint64(len(entries))

	// Rewind at the drill depth: publish depth wrong-path entries, then
	// discard them as a re-steer does.
	app.Flush()
	if depth > tb.Cap()/2 {
		depth = tb.Cap() / 2
	}
	const rewinds = 1000
	for r := 0; r < rewinds && len(entries) > 0; r++ {
		base := app.NextIN()
		for k := 0; k < depth; k++ {
			e := entries[(r*depth+k)%len(entries)]
			e.IN = base + uint64(k)
			app.TryAppend(e)
		}
		app.Flush()
		t0 := time.Now()
		app.Rewind(base)
		s.RewindNS += float64(time.Since(t0).Nanoseconds())
		s.Rewinds++
	}
}

// tmPass replays the recorded right-path trace through the timing model
// alone.
func tmPass(p sim.Params, entries []trace.Entry, s *ladderSums) error {
	cfg := tm.DefaultConfig()
	if p.IssueWidth > 0 {
		cfg = cfg.WithIssueWidth(p.IssueWidth)
	}
	if p.Predictor != "" {
		cfg.Predictor = p.Predictor
	}
	model, err := tm.New(cfg, &tm.SliceSource{Entries: entries}, tm.NopControl{})
	if err != nil {
		return err
	}
	runtime.GC()
	a0 := allocated()
	t0 := time.Now()
	for !model.Done() {
		model.Step()
	}
	s.TMNS += float64(time.Since(t0).Nanoseconds())
	s.TMAllocB += allocated() - a0
	s.TMCycles += model.Cycle()
	return nil
}

// ladderPoint takes one point through every rung and adds what it measures
// to s. res is the coupled run the rungs are compared against: its
// committed-instruction count bounds the passes and its rollback statistics
// set the drill depth.
func ladderPoint(p sim.Params, res sim.Result, sz sizes, seed uint64, s *ladderSums) error {
	p.Cores = 0
	limit := res.Instructions
	if err := fmExecPass(p, limit, s); err != nil {
		return err
	}
	drill := min(limit, sz.DrillInst)
	s.DrillInst += drill
	if err := commitDrill(p, drill, 64, &s.Commit64NS); err != nil {
		return err
	}
	if err := commitDrill(p, drill, 512, &s.Commit512NS); err != nil {
		return err
	}
	depth := uint64(1)
	if res.Rollbacks > 0 && res.WrongPath/res.Rollbacks > 1 {
		depth = res.WrongPath / res.Rollbacks
	}
	if err := rollbackDrill(p, drill, depth, seed, s); err != nil {
		return err
	}
	entries, err := recordTrace(p, limit)
	if err != nil {
		return err
	}
	tracePass(entries, int(depth), s)
	return tmPass(p, entries, s)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// coupledStats are the simulated statistics of the coupled runs the ladder
// explains: digest-locked, so they explain and never move.
type coupledStats struct {
	Inst, WrongPath, Rollbacks, Cycles, UOps, LinkWrites uint64
	MaxOccupancy                                         int
	BPAccuracy, DL1Hits                                  float64 // instruction-weighted
	SerialNS                                             float64 // median core.run span
}

func (c *coupledStats) add(pr pointRun) {
	r := pr.Result
	w := float64(r.Instructions)
	c.BPAccuracy = ratio(c.BPAccuracy*float64(c.Inst)+r.BPAccuracy*w, float64(c.Inst)+w)
	c.DL1Hits = ratio(c.DL1Hits*float64(c.Inst)+pr.DL1Hits*w, float64(c.Inst)+w)
	c.Inst += r.Instructions
	c.WrongPath += r.WrongPath
	c.Rollbacks += r.Rollbacks
	c.Cycles += r.TargetCycles
	c.UOps += r.TM.UOps
	c.LinkWrites += r.LinkStats.Writes
	if r.TBMaxOccupancy > c.MaxOccupancy {
		c.MaxOccupancy = r.TBMaxOccupancy
	}
}

// ladderMetrics turns the sums into the per-layer metrics. The coupling
// rung is what is left of the serial run once the FM (right and wrong
// path) and the TM have been paid at their stand-alone rates, so
// fm + tm + coupling_self = serial by construction.
func ladderMetrics(s ladderSums, c coupledStats) map[string]float64 {
	inst := float64(s.Inst)
	fmExec := ratio(s.FMNS, inst)
	tmStep := ratio(s.TMNS, float64(s.TMCycles))
	wrongPerInst := ratio(float64(c.WrongPath), float64(c.Inst))
	cyclesPerInst := ratio(float64(c.Cycles), float64(c.Inst))
	serial := ratio(c.SerialNS, float64(c.Inst))
	return map[string]float64{
		"workload.build_ms":              s.BuildNS / 1e6,
		"fm.exec_ns_per_inst":            fmExec,
		"fm.alloc_b_per_inst":            ratio(float64(s.FMAllocB), inst),
		"fm.commit_ns_per_inst_w64":      ratio(s.Commit64NS, float64(s.DrillInst)),
		"fm.commit_ns_per_inst_w512":     ratio(s.Commit512NS, float64(s.DrillInst)),
		"fm.rollback_ns_per_undone_inst": ratio(s.RollbackNS, float64(s.RollbackUndone)),
		"fm.icache_hit_ratio":            ratio(float64(s.ICHits), float64(s.ICProbes)),
		"fm.superblock_hit_ratio":        ratio(float64(s.SBHits), float64(s.SBProbes)),
		"fm.wrong_path_per_inst":         wrongPerInst,
		"fm.rollbacks_per_kinst":         1e3 * ratio(float64(c.Rollbacks), float64(c.Inst)),
		"trace.chunk_ns_per_entry":       ratio(s.TraceNS, float64(s.TraceEntries)),
		"trace.rewind_ns":                ratio(s.RewindNS, float64(s.Rewinds)),
		"trace.max_occupancy":            float64(c.MaxOccupancy),
		"tm.step_ns_per_cycle":           tmStep,
		"tm.alloc_b_per_inst":            ratio(float64(s.TMAllocB), inst),
		"tm.cycles_per_inst":             cyclesPerInst,
		"tm.uops_per_inst":               ratio(float64(c.UOps), float64(c.Inst)),
		"hostlink.writes_per_kinst":      1e3 * ratio(float64(c.LinkWrites), float64(c.Inst)),
		"cache.dl1_hit_ratio":            c.DL1Hits,
		"bpred.accuracy":                 c.BPAccuracy,
		"core.serial_ns_per_inst":        serial,
		"core.coupling_self_ns_per_inst": serial - fmExec*(1+wrongPerInst) - tmStep*cyclesPerInst,
	}
}

// sideRuns takes every point through another coupling driver, capped, and
// returns host ns per committed instruction over all of them.
func sideRuns(engine string, points []simPoint, cores int, sz sizes) (float64, error) {
	var ns, inst float64
	for _, pt := range points {
		p := sz.point(pt).Params
		p.Cores = cores
		if p.MaxInstructions == 0 || p.MaxInstructions > sz.SideInst {
			p.MaxInstructions = sz.SideInst
		}
		pr, err := runPoint(engine, p, nil, "", 0)
		if err != nil {
			return 0, err
		}
		ns += float64(pr.Run.Nanoseconds())
		inst += float64(pr.Result.Instructions)
	}
	if inst == 0 {
		return 0, fmt.Errorf("%s committed no instructions", engine)
	}
	return ns / inst, nil
}

// tracedSim is the traced run of a simulator workload (and, for the job
// mix, of the program its jobs run). Repetitions cycle through three
// flavours — spans recorded, plain, and with a live obs registry attached —
// so that the tracing and telemetry overheads compare neighbours in time;
// then come the ladder and the other coupling drivers.
func tracedSim(w workloadDef, sz sizes, want map[string]string, budget time.Duration, seed uint64, rec *spanRecorder) (map[string]float64, int, int, error) {
	if err := setupSim(w, sz); err != nil {
		return nil, 0, 0, err
	}
	withTel := w
	withTel.Points = nil
	for _, pt := range w.Points {
		pt.Params.Telemetry = obs.New()
		withTel.Points = append(withTel.Points, pt)
	}
	var wall [3][]float64 // traced, plain, telemetry: repetition wall, seconds
	var runWall []float64 // Engine.Run share of the traced and plain ones
	var last repetition
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; ; i++ {
		flavour := i % 3
		var rep repetition
		switch flavour {
		case 0:
			rep = runRepetition(w, sz, want, rec, i)
		case 1:
			rep = runRepetition(w, sz, want, nil, i)
		case 2:
			rep = runRepetition(withTel, sz, want, nil, i)
		}
		attempted++
		if rep.Failure != "" {
			failed++
			fmt.Fprintf(logw, "repetition %d failed: %s\n", i, rep.Failure)
		} else {
			wall[flavour] = append(wall[flavour], rep.Wall.Seconds())
			if flavour != 2 {
				last = rep
				runWall = append(runWall, rep.RunWall.Seconds())
			}
		}
		if flavour == 2 && time.Since(start)+3*rep.Wall >= budget/2 {
			break
		}
	}
	for _, xs := range wall {
		if len(xs) == 0 {
			return nil, attempted, failed, fmt.Errorf("no repetition of %s passed its digest check", w.Name)
		}
	}

	multicore := w.Points[0].Params.Cores > 1
	var sums ladderSums
	var cs coupledStats
	for i, pt := range w.Points {
		pt = sz.point(pt)
		pr := last.Runs[i]
		if multicore {
			// The stand-alone rungs need one FM and one TM: take the
			// ladder over the same program built for one core.
			p := pt.Params
			p.Cores = 0
			if p.MaxInstructions == 0 || p.MaxInstructions > sz.SideInst {
				p.MaxInstructions = sz.SideInst
			}
			var err error
			if pr, err = runPoint("fast", p, rec, w.Name+"/serial", 0); err != nil {
				return nil, attempted, failed, err
			}
			cs.SerialNS += float64(pr.Run.Nanoseconds())
		}
		cs.add(pr)
		if err := ladderPoint(pt.Params, pr.Result, sz, seed+uint64(i), &sums); err != nil {
			return nil, attempted, failed, err
		}
	}
	if !multicore {
		cs.SerialNS = median(runWall) * 1e9
	}
	m := ladderMetrics(sums, cs)
	m["bench.trace_overhead_pct"] = 100 * (median(wall[0])/median(wall[1]) - 1)
	m["obs.telemetry_overhead_pct"] = 100 * (median(wall[2])/median(wall[1]) - 1)

	var err error
	if multicore {
		m["core.multicore_ns_per_inst"] = ratio(median(runWall)*1e9, float64(last.Inst))
	} else if m["core.multicore_ns_per_inst"], err = sideRuns("fast", w.Points, 4, sz); err != nil {
		return nil, attempted, failed, err
	}
	if m["core.parallel_ns_per_inst"], err = sideRuns("fast-parallel", w.Points, 0, sz); err != nil {
		return nil, attempted, failed, err
	}
	return m, attempted, failed, nil
}

// splitmix is the SplitMix64 step: the benchmark's only source of seeded
// pseudo-randomness, so inputs are a pure function of (seed, index).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
