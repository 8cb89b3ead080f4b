package core

import (
	"testing"

	"repro/internal/hostlink"
	"repro/internal/isa"
)

// testProgram is a self-terminating kernel-mode program with data-dependent
// branches (so real predictors mispredict) and some memory traffic.
const testProgram = `
	movi sp, 0x9000
	movi r0, 300       ; outer counter
	movi r4, 0x4000
	movi r5, 12345     ; LCG state
loop:
	; pseudo-random branch: taken ~half the time
	movi r6, 1103515245
	mul  r5, r6
	addi r5, 12345
	mov  r6, r5
	shri r6, 16
	andi r6, 1
	cmpi r6, 0
	jz   skip
	addi r1, 7
	stw  r1, [r4]
skip:
	ldw  r2, [r4]
	add  r3, r2
	dec  r0
	jnz  loop
	cli
	halt
`

func mustRun(t *testing.T, cfg Config, src string) Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(isa.MustAssemble(src, 0x1000))
	r, err := s.Run()
	if err != nil {
		t.Fatalf("run: %v (result %v)", err, r)
	}
	return r
}

func TestCoupledRunCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FM.DisableInterrupts = true
	r := mustRun(t, cfg, testProgram)
	if r.Instructions == 0 {
		t.Fatal("no instructions committed")
	}
	if r.Mispredicts == 0 {
		t.Error("random branches never mispredicted under gshare")
	}
	if r.Rollbacks < 2*r.Mispredicts {
		t.Errorf("rollbacks %d < 2×mispredicts %d: wrong-path excursions missing",
			r.Rollbacks, r.Mispredicts)
	}
	if r.WrongPath == 0 {
		t.Error("no wrong-path instructions were produced")
	}
	if r.TargetMIPS <= 0 {
		t.Errorf("MIPS = %v", r.TargetMIPS)
	}
	if r.IPC <= 0 || r.IPC > 2 {
		t.Errorf("IPC = %v", r.IPC)
	}
}

// TestCoupledMatchesUncoupledArchState: the wrong-path excursions driven by
// the TM must leave the committed instruction stream identical to a pure
// functional run.
func TestCoupledMatchesPureFunctionalRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FM.DisableInterrupts = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := isa.MustAssemble(testProgram, 0x1000)
	s.LoadProgram(prog)
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	ref, err2 := New(func() Config {
		c := DefaultConfig()
		c.FM.DisableInterrupts = true
		c.TM.Predictor = "perfect" // no re-steers at all
		return c
	}())
	if err2 != nil {
		t.Fatal(err2)
	}
	ref.LoadProgram(prog)
	rr, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != rr.Instructions {
		t.Errorf("committed %d vs %d instructions", r.Instructions, rr.Instructions)
	}
	if s.FM.Scalars != ref.FM.Scalars {
		t.Errorf("final architectural state diverged after wrong-path excursions:\n%+v\n%+v",
			s.FM.Scalars, ref.FM.Scalars)
	}
}

func TestPerfectBPFasterThanGshare(t *testing.T) {
	mk := func(pred string) Result {
		cfg := DefaultConfig()
		cfg.FM.DisableInterrupts = true
		cfg.TM.Predictor = pred
		return mustRun(t, cfg, testProgram)
	}
	perfect := mk("perfect")
	gshare := mk("gshare")
	if perfect.TargetCycles >= gshare.TargetCycles {
		t.Errorf("perfect (%d cycles) not faster than gshare (%d)",
			perfect.TargetCycles, gshare.TargetCycles)
	}
	if perfect.TargetMIPS <= gshare.TargetMIPS {
		t.Errorf("perfect MIPS %.2f not above gshare %.2f (Figure 4 ordering)",
			perfect.TargetMIPS, gshare.TargetMIPS)
	}
}

func TestCoherentHTReducesLinkTime(t *testing.T) {
	mk := func(link hostlink.Config) Result {
		cfg := DefaultConfig()
		cfg.FM.DisableInterrupts = true
		cfg.Link = link
		return mustRun(t, cfg, testProgram)
	}
	drc := mk(hostlink.DRC())
	coh := mk(hostlink.CoherentHT())
	// Compare per-produced-instruction link cost: total FM time also scales
	// with how far ahead the FM managed to run, which itself improves with
	// the cheaper link.
	per := func(r Result) float64 {
		return r.LinkStats.Nanos / float64(r.Instructions+r.WrongPath)
	}
	if per(coh) >= per(drc) {
		t.Errorf("coherent HT link cost %.1fns/inst not below DRC %.1fns/inst (§4.5 projection)",
			per(coh), per(drc))
	}
}

func TestPollingAblation(t *testing.T) {
	// A2/A6: polling every 2 basic blocks costs more FM time than polling
	// only on re-steers.
	mk := func(poll int) Result {
		cfg := DefaultConfig()
		cfg.FM.DisableInterrupts = true
		cfg.PollEveryBBs = poll
		return mustRun(t, cfg, testProgram)
	}
	everyBB := mk(1)
	prototype := mk(2)
	architected := mk(0)
	if architected.LinkStats.Reads >= prototype.LinkStats.Reads {
		t.Errorf("architected polling (%d reads) not below prototype (%d)",
			architected.LinkStats.Reads, prototype.LinkStats.Reads)
	}
	if prototype.LinkStats.Reads >= everyBB.LinkStats.Reads {
		t.Errorf("per-2-BB polling (%d reads) not below per-BB (%d)",
			prototype.LinkStats.Reads, everyBB.LinkStats.Reads)
	}
}

func TestBPPAblation(t *testing.T) {
	// A3: the branch-predictor-predictor removes mispredict rollback cost.
	mk := func(bpp bool) Result {
		cfg := DefaultConfig()
		cfg.FM.DisableInterrupts = true
		cfg.BPP = bpp
		return mustRun(t, cfg, testProgram)
	}
	off := mk(false)
	on := mk(true)
	if on.FMNanos >= off.FMNanos {
		t.Errorf("BPP FM time %.0f not below baseline %.0f", on.FMNanos, off.FMNanos)
	}
}

func TestFullSystemWithInterrupts(t *testing.T) {
	// A kernel that programs the timer, handles a few ticks, then shuts
	// down: exercises interrupt entries flowing through the coupled TM.
	src := `
		.org 0
		.space 256
		.org 0x400
	timer:
		inc  r10
		movi r9, 1
		out  r9, 0x22   ; ack
		cmpi r10, 3
		jge  shutdown
		iret
	shutdown:
		cli
		halt
		.org 0x1000
	entry:
		movi r8, timer
		movi r9, 64     ; IVT[16]
		stw  r8, [r9]
		movi r8, 400
		out  r8, 0x20   ; timer period
		sti
	idle:	addi r7, 1
		cmpi r7, 100000
		jl   idle
		cli
		halt
	.entry entry
	`
	cfg := DefaultConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(isa.MustAssemble(src, 0))
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.FM.GPR[10] != 3 {
		t.Errorf("timer handler ran %d times, want 3", s.FM.GPR[10])
	}
	if r.TM.Serializes == 0 {
		t.Error("interrupt redirects did not serialize the TM")
	}
}

func TestResultString(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FM.DisableInterrupts = true
	r := mustRun(t, cfg, testProgram)
	if r.String() == "" {
		t.Error("empty result string")
	}
}

// TestCheckpointEngineCoupled runs the coupled simulator with the paper's
// leapfrog-checkpoint rollback engine in the FM, under both single-Sim
// policies: architectural results must match the journal engine exactly, and
// the replay work must surface in the FM-side time — the single apply
// charges it wherever it runs.
func TestCheckpointEngineCoupled(t *testing.T) {
	prog := isa.MustAssemble(testProgram, 0x1000)
	for _, pol := range policies[:2] {
		t.Run(pol.name, func(t *testing.T) {
			mk := func(checkpoint bool) (*Sim, Result) {
				cfg := DefaultConfig()
				cfg.FM.DisableInterrupts = true
				if pol.name == "producer" {
					// How far the free-running FM gets down each wrong path
					// is up to the host scheduler; a short trace buffer
					// bounds that noise well below the replay cost.
					cfg.TBCapacity = 32
				}
				if checkpoint {
					cfg.FM.CheckpointInterval = 32
				}
				s, err := pol.new(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.LoadProgram(prog)
				r, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return s, r
			}
			js, jr := mk(false)
			cs, cr := mk(true)
			if jr.Instructions != cr.Instructions {
				t.Errorf("instructions differ: %d vs %d", jr.Instructions, cr.Instructions)
			}
			if js.FM.Scalars != cs.FM.Scalars {
				t.Error("final state differs between rollback engines")
			}
			if cs.FM.ReExecuted() == 0 {
				t.Error("checkpoint engine never replayed despite mispredicts")
			}
			// Everything else the FM side pays is the same under both
			// engines, so the gap is the replay charge (give or take the
			// producer's scheduling noise).
			replay := float64(cs.FM.ReExecuted()) * FMNanosPerInst
			if cr.FMNanos-jr.FMNanos < replay/2 {
				t.Errorf("checkpoint FM time %.0f ns vs journal %.0f ns: the %.0f ns of replay was not charged",
					cr.FMNanos, jr.FMNanos, replay)
			}
		})
	}
}

// TestTraceBufferCapacityBoundsRunAhead: a tiny trace buffer limits how far
// the FM can speculate ahead; a larger one increases peak occupancy and
// never hurts.
func TestTraceBufferCapacityBoundsRunAhead(t *testing.T) {
	mk := func(capacity int) Result {
		cfg := DefaultConfig()
		cfg.FM.DisableInterrupts = true
		cfg.TBCapacity = capacity
		return mustRun(t, cfg, testProgram)
	}
	small := mk(24)
	large := mk(1024)
	if small.TBMaxOccupancy > 24 {
		t.Errorf("occupancy %d exceeded capacity 24", small.TBMaxOccupancy)
	}
	if large.TBMaxOccupancy <= small.TBMaxOccupancy {
		t.Errorf("larger TB did not increase run-ahead: %d vs %d",
			large.TBMaxOccupancy, small.TBMaxOccupancy)
	}
	if small.Instructions != large.Instructions {
		t.Errorf("capacity changed architectural results: %d vs %d",
			small.Instructions, large.Instructions)
	}
}
