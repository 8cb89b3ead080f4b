package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fm"
	"repro/internal/hostlink"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workload"
)

// policyCase is one scheduling policy of the coupled core.
type policyCase struct {
	name  string
	cores int                        // 0: a single Sim; n: an n-core Multicore
	new   func(Config) (*Sim, error) // the single-Sim constructor
}

var policies = []policyCase{
	{"inline", 0, New},
	{"producer", 0, NewParallel},
	{"roundrobin1", 1, nil},
	{"roundrobin4", 4, nil},
}

// single reports whether the policy runs a one-core target — the policies
// whose architectural results must agree with one another.
func (p policyCase) single() bool { return p.cores <= 1 }

// outcome is one run under any policy: the whole-target result (the
// aggregate for a container, with its per-core and directory views) and
// core 0's functional model.
type outcome struct {
	Result
	fm *fm.Model
}

func (p policyCase) run(t testing.TB, ctx context.Context, cfg Config, prog *isa.Program) (outcome, error) {
	t.Helper()
	if p.cores == 0 {
		s, err := p.new(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.LoadProgram(prog)
		r, err := s.RunContext(ctx)
		return outcome{Result: r, fm: s.FM}, err
	}
	m, err := NewMulticore(cfg, MulticoreConfig{Cores: p.cores})
	if err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(prog)
	r, err := m.RunContext(ctx)
	return outcome{Result: r, fm: m.Cores()[0].FM}, err
}

// cancelAfter is a context whose Err turns context.Canceled on its n-th
// poll. The run loop polls every ctxCheckInterval iterations, so the
// cancellation lands mid-run at a deterministic cycle.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// producerRunning reports whether any goroutine is inside Sim.produce.
func producerRunning() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*Sim).produce")
}

// bootCap bounds the toyOS boot rows: past the console banner (~100k
// instructions in), so mispredicts, device I/O and re-steers all occur.
const bootCap = 120_000

// TestPolicyMatrix runs every scheduling policy of the one coupled core
// over both rollback engines with superblocks on and off, on a bare-metal
// program run to completion and on a capped toyOS boot. Per row it checks
// that the single-core policies agree architecturally ("agree"), that the
// instruction cap stops the run ("cap"), and that a context cancelled
// mid-run returns context.Canceled with a partial result and no producer
// goroutine left behind ("cancel").
func TestPolicyMatrix(t *testing.T) {
	bare := isa.MustAssemble(testProgram, 0x1000)
	bareCfg := func() Config {
		cfg := DefaultConfig()
		cfg.FM.DisableInterrupts = true
		return cfg
	}
	bootCfg := func(cores int) (Config, *isa.Program, func() string) {
		if cores < 1 {
			cores = 1
		}
		spec, ok := workload.Lookup("Linux-2.4", cores)
		if !ok {
			t.Fatal("Linux-2.4 spec missing")
		}
		boot, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.FM.Devices = boot.Devices()
		// The cap is a whole-target budget, and parked secondaries spend it
		// too.
		cfg.MaxInstructions = bootCap * uint64(cores)
		return cfg, boot.Kernel, func() string { return string(boot.Console.Output()) }
	}

	// The reference every row is held to: the inline policy, journal
	// rollback, superblocks on, run to completion.
	ref, err := policies[0].run(t, context.Background(), bareCfg(), bare)
	if err != nil {
		t.Fatal(err)
	}

	for _, pol := range policies {
		for _, rollback := range []string{"journal", "checkpoint"} {
			for _, blocks := range []string{"superblocks", "nosuperblocks"} {
				variant := func(cfg Config) Config {
					if rollback == "checkpoint" {
						cfg.FM.CheckpointInterval = 32
					}
					if blocks == "nosuperblocks" {
						cfg.FM.SuperblockLen = 0
					}
					return cfg
				}
				row := pol.name + "/" + rollback + "/" + blocks

				t.Run("testProgram/"+row+"/agree", func(t *testing.T) {
					got, err := pol.run(t, context.Background(), variant(bareCfg()), bare)
					if err != nil {
						t.Fatal(err)
					}
					checkAgreement(t, pol, ref, got)
				})
				t.Run("testProgram/"+row+"/cap", func(t *testing.T) {
					cfg := bareCfg()
					cfg.MaxInstructions = 100
					got, err := pol.run(t, context.Background(), variant(cfg), bare)
					if err != nil {
						t.Fatal(err)
					}
					if got.Instructions < 100 || got.Instructions > 150 {
						t.Errorf("stopped at %d instructions, want ~100", got.Instructions)
					}
				})
				t.Run("testProgram/"+row+"/cancel", func(t *testing.T) {
					full := ref.Instructions
					if !pol.single() {
						full *= uint64(pol.cores)
					}
					checkCancel(t, pol, variant(bareCfg()), bare, full)
				})

				t.Run("boot/"+row+"/cap", func(t *testing.T) {
					cfg, prog, console := bootCfg(pol.cores)
					got, err := pol.run(t, context.Background(), variant(cfg), prog)
					if err != nil {
						t.Fatal(err)
					}
					// The cap is checked at cycle boundaries (and a quantum
					// boundary drains the pipeline), so a run overshoots by
					// at most what was in flight.
					if max := cfg.MaxInstructions; got.Instructions < max || got.Instructions > max*105/100 {
						t.Errorf("stopped at %d instructions, want ~%d", got.Instructions, max)
					}
					if out := console(); !strings.Contains(out, "toyOS 2.4 booting") {
						t.Errorf("boot banner missing: %q", out)
					}
					if got.Mispredicts == 0 {
						t.Error("boot ran without a single mispredict — implausible")
					}
					if got.Rollbacks < 2*got.Mispredicts {
						t.Errorf("rollbacks %d < 2×mispredicts %d: wrong-path excursions missing",
							got.Rollbacks, got.Mispredicts)
					}
				})
				t.Run("boot/"+row+"/cancel", func(t *testing.T) {
					cfg, prog, _ := bootCfg(pol.cores)
					checkCancel(t, pol, variant(cfg), prog, cfg.MaxInstructions)
				})
			}
		}
	}
}

// checkAgreement holds one completed testProgram run to the inline
// reference.
func checkAgreement(t *testing.T, pol policyCase, ref, got outcome) {
	t.Helper()
	if !pol.single() {
		// Every core runs the same register-driven control flow over the
		// shared memory: N times the work, every core contributing.
		if want := ref.Instructions * uint64(pol.cores); got.Instructions != want {
			t.Errorf("committed %d instructions, want %d×%d", got.Instructions, pol.cores, ref.Instructions)
		}
		for i, cr := range got.PerCore {
			if cr.Instructions != ref.Instructions {
				t.Errorf("core %d committed %d instructions, want %d", i, cr.Instructions, ref.Instructions)
			}
		}
		return
	}
	if got.Instructions != ref.Instructions {
		t.Errorf("committed %d instructions, inline reference %d", got.Instructions, ref.Instructions)
	}
	if got.TM.Instructions != ref.TM.Instructions || got.TM.UOps != ref.TM.UOps {
		t.Errorf("TM retired %d inst / %d µops, inline reference %d / %d",
			got.TM.Instructions, got.TM.UOps, ref.TM.Instructions, ref.TM.UOps)
	}
	if got.TM.BasicBlocks != ref.TM.BasicBlocks {
		t.Errorf("committed %d basic blocks, inline reference %d", got.TM.BasicBlocks, ref.TM.BasicBlocks)
	}
	if got.fm.Scalars != ref.fm.Scalars {
		t.Errorf("final architectural state diverged from the inline reference:\n%+v\n%+v",
			got.fm.Scalars, ref.fm.Scalars)
	}
	switch pol.name {
	case "inline":
		// Rollback engine and superblocks are host-side choices: the
		// modeled timing may not move.
		if got.TargetCycles != ref.TargetCycles {
			t.Errorf("%d target cycles, inline reference %d", got.TargetCycles, ref.TargetCycles)
		}
	case "producer":
		// Predictor state depends on the predict/update interleaving, which
		// shifts with fetch-bubble timing; allow a small tolerance.
		if d := got.BPAccuracy - ref.BPAccuracy; d < -0.01 || d > 0.01 {
			t.Errorf("BP accuracy differs: %.4f vs %.4f", got.BPAccuracy, ref.BPAccuracy)
		}
		// Timing may differ (real scheduling vs modeled rate), but not wildly.
		lo, hi := ref.TargetCycles*3/4, ref.TargetCycles*3/2
		if got.TargetCycles < lo || got.TargetCycles > hi {
			t.Errorf("producer cycles %d outside [%d,%d] of inline %d",
				got.TargetCycles, lo, hi, ref.TargetCycles)
		}
	case "roundrobin1":
		// A 1-core container is not a single core: the shared hierarchy
		// adds interconnect latency, so cycles differ — but nothing is
		// shared, so the directory stays silent.
		if got.Coherence.Invalidations != 0 || got.Coherence.Transfers != 0 {
			t.Errorf("coherence events on a single core: %+v", got.Coherence)
		}
	}
}

// checkCancel cancels a run at its second context poll and requires
// context.Canceled, a partial result, and — under the producer policy — an
// FM goroutine that has exited by the time RunContext returns.
func checkCancel(t *testing.T, pol policyCase, cfg Config, prog *isa.Program, full uint64) {
	t.Helper()
	ctx := &cancelAfter{Context: context.Background(), polls: 1}
	got, err := pol.run(t, ctx, cfg, prog)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got.Instructions == 0 || got.Instructions >= full {
		t.Errorf("cancelled run committed %d instructions, want a partial result inside (0, %d)",
			got.Instructions, full)
	}
	if got.TargetCycles < ctxCheckInterval {
		t.Errorf("cancelled after %d cycles: before the first poll", got.TargetCycles)
	}
	if producerRunning() {
		t.Error("producer goroutine still running after RunContext returned")
	}
}

// TestApplyChargesResteer drives the single apply by hand on a stepped FM
// under both single-Sim constructors and checks the exact FM-side charge of
// each re-steer — the extra poll read, the undo work, and (the part the
// producer policy used to drop, with the timeline instant) the checkpoint
// engine's re-execution at full FM speed. Deterministic where an end-to-end
// producer run is not.
func TestApplyChargesResteer(t *testing.T) {
	prog := isa.MustAssemble(testProgram, 0x1000)
	for _, pol := range policies[:2] {
		for _, bpp := range []bool{false, true} {
			name := pol.name
			if bpp {
				name += "/bpp"
			}
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.FM.DisableInterrupts = true
				cfg.FM.CheckpointInterval = 32
				cfg.BPP = bpp
				cfg.Telemetry = obs.NewWithTrace()
				s, err := pol.new(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.LoadProgram(prog)
				var pcs []isa.Word
				for i := 0; i < 100; i++ {
					e, ok := s.FM.Step()
					if !ok {
						t.Fatalf("FM stopped at instruction %d", i)
					}
					pcs = append(pcs, e.PC)
					if !s.app.TryAppend(e) {
						t.Fatalf("append %d refused", i)
					}
				}
				s.app.Flush()
				poll := hostlink.New(cfg.Link).Poll(1)

				// want tracks the FM-side time apply must have charged so
				// far, accumulated in apply's own order so the comparison is
				// exact.
				var want float64
				resteer := func(c command, pays bool) {
					t.Helper()
					rolled, reExec := s.FM.RolledBack, s.FM.ReExecuted()
					s.apply(c)
					rolled, reExec = s.FM.RolledBack-rolled, s.FM.ReExecuted()-reExec
					if rolled == 0 || reExec == 0 {
						t.Fatalf("%v rolled back %d and re-executed %d instructions, want both > 0",
							c.kind, rolled, reExec)
					}
					if pays {
						want += poll
						want += float64(rolled) * FMRollbackNanosPerInst
						want += float64(reExec) * FMNanosPerInst
					}
					if s.fmNanos != want {
						t.Errorf("after %v: FM side charged %v ns, want %v (rolled %d, re-executed %d)",
							c.kind, s.fmNanos, want, rolled, reExec)
					}
				}

				// Mid-interval, so the checkpoint engine must replay. The
				// BPP anticipates a mispredict: no read, no undo charge.
				resteer(command{kind: cmdMispredict, in: 81, pc: pcs[40]}, !bpp)
				if !s.wrongPath {
					t.Error("mispredict did not enter the wrong path")
				}
				for i := 0; i < 10; i++ {
					e, _ := s.FM.Step()
					s.app.TryAppend(e)
				}
				// A resolve always pays, BPP or not.
				resteer(command{kind: cmdResolve, in: 81, pc: pcs[81]}, true)
				if s.wrongPath {
					t.Error("resolve did not return to the right path")
				}
				var instants []string
				for _, ev := range cfg.Telemetry.TraceLog().Events() {
					if ev.Cat == "resteer" {
						instants = append(instants, ev.Name)
					}
				}
				if len(instants) != 2 || instants[0] != "mispredict" || instants[1] != "resolve" {
					t.Errorf("timeline resteer instants = %v, want [mispredict resolve]", instants)
				}
				if s.FM.IN() != 81 || s.app.NextIN() != 81 {
					t.Errorf("after resolve FM at IN %d, appender at %d, want 81", s.FM.IN(), s.app.NextIN())
				}
			})
		}
	}
}
