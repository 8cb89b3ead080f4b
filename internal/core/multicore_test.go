package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// smpBoot builds the SMP spinlock workload for n cores with a small
// iteration count so the run completes (no instruction cap needed).
func smpBoot(t *testing.T, n, iters int) *workload.Boot {
	t.Helper()
	k := workload.FastBoot()
	k.Cores = n
	k.SMPUser = true
	boot, err := workload.BuildBoot(k, workload.SMPProgram(iters, n, false))
	if err != nil {
		t.Fatal(err)
	}
	return boot
}

// runMulticore runs the SMP workload on n cores with the FM's checkpoint
// interval set to interval (0: a journal record per instruction).
func runMulticore(t *testing.T, n, iters, interval int) (Result, string) {
	t.Helper()
	boot := smpBoot(t, n, iters)
	cfg := DefaultConfig()
	cfg.FM.Devices = boot.Devices()
	cfg.FM.CheckpointInterval = interval
	m, err := NewMulticore(cfg, MulticoreConfig{Cores: n})
	if err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(boot.Kernel)
	r, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r, string(boot.Console.Output())
}

// TestMulticoreSMPLockNoLostUpdates boots the SMP workload on two cores:
// the ll/sc spinlock must serialize the shared-counter increments (core 0
// prints 'K' after verifying the reduction), and the directory must have
// seen cross-core sharing. With checkpoints spaced out, a rollback must not
// restore stores from before a quantum boundary, which the other core may
// have read or overwritten since.
func TestMulticoreSMPLockNoLostUpdates(t *testing.T) {
	for _, interval := range []int{0, 64} {
		t.Run(fmt.Sprintf("checkpoint-interval-%d", interval), func(t *testing.T) {
			r, out := runMulticore(t, 2, 150, interval)
			if !strings.Contains(out, "K") {
				t.Fatalf("core 0 did not verify the reduction: console %q", out)
			}
			if strings.Contains(out, "X") {
				t.Fatalf("lost update detected: console %q", out)
			}
			if len(r.PerCore) != 2 {
				t.Fatalf("got %d per-core results", len(r.PerCore))
			}
			for i, cr := range r.PerCore {
				if cr.Instructions == 0 {
					t.Errorf("core %d committed no instructions", i)
				}
			}
			if r.Coherence.Invalidations == 0 {
				t.Error("no directory invalidations despite write sharing")
			}
			if r.Coherence.Hops == 0 {
				t.Error("no interconnect hops charged")
			}
			if r.Instructions != r.PerCore[0].Instructions+r.PerCore[1].Instructions {
				t.Error("aggregate instructions are not the per-core sum")
			}
			if r.TargetCycles < r.PerCore[0].TargetCycles ||
				r.TargetCycles < r.PerCore[1].TargetCycles {
				t.Error("aggregate target cycles below a per-core value")
			}
		})
	}
}

// TestMulticoreDeterministic runs the same 2-core configuration twice and
// requires bit-identical results — the bounded-lag schedule may not depend
// on anything but the configuration.
func TestMulticoreDeterministic(t *testing.T) {
	a, outA := runMulticore(t, 2, 100, 0)
	b, outB := runMulticore(t, 2, 100, 0)
	if outA != outB {
		t.Errorf("console output diverged: %q vs %q", outA, outB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("results diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestMulticoreScalesCores checks the 4-core run completes and every core
// contributed; a coarse sanity check ahead of the fastbench sweep.
func TestMulticoreScalesCores(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	r, out := runMulticore(t, 4, 80, 0)
	if !strings.Contains(out, "K") {
		t.Fatalf("4-core reduction not verified: console %q", out)
	}
	for i, cr := range r.PerCore {
		if cr.Instructions == 0 {
			t.Errorf("core %d committed no instructions", i)
		}
	}
}
