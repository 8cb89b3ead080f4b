package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fpga"
	"repro/internal/workload"
)

// TestRepFastForwardShellFork: the shell-fork point of the server_strings
// yardstick (capped at 8 300 instructions, inside its first fork round)
// spends 99 % of its 1.8 M target cycles inside giant REP string stores. The
// inline coupling jumps their steady state whole periods at a time
// (tm.TM.FastForward), and the run's Result — every modeled number, the
// FM's host-time budget arithmetic included — is byte-identical to stepping
// every cycle, while fewer than 5 % of the cycles are stepped one at a time.
func TestRepFastForwardShellFork(t *testing.T) {
	spec, ok := workload.ByName("shell-fork")
	if !ok {
		t.Fatal("shell-fork missing")
	}
	run := func(stepOnly bool) (*Sim, []byte) {
		boot, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.FM.Devices = boot.Devices()
		cfg.MaxInstructions = 8_300
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.LoadProgram(boot.Kernel)
		s.stepOnly = stepOnly
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return s, append(blob, boot.Console.Output()...)
	}
	fast, got := run(false)
	_, want := run(true)
	if !bytes.Equal(got, want) {
		t.Fatalf("fast-forwarded run differs from stepping\n got: %s\nwant: %s", got, want)
	}
	cycles := fast.TM.Stats.Cycles
	if fast.ticks*20 >= cycles {
		t.Errorf("stepped %d of %d target cycles one at a time, want under 5 %%", fast.ticks, cycles)
	}
	t.Logf("%d target cycles, %d stepped one at a time", cycles, fast.ticks)
}

// TestGrantSkipped: granting a skip's host time in one addition leaves the
// budget's bits and lastHost exactly where granting it one cycle at a time
// does, over integral and fractional budgets (some just below 2^53, where
// the sum no longer fits) and random charge vectors. An integral budget
// whose sum fits takes the one addition; a fractional one never does.
func TestGrantSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	budgets := []float64{0, 87, -174, 1<<53 - 1e6, 1<<53 - 100, 0.5, -3.25, 1e15 + 0.5}
	for range 100 {
		budgets = append(budgets, float64(rng.Int63n(2e9)-1e9), rng.Float64()*2e6-1e6)
	}
	for _, budget := range budgets {
		for range 10 {
			charges := make([]uint64, 1+rng.Intn(8))
			var sum uint64
			for i := range charges {
				charges[i] = uint64(rng.Intn(40))
				sum += charges[i]
			}
			periods := 1 + uint64(rng.Int63n(5000))
			lastHost, prev := uint64(rng.Int63n(1e9)), uint64(rng.Intn(40))
			host := lastHost + prev + periods*sum

			gotBudget, gotLast := grant(budget, lastHost, host, periods, charges)
			wantBudget, last := budget, prev
			for range periods {
				for _, c := range charges {
					wantBudget += fpga.Nanos(last)
					last = c
				}
			}
			if math.Float64bits(gotBudget) != math.Float64bits(wantBudget) || gotLast != host-last {
				t.Fatalf("budget %v, %d periods of %v: got (%v, %d), want (%v, %d)",
					budget, periods, charges, gotBudget, gotLast, wantBudget, host-last)
			}
			cycles := prev + periods*sum - charges[len(charges)-1]
			_, exact := addExact(budget, cycles)
			fits := budget == math.Trunc(budget) && budget+fpga.Nanos(cycles) < 1<<53
			if exact != fits {
				t.Fatalf("budget %v, %d periods of %v: one addition %v, want %v", budget, periods, charges, exact, fits)
			}
		}
	}
}
