package core

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestParallelFullSystemBoot runs the complete toyOS boot — BIOS, disk
// decompression, TLB-filled user mode, timer interrupts, syscalls — through
// the goroutine-parallel coupling, and checks it against the serial mode.
// This is the closest thing to the paper's headline demo: a full system
// booting on the parallel simulator. Run with -race in CI.
func TestParallelFullSystemBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	spec, ok := workload.ByName("Linux-2.4")
	if !ok {
		t.Fatal("spec missing")
	}

	run := func(newSim func(Config) (*Sim, error)) (Result, string) {
		boot, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.FM.Devices = boot.Devices()
		cfg.MaxInstructions = 420_000 // past user-mode entry (~270k) so TLB misses and timer IRQs occur
		sim, err := newSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.LoadProgram(boot.Kernel)
		r, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r, string(boot.Console.Output())
	}

	serial, serialOut := run(New)
	par, parOut := run(NewParallel)

	if !strings.Contains(serialOut, "toyOS 2.4 booting") {
		t.Errorf("serial boot banner missing: %q", serialOut)
	}
	if !strings.Contains(parOut, "toyOS 2.4 booting") {
		t.Errorf("parallel boot banner missing: %q", parOut)
	}
	if par.Instructions == 0 || serial.Instructions == 0 {
		t.Fatal("no instructions committed")
	}
	// Interrupt timing is FM-side and both modes drive it from the same
	// deterministic device clocks, but wrong-path run-ahead differs, so
	// interrupt delivery points can shift; instruction counts stay within
	// a small band around the cap.
	lo, hi := serial.Instructions*95/100, serial.Instructions*105/100
	if par.Instructions < lo || par.Instructions > hi {
		t.Errorf("parallel committed %d, serial %d", par.Instructions, serial.Instructions)
	}
	if par.TM.Serializes == 0 || serial.TM.Serializes == 0 {
		t.Error("no interrupt/exception serializations observed during boot")
	}
	if par.Mispredicts == 0 {
		t.Error("boot ran without a single mispredict — implausible")
	}
}
