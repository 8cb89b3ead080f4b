package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/snap"
	"repro/internal/workload"
)

// perlbmkCfg builds the serial configuration for the 253.perlbmk workload,
// whose periodic sleep system calls provide the quiescent boundaries the
// warm-start capture needs.
func perlbmkCfg(t testing.TB, maxInst uint64) (Config, *workload.Boot) {
	t.Helper()
	spec, ok := workload.ByName("253.perlbmk")
	if !ok {
		t.Fatal("253.perlbmk spec missing")
	}
	boot, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FM.Devices = boot.Devices()
	cfg.MaxInstructions = maxInst
	return cfg, boot
}

// TestWarmStartBitIdentical is the non-negotiable warm-start contract: a
// run resumed from a boot snapshot produces a Result byte-identical to the
// uninterrupted run, and arming the capture hook perturbs nothing.
func TestWarmStartBitIdentical(t *testing.T) {
	const maxInst = 260_000

	run := func(hook func(uint64, []byte)) Result {
		cfg, boot := perlbmkCfg(t, maxInst)
		cfg.SnapshotHook = hook
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.LoadProgram(boot.Kernel)
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	cold := run(nil)

	var blob []byte
	var snapIN uint64
	hooked := run(func(in uint64, b []byte) { snapIN, blob = in, b })
	if blob == nil {
		t.Fatal("snapshot hook never fired — no quiescent boundary after boot")
	}
	if snapIN == 0 || snapIN >= maxInst {
		t.Fatalf("snapshot at IN %d, want inside (0, %d)", snapIN, maxInst)
	}
	if !reflect.DeepEqual(cold, hooked) {
		t.Fatalf("arming the snapshot hook perturbed the run:\ncold   %+v\nhooked %+v", cold, hooked)
	}

	cfg, _ := perlbmkCfg(t, maxInst)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(blob); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm-start run diverged from the cold run:\ncold %+v\nwarm %+v", cold, warm)
	}
	if warm.Instructions != cold.Instructions {
		t.Fatalf("warm committed %d, cold %d", warm.Instructions, cold.Instructions)
	}
}

// TestWarmStartSkipsBoot verifies the point of the exercise: the snapshot
// lands at or after user-mode entry, so a resumed run skips the boot-phase
// instructions entirely.
func TestWarmStartSkipsBoot(t *testing.T) {
	cfg, boot := perlbmkCfg(t, 260_000)
	var snapIN uint64
	cfg.SnapshotHook = func(in uint64, _ []byte) { snapIN = in }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(boot.Kernel)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if snapIN < 10_000 {
		t.Fatalf("snapshot at IN %d — before any plausible boot completion", snapIN)
	}
}

// smpSleepCfg builds the n-core sleeping SMP workload: every core sleeps
// each work iteration, so the whole target hits simultaneous quiescent
// round boundaries — the multicore capture condition.
func smpSleepCfg(t testing.TB, n, iters int) (Config, *workload.Boot) {
	t.Helper()
	k := workload.FastBoot()
	k.Cores = n
	k.SMPUser = true
	boot, err := workload.BuildBoot(k, workload.SMPProgram(iters, n, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FM.Devices = boot.Devices()
	return cfg, boot
}

// TestMulticoreWarmStartBitIdentical is the multicore half of the
// warm-start contract: capture at a quiescent round boundary, restore onto
// a freshly built target, and the finished Result must be
// byte-identical to the uninterrupted run — with the hook itself perturbing
// nothing.
func TestMulticoreWarmStartBitIdentical(t *testing.T) {
	const cores, iters = 4, 30

	run := func(hook func(uint64, []byte), blob []byte) Result {
		cfg, boot := smpSleepCfg(t, cores, iters)
		cfg.SnapshotHook = hook
		m, err := NewMulticore(cfg, MulticoreConfig{Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		m.LoadProgram(boot.Kernel)
		if blob != nil {
			if err := m.Restore(blob); err != nil {
				t.Fatal(err)
			}
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	cold := run(nil, nil)

	var blob []byte
	var snapIN uint64
	hooked := run(func(in uint64, b []byte) { snapIN, blob = in, b }, nil)
	if blob == nil {
		t.Fatal("multicore snapshot hook never fired — no all-core quiescent boundary")
	}
	if snapIN == 0 {
		t.Fatal("snapshot captured before any instruction committed")
	}
	if !reflect.DeepEqual(cold, hooked) {
		t.Fatalf("arming the snapshot hook perturbed the run:\ncold   %+v\nhooked %+v", cold, hooked)
	}

	warm := run(nil, blob)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("multicore warm start diverged:\ncold %+v\nwarm %+v", cold, warm)
	}
}

// TestMulticoreRestoreFlushesOnce: the cores of a multicore target share
// one decoded-code table, so restoring the shared memory flushes it once —
// fm_icache_flushes_total, summed over the cores, moves by 1, not by one per
// core.
func TestMulticoreRestoreFlushesOnce(t *testing.T) {
	const cores = 4
	cfg, boot := smpSleepCfg(t, cores, 30)
	var blob []byte
	cfg.SnapshotHook = func(_ uint64, b []byte) { blob = b }
	m, err := NewMulticore(cfg, MulticoreConfig{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(boot.Kernel)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("multicore snapshot hook never fired")
	}

	cfg.SnapshotHook = nil
	if m, err = NewMulticore(cfg, MulticoreConfig{Cores: cores}); err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(boot.Kernel)
	flushes := func() (n uint64) {
		for _, s := range m.cores {
			_, _, _, f := s.FM.ICacheStats()
			n += f
		}
		return n
	}
	before := flushes()
	if err := m.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if got := flushes() - before; got != 1 {
		t.Errorf("a %d-core restore counted %d decoded-code flushes, want 1", cores, got)
	}
}

// TestSnapshotRejectsCorruptBlob checks the decode-don't-panic contract at
// the top level: truncations and bit flips must surface as errors.
func TestSnapshotRejectsCorruptBlob(t *testing.T) {
	cfg, boot := perlbmkCfg(t, 260_000)
	var blob []byte
	cfg.SnapshotHook = func(_ uint64, b []byte) { blob = b }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(boot.Kernel)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no snapshot captured")
	}

	fresh := func() *Sim {
		cfg2, _ := perlbmkCfg(t, 260_000)
		s2, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		return s2
	}
	for _, cut := range []int{1, len(blob) / 3, len(blob) - 1} {
		if err := fresh().Restore(blob[:cut]); err == nil {
			t.Errorf("restore of %d/%d bytes succeeded", cut, len(blob))
		}
	}
	if err := fresh().Restore(append(append([]byte(nil), blob...), 0xAB)); err == nil {
		t.Error("restore with trailing garbage succeeded")
	}
	flipped := append([]byte(nil), blob...)
	flipped[0] ^= 0xFF // version byte
	if err := fresh().Restore(flipped); err == nil {
		t.Error("restore with corrupt version succeeded")
	}
}

// FuzzRestore drives Sim.Restore and Multicore.Restore with arbitrary byte
// soup, seeded with really captured blobs, their halves and single-bit
// flips: a restore must reject malformed input with an error — never panic
// — and any blob it accepts must re-encode through the same State walk to
// the identical bytes. The re-encode calls snap.Marshal directly: Snapshot
// would refuse outside a quiescent boundary, which a fuzzed blob need not
// describe.
func FuzzRestore(f *testing.F) {
	const cores = 2
	freshSim := func(t testing.TB, hook func(uint64, []byte)) *Sim {
		cfg, boot := perlbmkCfg(t, 260_000)
		cfg.SnapshotHook = hook
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.LoadProgram(boot.Kernel)
		return s
	}
	freshMulti := func(t testing.TB, hook func(uint64, []byte)) *Multicore {
		cfg, boot := smpSleepCfg(t, cores, 30)
		cfg.SnapshotHook = hook
		m, err := NewMulticore(cfg, MulticoreConfig{Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		m.LoadProgram(boot.Kernel)
		return m
	}

	var single, multi []byte
	if _, err := freshSim(f, func(_ uint64, b []byte) { single = b }).Run(); err != nil {
		f.Fatal(err)
	}
	if _, err := freshMulti(f, func(_ uint64, b []byte) { multi = b }).Run(); err != nil {
		f.Fatal(err)
	}
	if single == nil || multi == nil {
		f.Fatal("no snapshot captured to seed the corpus")
	}
	for _, seed := range []struct {
		multi bool
		blob  []byte
	}{{false, single}, {true, multi}} {
		f.Add(seed.multi, seed.blob)
		f.Add(seed.multi, seed.blob[:len(seed.blob)/2])
		f.Add(seed.multi, seed.blob[len(seed.blob)/2:])
		for _, at := range []int{0, 9, len(seed.blob) / 5, len(seed.blob) / 2, len(seed.blob) - 100, len(seed.blob) - 1} {
			flipped := append([]byte(nil), seed.blob...)
			flipped[at] ^= 0x10
			f.Add(seed.multi, flipped)
		}
	}

	f.Fuzz(func(t *testing.T, multicore bool, data []byte) {
		var target snap.Stater
		var err error
		if multicore {
			m := freshMulti(t, nil)
			target, err = m, m.Restore(data)
		} else {
			s := freshSim(t, nil)
			target, err = s, s.Restore(data)
		}
		if err != nil {
			return
		}
		if again := snap.Marshal(target); !bytes.Equal(again, data) {
			t.Fatalf("accepted blob is not canonical: re-encoded %d bytes from %d input", len(again), len(data))
		}
	})
}
