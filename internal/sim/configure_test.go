package sim

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/snap"
	"repro/internal/workload"
)

// TestConfigureBudget bounds what one Configure of the fast engine on a
// booted workload allocates, cold and warm-started: the per-engine caches'
// fixed parts and the pages the kernel image (or the snapshot) occupies —
// not the target's 16 MiB, not a reassembled kernel, and not a predecode or
// superblock slot before a run fills it. The object count is checked only
// in an uninstrumented build: a coverage build's Configure allocates some
// 90 objects more, in about the same bytes.
func TestConfigureBudget(t *testing.T) {
	const maxBytes, maxObjects, runs = 320_000, 150, 10
	cold, warm := configurePoints(t) // also assembles the image, once
	for _, tc := range []struct {
		name string
		p    Params
	}{{"cold", cold}, {"warm-started", warm}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := New("fast", tc.p); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		size, objects := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
		t.Logf("%s Configure: %d bytes in %d objects", tc.name, size, objects)
		if size > maxBytes || (objects > maxObjects && testing.CoverMode() == "") {
			t.Errorf("%s Configure allocates %d bytes in %d objects, budget %d in %d",
				tc.name, size, objects, maxBytes, maxObjects)
		}
	}
}

// TestBootImageShared: engines configured from the one memoised boot image
// are independent. logwrite commits file blocks to its disk, so two of its
// runs, concurrent over the same image (under -race in `make race`), must
// each see only their own writes, leave the image as built for a third, and
// all report what a run over a boot nobody shares reports. The disk latency
// is a field of the fork, not of the image: two values share one image and
// still differ in every timing they should.
func TestBootImageShared(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled full-boot runs")
	}
	p := Params{Workload: "logwrite"}
	image, err := bootImage(p.Workload, 1)
	if err != nil {
		t.Fatal(err)
	}
	asBuilt := snap.Marshal(image.Disk)

	run := func(p Params) (Result, *workload.Boot) {
		eng, err := New("fast", p)
		if err != nil {
			t.Error(err)
			return Result{}, nil
		}
		boot := eng.(Booted).Boot()
		if p.DiskLatency == 0 && !bytes.Equal(snap.Marshal(boot.Disk), asBuilt) {
			t.Error("a fresh engine's disk differs from the image as built")
		}
		r, err := eng.Run()
		if err != nil {
			t.Error(err)
		}
		return r, boot
	}

	var results [2]Result
	var boots [2]*workload.Boot
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], boots[i] = run(p)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	written := snap.Marshal(boots[0].Disk)
	if bytes.Equal(written, asBuilt) {
		t.Fatal("logwrite left its disk as built: the test no longer exercises a disk write")
	}
	if !bytes.Equal(snap.Marshal(boots[1].Disk), written) {
		t.Error("the two concurrent runs ended with different disks")
	}
	if !bytes.Equal(snap.Marshal(image.Disk), asBuilt) {
		t.Fatal("a run's disk writes reached the shared image")
	}
	third, _ := run(p) // checks its disk against asBuilt before running

	// The reference: the same target over a boot built for this run alone.
	spec, _ := workload.Lookup(p.Workload, 1)
	own, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.FM.Devices = own.Devices()
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(own.Kernel)
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := fromCore("fast", p.Resolved(), r)
	for i, got := range []Result{results[0], results[1], third} {
		if got != want {
			t.Errorf("run %d over the shared image:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if !bytes.Equal(snap.Marshal(own.Disk), written) {
		t.Error("a run over the shared image ended with a different disk than one over its own boot")
	}

	// Two latencies, one image: neither builds another, each gets its own result.
	fast, _ := run(Params{Workload: p.Workload, DiskLatency: 50})
	slow, _ := run(Params{Workload: p.Workload, DiskLatency: 1000})
	if again, _ := bootImage(p.Workload, 1); again != image {
		t.Error("a new disk latency built a second image")
	}
	if fast.TargetCycles >= want.TargetCycles || want.TargetCycles >= slow.TargetCycles {
		t.Errorf("target cycles at disk latency 50 / default / 1000 = %d / %d / %d, want ascending",
			fast.TargetCycles, want.TargetCycles, slow.TargetCycles)
	}
}
