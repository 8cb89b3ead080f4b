package tm

import (
	"runtime"
	"testing"

	"repro/internal/trace"
)

// repeatTrace concatenates n renumbered copies of a recorded trace, for
// tests that need a longer run of the same behaviour.
func repeatTrace(entries []trace.Entry, n int) []trace.Entry {
	out := make([]trace.Entry, 0, n*len(entries))
	for ; n > 0; n-- {
		for _, e := range entries {
			e.IN = uint64(len(out))
			out = append(out, e)
		}
	}
	return out
}

// TestTMSteadyStateZeroAllocs: everything in flight lives in the rings built
// by New, so once a replay is warm a target cycle allocates nothing — on
// ordinary code and in the middle of a long rep alike.
func TestTMSteadyStateZeroAllocs(t *testing.T) {
	for name, entries := range map[string][]trace.Entry{
		"loop": repeatTrace(record(t, loopSrc, 10000), 8),
		"rep":  repStoreTrace(4096),
	} {
		for cn, cfg := range map[string]Config{
			"default": DefaultConfig(),
			"future":  DefaultConfig().WithFutureMicroarch(),
		} {
			model, err := New(cfg, &SliceSource{Entries: entries}, nil)
			if err != nil {
				t.Fatal(err)
			}
			model.Run(300)
			if allocs := testing.AllocsPerRun(1000, model.Step); allocs != 0 {
				t.Errorf("%s/%s: %v allocs per target cycle, want 0", name, cn, allocs)
			}
			if model.Done() {
				t.Errorf("%s/%s: trace drained inside the measured window", name, cn)
			}
		}
	}
}

// TestRepCracksLazily: a rep's µops are cracked one at a time as the rename
// queue takes them, so a million-iteration string store costs cycles, not
// memory. (Cracking every iteration up front, as the model once did, holds
// hundreds of MB here before the first µop decodes.)
func TestRepCracksLazily(t *testing.T) {
	entries := repStoreTrace(1 << 20)
	model, err := New(DefaultConfig(), &SliceSource{Entries: entries}, nil)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	runtime.GC()
	base, peak := heap(), uint64(0)
	for !model.Done() {
		if model.Run(1<<18) == 0 {
			t.Fatal("no progress")
		}
		peak = max(peak, heap())
	}
	if want := uint64(len(entries[1].UOps)) << 20; model.Stats.UOps < want {
		t.Fatalf("committed %d µops, want at least %d", model.Stats.UOps, want)
	}
	if peak > base+1<<20 {
		t.Errorf("heap in use grew %d KB over a 2^20-iteration rep, want under 1 MB", (peak-base)>>10)
	}
}
