package tm

import (
	"testing"

	"repro/internal/fm"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Layer benchmark for the timing model alone: a recorded right-path trace
// replayed through SliceSource, no FM, trace buffer or coupling in the loop.
// One op is one target cycle, so ns/op reads as host-ns per target cycle
// and allocs/op as allocations per cycle. Run it time-based (make
// bench-layers), never 1x.

// recordWorkload boots a named workload on the functional model alone,
// lets skip right-path instructions go by and returns the next limit
// entries, renumbered from 0 as SliceSource indexes them. The predecode
// cache stays off: cached entries share their µop slices with the cache
// slot, which a later refill would rewrite under the recording.
func recordWorkload(b *testing.B, name string, skip, limit int) []trace.Entry {
	b.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %q", name)
	}
	boot, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	m := fm.New(fm.Config{Devices: boot.Devices()})
	m.LoadProgram(boot.Kernel)
	entries := make([]trace.Entry, 0, limit)
	for len(entries) < limit {
		if e, ok := m.Step(); ok {
			if e.IN%trace.DefaultChunk == 0 {
				m.Commit(e.IN)
			}
			if e.IN >= uint64(skip) {
				e.IN -= uint64(skip)
				entries = append(entries, e)
			}
			continue
		}
		if m.Fatal() != nil {
			b.Fatal(m.Fatal())
		}
		if !m.Halted() || m.Flags&isa.FlagI == 0 {
			break // powered off
		}
		m.AdvanceIdle(1) // halted waiting for a device interrupt
	}
	return entries
}

// BenchmarkReplay steps the TM over 181.mcf past its set-up phase (the
// pointer chase that misses the caches starts near instruction 230k: ~5
// target cycles per instruction, most of them stalled — the mcf_stall
// regime of bench/) and over logwrite from reset (`rep` string stores and
// device waits: many µops per instruction).
func BenchmarkReplay(b *testing.B) {
	for _, w := range []struct {
		name string
		skip int
	}{{"181.mcf", 250_000}, {"logwrite", 0}} {
		b.Run(w.name, func(b *testing.B) {
			src := &SliceSource{Entries: recordWorkload(b, w.name, w.skip, 100_000)}
			fresh := func() *TM {
				model, err := New(DefaultConfig(), src, NopControl{})
				if err != nil {
					b.Fatal(err)
				}
				return model
			}
			model := fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if model.Done() {
					b.StopTimer()
					model = fresh()
					b.StartTimer()
				}
				model.Step()
			}
		})
	}
}
