package baseline

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/fm"
	"repro/internal/tm"
	"repro/internal/workload"
)

// Layer benchmark for the comparison engines: the one functional run + trace
// replay that monolithic, gems, lockstep and fsbcache all price, on the
// Linux-2.4 boot capped at 250 000 instructions with the host defaults the
// registry runs it under (predecode cache and superblocks on). One op is a
// whole replay (hundreds of milliseconds, so the time-based `make
// bench-layers` iterates it for real); ns/inst and B/inst are host time and
// heap allocated per committed target instruction, boot image built off the
// clock.
func BenchmarkReplay(b *testing.B) {
	spec, _ := workload.ByName("Linux-2.4")
	var insts, bytes uint64
	var before, after runtime.MemStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		boot, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		cfg := fm.Config{
			ICacheEntries: fm.DefaultICacheEntries,
			SuperblockLen: fm.DefaultSuperblockLen,
			Devices:       boot.Devices(),
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		model, err := Replay(context.Background(), boot.Kernel, tm.DefaultConfig(), cfg, 250_000)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.StartTimer()
		insts += model.Stats.Instructions
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
	b.ReportMetric(float64(bytes)/float64(insts), "B/inst")
}
