package core

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// Layer benchmark for the coupling driver: one small capped workload per
// scheduling policy of TestPolicyMatrix's table, boot image built off the
// clock. One op is a whole run (milliseconds, so the time-based `make
// bench-layers` iterates it for real); ns/inst is host time per committed
// target instruction, the unit bench/'s core.*_ns_per_inst metrics use.
func BenchmarkPolicy(b *testing.B) {
	for _, p := range policies {
		if p.cores == 1 {
			continue // a one-core container is the inline policy plus a wrapper
		}
		spec, _ := workload.ByName("164.gzip")
		if !p.single() {
			spec = workload.SMP(p.cores, false)
		}
		maxInst := 20_000 * uint64(max(p.cores, 1)) // 20k per core
		b.Run(p.name, func(b *testing.B) {
			var insts uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				boot, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.FM.Devices = boot.Devices()
				cfg.MaxInstructions = maxInst
				b.StartTimer()
				out, err := p.run(b, context.Background(), cfg, boot.Kernel)
				if err != nil {
					b.Fatal(err)
				}
				insts += out.Instructions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}
