package sim

import "testing"

// Layer benchmark for engine set-up: what a fleet point or a fastd job pays
// before its first target cycle. One op is one Configure of the fast engine
// on a booted workload — cold (assemble the image, build the core) and warm
// (the same plus restoring a stored boot snapshot, which is what buys the
// skipped boot instructions). Milliseconds per op, so the time-based `make
// bench-layers` iterates it for real.
func BenchmarkConfigure(b *testing.B) {
	p := Params{Workload: "253.perlbmk", MaxInstructions: 260_000}
	store := newMemSnapshots()
	capture := p
	capture.Snapshots = store
	if _, err := Run("fast", capture); err != nil {
		b.Fatal(err)
	}
	if store.puts != 1 {
		b.Fatalf("capture run stored %d snapshots, want 1", store.puts)
	}
	for _, bc := range []struct {
		name  string
		snaps SnapshotStore
	}{{"cold", nil}, {"restore", store}} {
		b.Run(bc.name, func(b *testing.B) {
			p := p
			p.Snapshots = bc.snaps
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := New("fast", p)
				if err != nil {
					b.Fatal(err)
				}
				if _, resumed := eng.(WarmStarted).ResumedFrom(); resumed != (bc.snaps != nil) {
					b.Fatalf("resumed = %v", resumed)
				}
			}
		})
	}
}
