package sim

import "testing"

// Layer benchmark for engine set-up: what a fleet point or a fastd job pays
// before its first target cycle. One op is one Configure of the fast engine
// on a booted workload — cold (fork the boot image, build the core) and warm
// (the same plus restoring a stored boot snapshot, which is what buys the
// skipped boot instructions). Milliseconds per op, so the time-based `make
// bench-layers` iterates it for real.
func BenchmarkConfigure(b *testing.B) {
	cold, warm := configurePoints(b)
	for _, bc := range []struct {
		name string
		p    Params
	}{{"cold", cold}, {"restore", warm}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New("fast", bc.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// configurePoints returns the two parameter sets BenchmarkConfigure and
// TestConfigureBudget configure: a booted workload cold, and the same over a
// store that holds its boot snapshot (every Configure of it warm-starts).
func configurePoints(tb testing.TB) (cold, warm Params) {
	cold = Params{Workload: "253.perlbmk", MaxInstructions: 260_000}
	warm = cold
	store := newMemSnapshots()
	warm.Snapshots = store
	if _, err := Run("fast", warm); err != nil {
		tb.Fatal(err)
	}
	if store.puts != 1 {
		tb.Fatalf("capture run stored %d snapshots, want 1", store.puts)
	}
	for _, p := range []Params{cold, warm} {
		eng, err := New("fast", p)
		if err != nil {
			tb.Fatal(err)
		}
		if _, resumed := eng.(WarmStarted).ResumedFrom(); resumed != (p.Snapshots != nil) {
			tb.Fatalf("snapshots attached = %v, resumed = %v", p.Snapshots != nil, resumed)
		}
	}
	return cold, warm
}
