package trace

import (
	"fmt"
	"testing"
)

// benchSink receives the consumer's copy so the compiler cannot drop it.
var benchSink Entry

// Layer benchmark for the trace buffer alone, driven the way the coupling
// drives it: the producer appends by pointer until a chunk publishes, the
// consumer reads the published entries in place (View) and commits them.
// One op is one trace entry, so ns/op reads as host-ns per entry through the
// whole append→publish→view→commit path. Run it time-based (make
// bench-layers), never 1x.
func BenchmarkAppendFetchCommit(b *testing.B) {
	for _, chunk := range []int{1, DefaultChunk} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			tb := NewBuffer(512)
			app := tb.NewAppender(chunk)
			e := entry(0)
			fetched := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.IN = uint64(i)
				if !app.Append(&e) {
					b.Fatal("trace buffer full despite per-chunk commits")
				}
				if app.Pending() > 0 {
					continue
				}
				for v := tb.View(fetched); len(v) > 0; v = tb.View(fetched) {
					// The consumer's one copy, as the TM's fetch makes.
					for j := range v {
						benchSink = v[j]
					}
					fetched += uint64(len(v))
				}
				tb.Commit(fetched - 1)
			}
		})
	}
}
