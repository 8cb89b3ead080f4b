package trace

import (
	"fmt"
	"testing"
)

// Layer benchmark for the trace buffer alone, driven the way the inline
// coupling drives it: the producer appends until a chunk publishes, the
// consumer fetches the published chunk and commits it. One op is one trace
// entry, so ns/op reads as host-ns per entry through the whole
// append→flush→fetch→commit path. Run it time-based (make bench-layers),
// never 1x.
func BenchmarkAppendFetchCommit(b *testing.B) {
	for _, chunk := range []int{1, DefaultChunk} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			tb := NewBuffer(512)
			app := tb.NewAppender(chunk)
			view := make([]Entry, app.ChunkSize())
			fetched := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !app.TryAppend(entry(uint64(i))) {
					b.Fatal("trace buffer full despite per-chunk commits")
				}
				if app.Pending() > 0 {
					continue
				}
				for n := tb.TryFetchChunk(fetched, view); n > 0; n = tb.TryFetchChunk(fetched, view) {
					fetched += uint64(n)
				}
				tb.Commit(fetched - 1)
			}
		})
	}
}
