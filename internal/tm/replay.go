package tm

import "repro/internal/trace"

// SliceSource replays a pre-recorded functional-path trace (the standalone
// "soft timing model" mode and the unit tests use it). Because the trace is
// already the architecturally correct path, re-steering is unnecessary:
// pair it with NopControl.
type SliceSource struct {
	Entries []trace.Entry
}

// FetchChunk implements Source: the whole remaining trace is one view,
// so replay pays a single bounds check per run instead of one per entry.
func (s *SliceSource) FetchChunk(in uint64) ([]trace.Entry, FetchStatus) {
	if in >= uint64(len(s.Entries)) {
		return nil, FetchEnd
	}
	return s.Entries[in:], FetchOK
}
