package service

import (
	"net/http"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// The warm-start tier: a content-addressed store of boot snapshots keyed
// by sim.Params.SnapshotPrefix(), handed to every engine run the server
// executes. A miss costs nothing (the engine boots cold and captures);
// a hit skips the boot instructions entirely. Like the result cache it is
// a tier (memory LRU over the optional persistent Store), and because the blob
// Store can be a shared disk directory, a snapshot captured by one node
// (or one fastd incarnation) warm-starts every other.
//
// Snapshots never change a Result — resumed runs are bit-identical by
// the engine contract — so this tier needs none of the result cache's
// correctness machinery; it only trades host time.

// snapshotNS namespaces warm-start artifacts inside the shared blob
// store, disjoint from result keys ("<engine>\x00<params key>") by the
// leading tag.
const snapshotNS = "snapshot\x00"

// snapshotMemEntries bounds the memory tier: snapshots embed a sparse
// physical-memory image, so they are orders of magnitude bigger than
// result JSON and the LRU stays small.
const snapshotMemEntries = 8

// snapshotStore implements sim.SnapshotStore over a tier keyed by prefix.
type snapshotStore struct {
	tier     *tier[sim.Snapshot]
	bytes    *obs.Counter
	resumedI *obs.Counter
}

// NewSnapshotStore builds the warm-start tier for standalone use
// (fastsim -snapshot-dir): the same memory LRU over an optional blob
// Store the server runs, usable as sim.Params.Snapshots directly.
// tel may be nil.
func NewSnapshotStore(store Store, tel *obs.Telemetry) sim.SnapshotStore {
	if tel == nil {
		tel = obs.New()
	}
	return newSnapshotStore(store, tel)
}

func newSnapshotStore(store Store, tel *obs.Telemetry) *snapshotStore {
	// A blob written under another prefix (or that no longer decodes) is
	// absent: the run boots cold and its capture overwrites it.
	t := newTier(snapshotMemEntries, store, snapshotNS, sim.Snapshot.Encode, func(prefix string, raw []byte) (sim.Snapshot, bool) {
		s, err := sim.DecodeSnapshot(raw)
		return s, err == nil && s.Prefix == prefix
	})
	t.hits = tel.Counter("service_snapshot_hits_total")
	t.misses = tel.Counter("service_snapshot_misses_total")
	return &snapshotStore{
		tier:     t,
		bytes:    tel.Counter("service_snapshot_bytes_total"),
		resumedI: tel.Counter("service_snapshot_resumed_instructions_total"),
	}
}

// GetSnapshot resolves a prefix key: memory first, then the blob store
// (so snapshots written by other processes sharing the directory are
// found and promoted).
func (c *snapshotStore) GetSnapshot(prefix string) (sim.Snapshot, bool) {
	s, ok := c.tier.get(prefix)
	if ok {
		c.resumedI.Add(s.IN)
	}
	return s, ok
}

// PutSnapshot inserts a freshly captured snapshot and writes it through
// to the blob store. Determinism makes racing captures idempotent: any
// two runs of the prefix capture the identical blob.
func (c *snapshotStore) PutSnapshot(s sim.Snapshot) {
	c.bytes.Add(uint64(len(s.Blob)))
	c.tier.put(s.Prefix, s)
}

// SnapshotView is one element of GET /v1/snapshots: the memory-resident
// warm-start index of this process (snapshots persisted by other nodes
// appear once a run here resolves them).
type SnapshotView struct {
	Prefix string `json:"prefix"`
	IN     uint64 `json:"instructions"`
	Bytes  int    `json:"bytes"`
}

// handleSnapshots lists the warm-start snapshots resident in this
// process's memory tier, sorted by prefix for a stable wire shape:
// concurrent touches must not reorder the listing mid-scrape.
func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	views := []SnapshotView{}
	for _, sn := range s.snaps.tier.resident() {
		views = append(views, SnapshotView{Prefix: sn.Prefix, IN: sn.IN, Bytes: len(sn.Blob)})
	}
	sort.Slice(views, func(i, k int) bool { return views[i].Prefix < views[k].Prefix })
	WriteJSON(w, http.StatusOK, views)
}
