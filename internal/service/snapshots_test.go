package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/diskcache"
	"repro/internal/sim"
)

// fastJSON computes the storeless reference result for a cap.
func fastJSON(t *testing.T, maxInst uint64) []byte {
	t.Helper()
	r, err := sim.Run("fast", sim.Params{Workload: "253.perlbmk", MaxInstructions: maxInst})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWarmStartAcrossJobs is the service-level warm-start contract: two
// jobs sharing a boot prefix at different instruction caps — the first
// captures a snapshot (miss), the second resumes from it (hit) — and both
// serve result JSON byte-identical to storeless runs.
func TestWarmStartAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real fast engine")
	}
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 8})

	id1 := h.submit(`{"engine":"fast","params":{"workload":"253.perlbmk","max_instructions":50000}}`)
	if v := h.wait(id1); v["status"] != "done" {
		t.Fatalf("job 1: %v", v)
	}
	if got := h.counter("service_snapshot_misses_total"); got != 1 {
		t.Errorf("service_snapshot_misses_total = %d, want 1", got)
	}
	if got := h.counter("service_snapshot_hits_total"); got != 0 {
		t.Errorf("service_snapshot_hits_total = %d, want 0", got)
	}
	if got := h.counter("service_snapshot_bytes_total"); got == 0 {
		t.Error("no snapshot bytes recorded after the capture run")
	}

	id2 := h.submit(`{"engine":"fast","params":{"workload":"253.perlbmk","max_instructions":80000}}`)
	if v := h.wait(id2); v["status"] != "done" {
		t.Fatalf("job 2: %v", v)
	}
	if got := h.counter("service_snapshot_hits_total"); got != 1 {
		t.Errorf("service_snapshot_hits_total = %d, want 1", got)
	}
	if got := h.counter("service_snapshot_resumed_instructions_total"); got == 0 {
		t.Error("no resumed instructions recorded on the warm start")
	}

	code, raw := h.raw("GET", "/v1/jobs/"+id2+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	want := append(fastJSON(t, 80_000), '\n')
	if string(raw) != string(want) {
		t.Errorf("warm-started result JSON diverged from the storeless run:\n%s\nvs\n%s", raw, want)
	}

	// The listing shows the captured snapshot.
	code, views := h.raw("GET", "/v1/snapshots", "")
	if code != http.StatusOK {
		t.Fatalf("snapshots: %d", code)
	}
	var list []service.SnapshotView
	if err := json.Unmarshal(views, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].IN == 0 || list[0].Bytes == 0 || list[0].Prefix == "" {
		t.Errorf("snapshot listing = %+v", list)
	}
}

// TestWarmStartSurvivesRestartViaSharedDisk: a snapshot captured by one
// server incarnation warm-starts a fresh one sharing the disk directory —
// the cluster-wide tier in miniature.
func TestWarmStartSurvivesRestartViaSharedDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real fast engine")
	}
	dir := t.TempDir()

	store1, err := diskcache.New(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	h1 := newHarness(t, service.Config{Workers: 1, QueueDepth: 8, Store: store1})
	if v := h1.wait(h1.submit(`{"engine":"fast","params":{"workload":"253.perlbmk","max_instructions":50000}}`)); v["status"] != "done" {
		t.Fatalf("capture job: %v", v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h1.srv.Shutdown(ctx)

	store2, err := diskcache.New(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2 := newHarness(t, service.Config{Workers: 1, QueueDepth: 8, Store: store2})
	id := h2.submit(`{"engine":"fast","params":{"workload":"253.perlbmk","max_instructions":80000}}`)
	if v := h2.wait(id); v["status"] != "done" {
		t.Fatalf("resume job: %v", v)
	}
	if got := h2.counter("service_snapshot_hits_total"); got != 1 {
		t.Errorf("restarted server snapshot hits = %d, want 1", got)
	}
	code, raw := h2.raw("GET", "/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	want := append(fastJSON(t, 80_000), '\n')
	if string(raw) != string(want) {
		t.Errorf("disk-resumed result JSON diverged:\n%s\nvs\n%s", raw, want)
	}
}

// keyStore is a concurrency-safe in-memory Store that remembers its keys.
type keyStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

func (s *keyStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.blobs[key]
	return raw, ok
}

func (s *keyStore) Put(key string, raw []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blobs == nil {
		s.blobs = map[string][]byte{}
	}
	s.blobs[key] = raw
}

// snapshotKeys counts the stored keys that are and are not warm-start
// snapshots.
func (s *keyStore) snapshotKeys() (snaps, others int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.blobs {
		if strings.HasPrefix(k, "snapshot\x00") {
			snaps++
		} else {
			others++
		}
	}
	return snaps, others
}

// TestWarmStartSeparateSnapshotStore: a Config.Snapshots store apart from
// Config.Store (fastd -snapshot-dir beside -cache-dir) receives the boot
// snapshot while Store receives only results, and a fresh server over the
// same snapshot store resumes from it.
func TestWarmStartSeparateSnapshotStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real fast engine")
	}
	results, snapshots := &keyStore{}, &keyStore{}
	h1 := newHarness(t, service.Config{Workers: 1, QueueDepth: 8, Store: results, Snapshots: snapshots})
	if v := h1.wait(h1.submit(`{"engine":"fast","params":{"workload":"253.perlbmk","max_instructions":50000}}`)); v["status"] != "done" {
		t.Fatalf("capture job: %v", v)
	}
	if s, o := snapshots.snapshotKeys(); s != 1 || o != 0 {
		t.Errorf("snapshot store holds %d snapshots and %d other blobs, want 1 and 0", s, o)
	}
	if s, o := results.snapshotKeys(); s != 0 || o != 1 {
		t.Errorf("result store holds %d snapshots and %d other blobs, want 0 and 1", s, o)
	}

	h2 := newHarness(t, service.Config{Workers: 1, QueueDepth: 8, Store: &keyStore{}, Snapshots: snapshots})
	if v := h2.wait(h2.submit(`{"engine":"fast","params":{"workload":"253.perlbmk","max_instructions":80000}}`)); v["status"] != "done" {
		t.Fatalf("resume job: %v", v)
	}
	if got := h2.counter("service_snapshot_hits_total"); got != 1 {
		t.Errorf("fresh server snapshot hits = %d, want 1", got)
	}
}
