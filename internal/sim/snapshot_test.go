package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"
)

// memSnapshots is the minimal SnapshotStore: a mutex-guarded map plus
// get/put counters for the wiring assertions.
type memSnapshots struct {
	mu        sync.Mutex
	byPrefix  map[string]Snapshot
	gets, hit int
	puts      int
}

func newMemSnapshots() *memSnapshots {
	return &memSnapshots{byPrefix: map[string]Snapshot{}}
}

func (m *memSnapshots) GetSnapshot(prefix string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets++
	s, ok := m.byPrefix[prefix]
	if ok {
		m.hit++
	}
	return s, ok
}

func (m *memSnapshots) PutSnapshot(s Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	m.byPrefix[s.Prefix] = s
}

// TestSnapshotPrefixSharesBootAcrossCaps pins the prefix-key contract: the
// instruction cap must not split keys (one boot serves every cap), every
// other result-affecting knob must, and the key space is disjoint from
// Key's.
func TestSnapshotPrefixSharesBootAcrossCaps(t *testing.T) {
	base := Params{Workload: "253.perlbmk", MaxInstructions: 100_000}
	prefix := base.SnapshotPrefix()
	if prefix == "" {
		t.Fatal("empty prefix for cacheable params")
	}
	for _, cap := range []uint64{0, 50_000, 1_000_000} {
		p := base
		p.MaxInstructions = cap
		if got := p.SnapshotPrefix(); got != prefix {
			t.Errorf("cap %d split the prefix key: %s vs %s", cap, got, prefix)
		}
	}
	for name, p := range map[string]Params{
		"workload":  {Workload: "164.gzip", MaxInstructions: 100_000},
		"predictor": {Workload: "253.perlbmk", MaxInstructions: 100_000, Predictor: "2bit"},
		"cores":     {Workload: "253.perlbmk", MaxInstructions: 100_000, Cores: 2},
		"chunk":     {Workload: "253.perlbmk", MaxInstructions: 100_000, TraceChunk: 1},
	} {
		if got := p.SnapshotPrefix(); got == prefix {
			t.Errorf("%s change did not move the prefix key", name)
		}
	}
	if base.SnapshotPrefix() == base.Key() {
		t.Error("prefix key collides with the result key")
	}
	// A chunk above the trace-buffer capacity is the capacity: one boot.
	big, bigger := base, base
	big.TraceChunk, bigger.TraceChunk = 512, 4096
	if big.SnapshotPrefix() != bigger.SnapshotPrefix() {
		t.Error("trace chunks 512 and 4096 boot identically but split the prefix key")
	}
}

// TestSnapshotEncodeDecode pins the artifact's byte layout — version byte,
// little-endian IN, then the prefix and the blob, each behind a uint32
// length — round-trips it and checks the decode-don't-panic contract on
// mangled inputs.
func TestSnapshotEncodeDecode(t *testing.T) {
	s := Snapshot{Prefix: "abc123", IN: 98765, Blob: []byte{1, 2, 3, 4, 5}}
	raw := s.Encode()
	want := binary.LittleEndian.AppendUint64([]byte{1}, s.IN)
	want = append(binary.LittleEndian.AppendUint32(want, uint32(len(s.Prefix))), s.Prefix...)
	want = append(binary.LittleEndian.AppendUint32(want, uint32(len(s.Blob))), s.Blob...)
	if !bytes.Equal(raw, want) {
		t.Fatalf("artifact bytes\n got %x\nwant %x", raw, want)
	}
	got, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Prefix != s.Prefix || got.IN != s.IN || !bytes.Equal(got.Blob, s.Blob) {
		t.Fatalf("round trip mangled the artifact: %+v vs %+v", got, s)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeSnapshot(raw[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded", cut, len(raw))
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), raw...), 0x00)); err == nil {
		t.Error("decode with trailing garbage succeeded")
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Error("decode with corrupt version succeeded")
	}
}

// runFastJSON runs the fast engine and returns the canonical result JSON
// plus the engine (for the WarmStarted probe).
func runFastJSON(t *testing.T, p Params) ([]byte, Engine) {
	t.Helper()
	eng, err := New("fast", p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw, eng
}

// sameArchitecture holds a checkpoint-rollback run to the journal engine's
// committed path and modeled time: the two rollback engines differ only in
// host cost (re-execution), never in what the target did.
func sameArchitecture(t *testing.T, journal, checkpoint []byte) {
	t.Helper()
	var j, c Result
	if err := json.Unmarshal(journal, &j); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(checkpoint, &c); err != nil {
		t.Fatal(err)
	}
	if c.Instructions != j.Instructions || c.TargetCycles != j.TargetCycles {
		t.Errorf("checkpoint rollback ran %d inst / %d cycles, journal %d / %d",
			c.Instructions, c.TargetCycles, j.Instructions, j.TargetCycles)
	}
}

// TestFastEngineWarmStartBitIdentical is the engine-level warm-start
// contract, under both rollback engines: with a snapshot store attached,
// the first run captures at boot completion, the second resumes — and
// every run's canonical result JSON is byte-identical to the storeless run
// at the same cap, including a second sweep point at a different cap
// served by the same snapshot.
func TestFastEngineWarmStartBitIdentical(t *testing.T) {
	colds := map[string][]byte{}
	for _, rollback := range []string{"journal", "checkpoint"} {
		t.Run(rollback, func(t *testing.T) {
			p := Params{Workload: "253.perlbmk", MaxInstructions: 260_000, Rollback: rollback}
			cold, _ := runFastJSON(t, p)
			colds[rollback] = cold

			store := newMemSnapshots()
			p.Snapshots = store
			first, eng1 := runFastJSON(t, p)
			if !bytes.Equal(cold, first) {
				t.Fatalf("capture run diverged from the cold run:\n%s\nvs\n%s", cold, first)
			}
			if _, ok := eng1.(WarmStarted); !ok {
				t.Fatal("fast engine does not implement WarmStarted")
			}
			if _, resumed := eng1.(WarmStarted).ResumedFrom(); resumed {
				t.Fatal("first run claims to have warm-started from an empty store")
			}
			if store.puts != 1 {
				t.Fatalf("capture run stored %d snapshots, want 1", store.puts)
			}

			warm, eng2 := runFastJSON(t, p)
			in, resumed := eng2.(WarmStarted).ResumedFrom()
			if !resumed {
				t.Fatal("second run did not warm-start")
			}
			if in == 0 || in >= p.MaxInstructions {
				t.Fatalf("resumed at IN %d, want inside (0, %d)", in, p.MaxInstructions)
			}
			if !bytes.Equal(cold, warm) {
				t.Fatalf("warm run diverged from the cold run:\n%s\nvs\n%s", cold, warm)
			}

			// A different cap shares the boot prefix: the same snapshot serves it.
			p2 := p
			p2.MaxInstructions = 300_000
			cold2, _ := runFastJSON(t, Params{Workload: "253.perlbmk", MaxInstructions: 300_000, Rollback: rollback})
			warm2, eng3 := runFastJSON(t, p2)
			if _, resumed := eng3.(WarmStarted).ResumedFrom(); !resumed {
				t.Fatal("sweep point at a different cap did not share the snapshot")
			}
			if !bytes.Equal(cold2, warm2) {
				t.Fatalf("warm run at cap 300k diverged:\n%s\nvs\n%s", cold2, warm2)
			}
			if store.puts != 1 {
				t.Fatalf("store has %d puts after three runs, want 1", store.puts)
			}
		})
	}
	sameArchitecture(t, colds["journal"], colds["checkpoint"])
}

// TestFastEngineWarmStartMulticore runs the engine-level multicore
// warm-start path over the sleeping SMP workload: capture on the first
// run, resume on the second, byte-identical canonical JSON.
func TestFastEngineWarmStartMulticore(t *testing.T) {
	p := Params{Workload: "smp-sleep", Cores: 4}
	cold, _ := runFastJSON(t, p)

	store := newMemSnapshots()
	p.Snapshots = store
	first, _ := runFastJSON(t, p)
	if !bytes.Equal(cold, first) {
		t.Fatalf("multicore capture run diverged:\n%s\nvs\n%s", cold, first)
	}
	if store.puts != 1 {
		t.Fatalf("capture run stored %d snapshots, want 1", store.puts)
	}
	warm, eng := runFastJSON(t, p)
	if _, resumed := eng.(WarmStarted).ResumedFrom(); !resumed {
		t.Fatal("multicore second run did not warm-start")
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("multicore warm run diverged:\n%s\nvs\n%s", cold, warm)
	}
}

// TestFastEngineWarmStartServerWorkload runs warm-start over a toyFS
// server workload, under both rollback engines: the boot that the snapshot
// elides here includes mkfs disk writes and the FS kernel's sector-cache
// warmup, so a resumed run only matches the cold run if the disk sector
// map (not just CPU and memory) round-trips through the snapshot blob.
func TestFastEngineWarmStartServerWorkload(t *testing.T) {
	colds := map[string][]byte{}
	for _, rollback := range []string{"journal", "checkpoint"} {
		t.Run(rollback, func(t *testing.T) {
			p := Params{Workload: "nicserv", Rollback: rollback}
			cold, _ := runFastJSON(t, p)
			colds[rollback] = cold

			store := newMemSnapshots()
			p.Snapshots = store
			first, _ := runFastJSON(t, p)
			if !bytes.Equal(cold, first) {
				t.Fatalf("server capture run diverged from the cold run:\n%s\nvs\n%s", cold, first)
			}
			if store.puts != 1 {
				t.Fatalf("capture run stored %d snapshots, want 1", store.puts)
			}
			warm, eng := runFastJSON(t, p)
			if _, resumed := eng.(WarmStarted).ResumedFrom(); !resumed {
				t.Fatal("server second run did not warm-start")
			}
			if !bytes.Equal(cold, warm) {
				t.Fatalf("server warm run diverged from the cold run:\n%s\nvs\n%s", cold, warm)
			}
		})
	}
	sameArchitecture(t, colds["journal"], colds["checkpoint"])
}

// TestFastEngineWarmStartRejectsCorruptBlob: a mangled stored snapshot
// must fall back to a cold run (same bytes) and overwrite the bad blob.
func TestFastEngineWarmStartRejectsCorruptBlob(t *testing.T) {
	p := Params{Workload: "253.perlbmk", MaxInstructions: 260_000}
	cold, _ := runFastJSON(t, p)

	store := newMemSnapshots()
	p.Snapshots = store
	runFastJSON(t, p) // capture
	good := store.byPrefix[p.SnapshotPrefix()]
	store.byPrefix[good.Prefix] = Snapshot{
		Prefix: good.Prefix, IN: good.IN, Blob: good.Blob[:len(good.Blob)/2],
	}

	got, eng := runFastJSON(t, p)
	if _, resumed := eng.(WarmStarted).ResumedFrom(); resumed {
		t.Fatal("run claims to have warm-started from a corrupt snapshot")
	}
	if !bytes.Equal(cold, got) {
		t.Fatalf("corrupt-snapshot fallback diverged from the cold run:\n%s\nvs\n%s", cold, got)
	}
	if repaired := store.byPrefix[good.Prefix]; !bytes.Equal(repaired.Blob, good.Blob) {
		t.Error("fallback run did not overwrite the corrupt snapshot")
	}
}

// TestFastEngineWarmStartSkipsTooDeepSnapshot: a snapshot captured at or
// past the run's instruction cap must not be used.
func TestFastEngineWarmStartSkipsTooDeepSnapshot(t *testing.T) {
	p := Params{Workload: "253.perlbmk", MaxInstructions: 260_000}
	store := newMemSnapshots()
	p.Snapshots = store
	runFastJSON(t, p) // capture
	snap := store.byPrefix[p.SnapshotPrefix()]

	shallow := p
	shallow.MaxInstructions = snap.IN // boundary: resume would overshoot
	_, eng := runFastJSON(t, shallow)
	if _, resumed := eng.(WarmStarted).ResumedFrom(); resumed {
		t.Fatalf("run capped at %d resumed from a snapshot at IN %d", shallow.MaxInstructions, snap.IN)
	}
}

// TestSnapshotBlobStable pins the snapshot byte format: the SHA-256 of the
// blob each run captures at boot completion. A stored blob is a
// content-addressed artifact shared across fastd restarts and cluster
// nodes, so a refactor of the State walks must not move a byte without
// bumping a layer's version. The digests were computed at commit 650d7ca,
// the tree before the snap.Codec refactor (separate hand-written save and
// load functions per type), by adding this test there with empty digests
// and reading them off the failure output of
//
//	go test ./internal/sim -run '^TestSnapshotBlobStable$'
func TestSnapshotBlobStable(t *testing.T) {
	for _, tc := range []struct {
		p      Params
		digest string
	}{
		{Params{Workload: "253.perlbmk", MaxInstructions: 260_000},
			"778fa5ea2b7ff0ba2db6c210f216fe4627353216ccc3ac28335242882163a4bd"},
		{Params{Workload: "253.perlbmk", MaxInstructions: 260_000, Rollback: "checkpoint"},
			"f2176a24437fecfce2bb6ad9e883609c0ff0cc9de7cd030f09f640b060bff46c"},
		{Params{Workload: "smp-sleep", Cores: 4},
			"917eb42eb5b7d274cc66e150fea4633bc7161de88c079c0f47b151e2069f38eb"},
		{Params{Workload: "nicserv"}, // disk sector map + NIC state
			"41f66d6026f398e812c5eb814c62dc4e87569d35d42ea58c51016f315d6364bd"},
	} {
		store := newMemSnapshots()
		tc.p.Snapshots = store
		if _, err := Run("fast", tc.p); err != nil {
			t.Fatal(err)
		}
		s, ok := store.byPrefix[tc.p.SnapshotPrefix()]
		if !ok {
			t.Fatalf("%s: no snapshot captured", tc.p.Workload)
		}
		sum := sha256.Sum256(s.Blob)
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%s (cores %d, rollback %q): blob digest %s (%d bytes), want %s",
				tc.p.Workload, tc.p.Cores, tc.p.Rollback, got, len(s.Blob), tc.digest)
		}
	}
}
