package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func testResult(n uint64) sim.Result {
	return sim.Result{Engine: "fast", Workload: "w", Instructions: n, TargetCycles: 2 * n}
}

func mustJSON(t *testing.T, r sim.Result) []byte {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestResultCacheLRU pins eviction order: the least recently used entry
// (including use via get) is the one that falls off.
func TestResultCacheLRU(t *testing.T) {
	tel := obs.New()
	c := newResultCache(2, nil, tel)
	c.put("a", mustJSON(t, testResult(1)))
	c.put("b", mustJSON(t, testResult(2)))
	if _, ok := c.get("a"); !ok { // refresh a → b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", mustJSON(t, testResult(3)))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be resident")
	}
	if got := len(c.resident()); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}
	if hits, misses := tel.Metrics.Counter("service_cache_hits_total").Value(),
		tel.Metrics.Counter("service_cache_misses_total").Value(); hits != 3 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 3/1", hits, misses)
	}
}

// TestResultCacheDisabled: max <= 0 means every put drops and every get
// misses — the service runs uncached but correct.
func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(0, nil, obs.New())
	c.put("a", mustJSON(t, testResult(1)))
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
	if len(c.resident()) != 0 {
		t.Error("disabled cache holds entries")
	}
}

// TestResultCacheContains must not disturb accounting or recency: it is the
// sweep capacity pre-check, not a read.
func TestResultCacheContains(t *testing.T) {
	tel := obs.New()
	c := newResultCache(2, nil, tel)
	c.put("a", mustJSON(t, testResult(1)))
	c.put("b", mustJSON(t, testResult(2)))
	if !c.contains("a") || c.contains("z") {
		t.Fatal("contains wrong")
	}
	// contains("a") must NOT have refreshed a: inserting c evicts a (the
	// true LRU), not b.
	c.put("c", mustJSON(t, testResult(3)))
	if c.contains("a") {
		t.Error("contains refreshed LRU order")
	}
	if hits := tel.Metrics.Counter("service_cache_hits_total").Value(); hits != 0 {
		t.Errorf("contains counted %d hits", hits)
	}
	if misses := tel.Metrics.Counter("service_cache_misses_total").Value(); misses != 0 {
		t.Errorf("contains counted %d misses", misses)
	}
}

// TestResultCacheConcurrentReaders is the sharing-hazard regression test:
// many goroutines get the same entry while racing writers refresh it and
// insert around it — under -race this proves hits, refreshes and evictions
// are properly serialised, and that the bytes handed out stay the
// canonical encoding throughout (cached bytes are read-only by contract).
func TestResultCacheConcurrentReaders(t *testing.T) {
	tel := obs.New()
	c := newResultCache(8, nil, tel)
	wantRaw := mustJSON(t, testResult(42))
	c.put("k", wantRaw)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				raw, ok := c.get("k")
				if !ok {
					t.Error("entry vanished")
					return
				}
				if string(raw) != string(wantRaw) {
					t.Errorf("raw bytes changed: %s", raw)
					return
				}
				if i%50 == 0 {
					// Racing refresh with the identical (deterministic) value.
					c.put("k", wantRaw)
					c.put(fmt.Sprintf("g%d-%d", g, i), wantRaw)
				}
			}
		}(g)
	}
	wg.Wait()
	if raw, ok := c.get("k"); !ok || string(raw) != string(wantRaw) {
		t.Fatalf("entry corrupted by readers: %s ok=%v", raw, ok)
	}
}

// TestTierStoreFallback: a memory miss falls back to the Store under the
// tier's namespace, a decodable blob is promoted (the second get never
// touches the Store), and a blob the decode func refuses is a miss.
func TestTierStoreFallback(t *testing.T) {
	store := mapStore{"ns/good": []byte("7"), "ns/bad": []byte("x")}
	c := newTier(4, store, "ns/", func(n int) []byte { return []byte(strconv.Itoa(n)) }, func(_ string, raw []byte) (int, bool) {
		n, err := strconv.Atoi(string(raw))
		return n, err == nil
	})
	tel := obs.New()
	c.hits, c.storeHits, c.misses = tel.Counter("h"), tel.Counter("s"), tel.Counter("m")
	if v, ok := c.get("good"); !ok || v != 7 {
		t.Fatalf("store fallback = %d, %v", v, ok)
	}
	delete(store, "ns/good")
	if v, ok := c.get("good"); !ok || v != 7 {
		t.Fatalf("promoted entry = %d, %v", v, ok)
	}
	if _, ok := c.get("bad"); ok {
		t.Fatal("undecodable blob served as a hit")
	}
	if _, ok := c.get("absent"); ok {
		t.Fatal("absent key served as a hit")
	}
	c.put("new", 9)
	if string(store["ns/new"]) != "9" {
		t.Fatalf("put not written through under the namespace: %v", store)
	}
	if h, s, m := c.hits.Value(), c.storeHits.Value(), c.misses.Value(); h != 2 || s != 1 || m != 2 {
		t.Fatalf("hits=%d storeHits=%d misses=%d, want 2/1/2", h, s, m)
	}
}

type mapStore map[string][]byte

func (m mapStore) Get(key string) ([]byte, bool) { raw, ok := m[key]; return raw, ok }
func (m mapStore) Put(key string, raw []byte)    { m[key] = raw }
