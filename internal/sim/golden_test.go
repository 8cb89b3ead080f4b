package sim_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

// testdata/goldens_seed.json holds the fast engine's Result for three
// workloads at 50k instructions, captured from the per-entry-coupling seed
// tree. The chunked FM→TM coupling must reproduce every field except
// link.writes: a chunk of entries ships as ONE modeled burst transfer, so
// the write *count* is chunking's one architected visible effect (total
// burst words and link nanos are linear in words and stay bit-identical).

// scrubWrites removes the chunking-dependent field from a Result decoded
// into a generic map.
func scrubWrites(m map[string]any) {
	if link, ok := m["link"].(map[string]any); ok {
		delete(link, "writes")
	}
}

func loadGoldens(t *testing.T) []map[string]any {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "goldens_seed.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		scrubWrites(m)
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no goldens in testdata/goldens_seed.json")
	}
	return out
}

// resultMap round-trips a Result through its JSON encoding so golden and
// live values compare in the same domain (float64s, generic maps).
func resultMap(t *testing.T, r sim.Result) map[string]any {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	scrubWrites(m)
	return m
}

func runFastResult(t *testing.T, p sim.Params) sim.Result {
	t.Helper()
	eng, err := sim.New("fast", p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func runFast(t *testing.T, p sim.Params) map[string]any {
	t.Helper()
	return resultMap(t, runFastResult(t, p))
}

// diffMaps reports the keys (recursively) whose values differ.
func diffMaps(prefix string, want, got map[string]any) []string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		w, g := want[k], got[k]
		if wm, ok := w.(map[string]any); ok {
			if gm, ok := g.(map[string]any); ok {
				diffs = append(diffs, diffMaps(prefix+k+".", wm, gm)...)
				continue
			}
		}
		if !reflect.DeepEqual(w, g) {
			diffs = append(diffs, fmt.Sprintf("%s%s: golden %v, got %v", prefix, k, w, g))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// allOff is p with the FM's two host-side fast paths — predecode cache and
// superblocks — explicitly disabled: the per-instruction fetch/decode/crack
// path the seed goldens were captured on, and the reference every host-knob
// row below compares with. (The zero Params no longer means this: zero is
// the engine default, like every other field.)
func allOff(p sim.Params) sim.Params {
	p.ICacheEntries, p.SuperblockLen = sim.Off, sim.Off
	return p
}

func expectSame(t *testing.T, want, got map[string]any) {
	t.Helper()
	for _, d := range diffMaps("", want, got) {
		t.Error(d)
	}
}

// TestFastEngineMatchesSeedGoldens pins the serial fast engine to the
// seed-tree results, with the FM fast paths off and at the zero-Params
// defaults: chunked coupling, predecode and superblocks are host-side
// optimizations and must not move a single architectural or modeled-time
// number.
func TestFastEngineMatchesSeedGoldens(t *testing.T) {
	for _, golden := range loadGoldens(t) {
		w := golden["workload"].(string)
		t.Run(w, func(t *testing.T) {
			p := sim.Params{Workload: w, MaxInstructions: 50_000}
			t.Run("off", func(t *testing.T) { expectSame(t, golden, runFast(t, allOff(p))) })
			t.Run("default", func(t *testing.T) { expectSame(t, golden, runFast(t, p)) })
		})
	}
}

// hostKnobRows is the one per-point invariance table: every bit-invariant
// host knob of Params, one axis each, at the values that stress it — trace
// chunk per-entry, odd, default and bigger than the trace buffer; predecode
// cache off, one-slot (constant conflict evictions), tiny and default;
// superblocks off, degenerate single-instruction blocks, short and longer
// than the default. Unnamed fields stay zero, i.e. at the engine default.
// A row must yield the identical Result (modulo link.writes) as the all-off
// reference, and its Key() must say what the run did: the same key as the
// reference exactly when the Result is the same down to link.writes. That
// is what lets Params.Key() omit ICacheEntries and SuperblockLen, and what
// keeps TraceChunk in it — a chunk is one modeled link transfer.
var hostKnobRows = map[string][]struct {
	name string
	knob sim.Params
}{
	"chunk": {
		{"chunk1", sim.Params{TraceChunk: 1}},
		{"chunk3", sim.Params{TraceChunk: 3}},
		{"chunk64", sim.Params{TraceChunk: 64}},
		{"chunk512", sim.Params{TraceChunk: 512}},
	},
	"icache": {
		{"icacheoff", sim.Params{ICacheEntries: sim.Off}},
		{"icache1", sim.Params{ICacheEntries: 1}},
		{"icache16", sim.Params{ICacheEntries: 16}},
		{"icache4096", sim.Params{ICacheEntries: 4096}},
	},
	"superblock": {
		{"superblockoff", sim.Params{SuperblockLen: sim.Off}},
		{"superblock1", sim.Params{SuperblockLen: 1}},
		{"superblock8", sim.Params{SuperblockLen: 8}},
		{"superblock64", sim.Params{SuperblockLen: 64}},
	},
}

// knobInvariance runs one axis of hostKnobRows on one workload.
func knobInvariance(t *testing.T, w, axis string) {
	p := sim.Params{Workload: w, MaxInstructions: 50_000}
	ref := runFastResult(t, allOff(p))
	for _, row := range hostKnobRows[axis] {
		t.Run(row.name, func(t *testing.T) {
			q := sim.Merge(p, row.knob)
			got := runFastResult(t, q)
			expectSame(t, resultMap(t, ref), resultMap(t, got))
			sameKey, sameResult := q.Key() == allOff(p).Key(), got == ref
			if sameKey != sameResult {
				t.Errorf("same Key() = %v but same Result = %v: link.writes %d, reference %d",
					sameKey, sameResult, got.LinkStats.Writes, ref.LinkStats.Writes)
			}
		})
	}
}

// One entry point per axis, so a failure names the knob that leaked (and
// the test names the tier-1 floor pins keep their meaning). The FM-side
// knobs also run on the Linux boot: interrupts, paging and device I/O are
// where a predecode or superblock shortcut could go wrong.
func TestFastEngineTraceChunkInvariance(t *testing.T) { knobInvariance(t, "164.gzip", "chunk") }

func TestFastEngineICacheInvariance(t *testing.T) { onBoth(t, "icache") }

func TestFastEngineSuperblockInvariance(t *testing.T) { onBoth(t, "superblock") }

func onBoth(t *testing.T, axis string) {
	for _, w := range []string{"164.gzip", "Linux-2.4"} {
		t.Run(w, func(t *testing.T) { knobInvariance(t, w, axis) })
	}
}
