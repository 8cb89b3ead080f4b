package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// TestParamsKeyDefaultsCollide pins the "semantically equal params share a
// key" half of the content-address contract: every documented "0/empty
// means X" spelling, and every result-invariant knob, collides with the
// zero value.
func TestParamsKeyDefaultsCollide(t *testing.T) {
	base := Params{}.Key()
	equal := map[string]Params{
		"explicit workload":     {Workload: "Linux-2.4"},
		"explicit predictor":    {Predictor: "gshare"},
		"explicit issue width":  {IssueWidth: 2},
		"explicit link":         {Link: "drc"},
		"explicit poll":         {PollEveryBBs: 2},
		"explicit trace chunk":  {TraceChunk: trace.DefaultChunk},
		"explicit rollback":     {Rollback: "journal"},
		"icache off":            {ICacheEntries: 0},
		"icache tiny":           {ICacheEntries: 16},
		"icache default":        {ICacheEntries: 4096},
		"telemetry attached":    {Telemetry: nil},
		"dead checkpoint knob":  {CheckpointInterval: 64}, // ignored under journal rollback
		"explicit single core":  {Cores: 1},
		"dead hop knob":         {InterconnectLatency: 7}, // ignored at one core
		"explicit disk latency": {DiskLatency: 200},
		"fully spelled default": {Workload: "Linux-2.4", Predictor: "gshare", IssueWidth: 2, Link: "drc", PollEveryBBs: 2, TraceChunk: trace.DefaultChunk, Rollback: "journal", ICacheEntries: 4096, DiskLatency: 200},
	}
	for name, p := range equal {
		if got := p.Key(); got != base {
			t.Errorf("%s: key %s differs from zero-Params key %s", name, got, base)
		}
	}
	// The checkpoint-spacing default folds the same way under checkpoint
	// rollback.
	a := Params{Rollback: "checkpoint"}.Key()
	b := Params{Rollback: "checkpoint", CheckpointInterval: 64}.Key()
	if a != b {
		t.Errorf("checkpoint interval 0 and 64 should collide: %s vs %s", a, b)
	}
	// The hop-latency default folds once an interconnect exists.
	a = Params{Cores: 2}.Key()
	b = Params{Cores: 2, InterconnectLatency: 4}.Key()
	if a != b {
		t.Errorf("interconnect latency 0 and 4 should collide at 2 cores: %s vs %s", a, b)
	}
	// A chunk cannot exceed the trace buffer it publishes into: anything
	// above the capacity is the capacity (trace.NewAppender's clamp).
	a = Params{TraceChunk: 512}.Key()
	b = Params{TraceChunk: 4096}.Key()
	if a != b {
		t.Errorf("trace chunks 512 and 4096 run the identical simulation and should collide: %s vs %s", a, b)
	}
}

// TestParamsKeyKnobsSeparate pins the other half: any knob that can move a
// Result bit produces a distinct key, and all those keys are distinct from
// each other.
func TestParamsKeyKnobsSeparate(t *testing.T) {
	variants := map[string]Params{
		"workload":            {Workload: "164.gzip"},
		"predictor":           {Predictor: "2bit"},
		"issue width":         {IssueWidth: 4},
		"link":                {Link: "pins"},
		"poll":                {PollEveryBBs: 8},
		"poll on resteer":     {PollEveryBBs: PollOnResteer},
		"bpp":                 {BPP: true},
		"max instructions":    {MaxInstructions: 1000},
		"trace chunk":         {TraceChunk: 8},
		"rollback":            {Rollback: "checkpoint"},
		"checkpoint interval": {Rollback: "checkpoint", CheckpointInterval: 128},
		"uncompressed":        {UncompressedTrace: true},
		"future microarch":    {FutureMicroarch: true},
		"cores":               {Cores: 2},
		"interconnect":        {Cores: 2, InterconnectLatency: 8},
		"disk latency":        {DiskLatency: 1000},
		"server workload":     {Workload: "nicserv"},
	}
	seen := map[string]string{Params{}.Key(): "zero"}
	for name, p := range variants {
		k := p.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key %s collides with %s", name, k, prev)
			continue
		}
		seen[k] = name
	}
}

// TestParamsKeyProgramDigest checks raw bare-metal images are addressed by
// content: identical images collide, any loaded byte separates, and a
// program run never collides with a named workload.
func TestParamsKeyProgramDigest(t *testing.T) {
	prog := func(code ...byte) *isa.Program {
		return &isa.Program{Base: 0x1000, Entry: 0x1000, Code: code}
	}
	a := Params{Program: prog(1, 2, 3)}
	b := Params{Program: prog(1, 2, 3)}
	if a.Key() != b.Key() {
		t.Error("identical program images should share a key")
	}
	if a.Key() == (Params{Program: prog(1, 2, 4)}).Key() {
		t.Error("changing a code byte should change the key")
	}
	moved := &isa.Program{Base: 0x2000, Entry: 0x2000, Code: []byte{1, 2, 3}}
	if a.Key() == (Params{Program: moved}).Key() {
		t.Error("relocating the image should change the key")
	}
	if a.Key() == (Params{}).Key() {
		t.Error("a raw program should not collide with the default workload")
	}
	// Symbols are assembler metadata the FM never loads.
	sym := prog(1, 2, 3)
	sym.Symbols = map[string]isa.Word{"start": 0x1000}
	if a.Key() != (Params{Program: sym}).Key() {
		t.Error("symbol tables should not affect the key")
	}
}

// TestKeyCoversEveryWireField states the exemption list once, against the
// struct itself: setting any JSON-tagged field to a non-default value moves
// Key unless the field is one of the two bit-invariant FM knobs, and moves
// SnapshotPrefix unless it is one of those or the instruction cap. A field
// added to Params is covered — hashed — the day it lands.
func TestKeyCoversEveryWireField(t *testing.T) {
	// No knob is dead on this base: checkpoints and an interconnect exist.
	base := Params{Rollback: "checkpoint", Cores: 2}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if tag == "-" {
			continue
		}
		p := base
		setNonZero(t, name, reflect.ValueOf(&p).Elem().Field(i), false)
		invariant := tag == "icache_entries" || tag == "superblock_len"
		if moved := p.Key() != base.Key(); moved == invariant {
			t.Errorf("Params.%s: Key moved = %v, want %v", name, moved, !invariant)
		}
		invariant = invariant || tag == "max_instructions"
		if moved := p.SnapshotPrefix() != base.SnapshotPrefix(); moved == invariant {
			t.Errorf("Params.%s: SnapshotPrefix moved = %v, want %v", name, moved, !invariant)
		}
	}
}

// checkResolved asserts Resolved is idempotent and is what Key hashes.
func checkResolved(t *testing.T, p Params) {
	t.Helper()
	r := p.Resolved()
	if again := r.Resolved(); again != r {
		t.Errorf("Resolved is not idempotent:\n  once  %+v\n  twice %+v", r, again)
	}
	if r.Key() != p.Key() || r.SnapshotPrefix() != p.SnapshotPrefix() {
		t.Errorf("resolving %+v moved its content address", p)
	}
}

// TestResolvedIsAFixedPoint checks Resolved against the engines, not just
// the hash: running the resolved spelling of a parameter set — every
// default explicit, every dead knob cleared — yields the same Result bytes
// as running the set itself, on a single-core, a multicore and a
// checkpoint-rollback target.
func TestResolvedIsAFixedPoint(t *testing.T) {
	for _, p := range []Params{
		{Workload: "164.gzip", MaxInstructions: 20_000},
		{Workload: "smp-lock", Cores: 2, MaxInstructions: 20_000},
		{Workload: "253.perlbmk", Rollback: "checkpoint", MaxInstructions: 20_000},
	} {
		checkResolved(t, p)
		plain, _ := runFastJSON(t, p)
		resolved, _ := runFastJSON(t, p.Resolved())
		if !bytes.Equal(plain, resolved) {
			t.Errorf("%s: the resolved params run a different simulation:\n%s\nvs\n%s", p.Workload, plain, resolved)
		}
	}
}

// TestParamsJSONRoundTrip pins the API-boundary schema: a fully-populated
// Params survives marshal → strict decode unchanged, and the zero value
// serializes as the empty object (so overlays stay minimal on the wire).
func TestParamsJSONRoundTrip(t *testing.T) {
	p := Params{
		Workload:            "164.gzip",
		Predictor:           "2bit",
		IssueWidth:          4,
		Link:                "coherent",
		PollEveryBBs:        PollOnResteer,
		BPP:                 true,
		MaxInstructions:     123456,
		Cores:               4,
		InterconnectLatency: 8,
		DiskLatency:         1000,
		TraceChunk:          32,
		ICacheEntries:       512,
		Rollback:            "checkpoint",
		CheckpointInterval:  128,
		UncompressedTrace:   true,
		FutureMicroarch:     true,
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeParams(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("round trip changed params:\n  in  %+v\n  out %+v", p, got)
	}
	if zero, _ := json.Marshal(Params{}); string(zero) != "{}" {
		t.Errorf("zero Params should marshal to {}, got %s", zero)
	}
	// The unserializable fields stay off the wire entirely.
	var m map[string]any
	full, _ := json.Marshal(Params{Program: &isa.Program{}, Telemetry: nil})
	if err := json.Unmarshal(full, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 0 {
		t.Errorf("Program/Telemetry leaked into JSON: %v", m)
	}
}

// TestDecodeParamsStrict is the rejection table for the API boundary.
func TestDecodeParamsStrict(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"unknown field", `{"workload":"164.gzip","warkload":"gzip"}`, "unknown field"},
		{"typo'd knob", `{"icache":16}`, "unknown field"},
		{"wrong type", `{"max_instructions":"lots"}`, "cannot unmarshal"},
		{"trailing data", `{"workload":"164.gzip"} {"bpp":true}`, "trailing data"},
		{"array body", `[1,2,3]`, "cannot unmarshal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeParams([]byte(tc.in)); err == nil {
				t.Fatalf("DecodeParams(%s) accepted bad input", tc.in)
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	for _, ok := range []string{"", "  ", "{}", `{"workload":"164.gzip"}`} {
		if _, err := DecodeParams([]byte(ok)); err != nil {
			t.Errorf("DecodeParams(%q): %v", ok, err)
		}
	}
}

// FuzzDecodeParams chews arbitrary bytes through the API-boundary decoder:
// it must never panic, and anything it accepts must survive a marshal →
// decode round trip unchanged (the property the content-address cache
// relies on when it re-derives keys from stored requests).
func FuzzDecodeParams(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":"164.gzip","max_instructions":50000}`))
	f.Add([]byte(`{"predictor":"perfect","issue_width":8,"bpp":true}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`{"workload":"x"} {"workload":"y"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeParams(data)
		if err != nil {
			return
		}
		raw, merr := json.Marshal(p)
		if merr != nil {
			t.Fatalf("accepted params failed to marshal: %v", merr)
		}
		again, derr := DecodeParams(raw)
		if derr != nil {
			t.Fatalf("re-decode of %s failed: %v", raw, derr)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("round trip changed params: %+v vs %+v", p, again)
		}
		// Key must be total and stable on every accepted input.
		if p.Key() != again.Key() {
			t.Fatal("round trip changed the content address")
		}
		checkResolved(t, p)
	})
}

// TestResultValueCopyIsDeep enforces that Result is a pure value type: no
// field, recursively, is a slice, map, pointer, interface, channel or
// function, so a value copy is a deep copy. sim.Fleet hands PointResults
// across goroutines and the goldens compare Results by value on that
// assumption; adding a reference-typed field trips this test and forces
// those copies to be revisited.
func TestResultValueCopyIsDeep(t *testing.T) {
	var check func(path string, ty reflect.Type)
	check = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Slice, reflect.Map, reflect.Ptr, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %s: value copies of Result are no longer deep — revisit every place that copies one", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", ty.Elem())
		}
	}
	check("Result", reflect.TypeOf(Result{}))
}
