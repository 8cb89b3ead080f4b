package stats

import (
	"strings"
	"testing"

	"repro/internal/fm"
	"repro/internal/isa"
	"repro/internal/tm"
	"repro/internal/trace"
)

func recordTrace(t *testing.T, src string) []trace.Entry {
	t.Helper()
	m := fm.New(fm.Config{MemBytes: 1 << 20, DisableInterrupts: true})
	m.LoadProgram(isa.MustAssemble(src, 0x1000))
	var out []trace.Entry
	for {
		e, ok := m.Step()
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}

const src = `
	movi r0, 3000
	movi r5, 123
loop:
	movi r10, 1103515245
	mul  r5, r10
	addi r5, 12345
	mov  r6, r5
	shri r6, 16
	andi r6, 1
	cmpi r6, 0
	jz   skip
	addi r1, 1
skip:	dec r0
	jnz  loop
	halt
`

func TestSamplerWindows(t *testing.T) {
	entries := recordTrace(t, src)
	model, err := tm.New(tm.DefaultConfig(), &tm.SliceSource{Entries: entries}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(model, 500) // every 500 basic blocks
	for !model.Done() {
		model.Step()
		s.Poll()
	}
	if len(s.Samples) < 5 {
		t.Fatalf("only %d samples", len(s.Samples))
	}
	for i, x := range s.Samples {
		if x.ICacheHitRate < 0 || x.ICacheHitRate > 100 ||
			x.BPAccuracy < 0 || x.BPAccuracy > 100 ||
			x.DrainPct < 0 || x.DrainPct > 100 {
			t.Errorf("sample %d out of range: %+v", i, x)
		}
		if i > 0 && x.BasicBlocks <= s.Samples[i-1].BasicBlocks {
			t.Errorf("sample %d not monotone in basic blocks", i)
		}
	}
	// The random branch keeps drains nonzero and the iCache hot.
	last := s.Samples[len(s.Samples)-1]
	if last.DrainPct == 0 {
		t.Error("no drain cycles sampled despite random branches")
	}
	if last.ICacheHitRate < 95 {
		t.Errorf("tight loop iCache hit rate %.2f", last.ICacheHitRate)
	}
	if !strings.Contains(s.Render(), "drain%") {
		t.Error("render missing header")
	}
}

func TestQueryActiveFunctionalUnits(t *testing.T) {
	entries := recordTrace(t, src)
	model, err := tm.New(tm.DefaultConfig(), &tm.SliceSource{Entries: entries}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Below: 1} // "when does the number of active FUs drop below 1?"
	model.Probe = q.Probe()
	model.Run(1 << 62)
	if !q.Hit {
		t.Fatal("query never fired; pipelines always have bubbles somewhere")
	}
	if q.Count == 0 || q.FirstCycle > model.Stats.Cycles {
		t.Errorf("query results implausible: %+v", q)
	}
}

func TestTreeNetworkBeatsFlatWiring(t *testing.T) {
	n := TreeNetwork{Modules: 24, Width: 32}
	if n.TreeWires() >= n.FlatWires() {
		t.Errorf("tree wiring (%d) not below flat (%d)", n.TreeWires(), n.FlatWires())
	}
	if n.DrainCycles() != 24 {
		t.Errorf("drain cycles = %d", n.DrainCycles())
	}
	if (TreeNetwork{}).TreeWires() != 0 {
		t.Error("empty network should need no wires")
	}
}
