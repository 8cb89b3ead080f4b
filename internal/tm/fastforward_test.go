package tm

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/snap"
	"repro/internal/trace"
)

// stampedCtl records the TM→FM command stream with the cycle of each call.
type stampedCtl struct {
	tm    *TM
	calls []stampedCall
}

type stampedCall struct {
	ctlCall
	cycle uint64
}

func (c *stampedCtl) add(kind string, in uint64, pc isa.Word) {
	c.calls = append(c.calls, stampedCall{ctlCall{kind, in, pc}, c.tm.Cycle()})
}

func (c *stampedCtl) Commit(in uint64)                  { c.add("commit", in, 0) }
func (c *stampedCtl) Mispredict(in uint64, pc isa.Word) { c.add("mispredict", in, pc) }
func (c *stampedCtl) Resolve(in uint64, pc isa.Word)    { c.add("resolve", in, pc) }

// replayToEnd runs entries under cfg until the pipeline drains, with the REP
// fast-forward on or off. It drives the model as Run does, and holds the
// stations to their invariants (checkStations) after every skip.
func replayToEnd(t testing.TB, entries []trace.Entry, cfg Config, off bool) (*TM, []stampedCall) {
	t.Helper()
	ctl := &stampedCtl{}
	model, err := New(cfg, &SliceSource{Entries: entries}, ctl)
	if err != nil {
		t.Fatal(err)
	}
	model.ffOff, ctl.tm = off, model
	const limit = 50_000_000
	for !model.Done() && model.Cycle() < limit {
		if model.RepArmed() {
			if n, _ := model.FastForward(limit, nil); n > 0 {
				checkStations(t, model)
				continue
			}
		}
		model.Step()
	}
	if !model.Done() {
		t.Fatalf("did not drain: %s", model.Describe())
	}
	return model, ctl.calls
}

// sameAsStepping requires a replay that fast-forwards to tell the FM exactly
// what, and when, a replay stepping every cycle tells it, and to drain into
// the same state: the State walk (predictor, caches, TLBs, connector
// counters, Stats, host cycles) byte for byte. It returns the cycles skipped
// and the cycles run.
func sameAsStepping(t testing.TB, entries []trace.Entry, cfg Config) (skipped, cycles uint64) {
	t.Helper()
	got, gotCalls := replayToEnd(t, entries, cfg, false)
	want, wantCalls := replayToEnd(t, entries, cfg, true)
	if !slices.Equal(gotCalls, wantCalls) {
		i := 0
		for i < min(len(gotCalls), len(wantCalls)) && gotCalls[i] == wantCalls[i] {
			i++
		}
		t.Fatalf("control calls differ from call %d of %d/%d", i, len(gotCalls), len(wantCalls))
	}
	if got.Stats != want.Stats {
		t.Fatalf("Stats differ\n got: %+v\nwant: %+v", got.Stats, want.Stats)
	}
	if g, w := got.ConnectorReport(), want.ConnectorReport(); g != w {
		t.Fatalf("connectors differ\n got: %s\nwant: %s", g, w)
	}
	if !bytes.Equal(snap.Marshal(got), snap.Marshal(want)) {
		t.Fatal("drained State differs")
	}
	if want.ff != nil && want.ff.skipped != 0 {
		t.Fatal("the stepping replay skipped cycles")
	}
	if got.ff == nil {
		return 0, got.Stats.Cycles
	}
	return got.ff.skipped, got.Stats.Cycles
}

// twoRepsSrc runs two long REPs with a loop of branches between them.
const twoRepsSrc = `
	movi r0, 0x2000
	movi r1, 0x3000
	movi r2, 3000
	rep movs
	movi r3, 5
loop:
	dec r3
	jnz loop
	movi r1, 0x6000
	movi r2, 2500
	rep stos
	halt
`

// TestRepFastForward: jumping a REP's steady state whole periods at a time
// is invisible. Every trace runs under TestTMAgreement's configurations
// twice, fast-forwarding and stepping only, and the two must agree on the
// command stream, cycle stamps included, and on the drained state. Under
// the default configuration most of each REP is skipped.
func TestRepFastForward(t *testing.T) {
	traces := map[string][]trace.Entry{
		"rep-stos-4096":  repStoreTrace(4096),
		"rep-stos-65536": repStoreTrace(65536),
		"rep-movs-4096": record(t, `
			movi r0, 0x2000
			movi r1, 0x3000
			movi r2, 4096
			rep movs
			halt
		`, 1000),
		"two-reps": record(t, twoRepsSrc, 1000),
	}
	for tn, entries := range traces {
		for cn, cfg := range agreementConfigs() {
			t.Run(tn+"/"+cn, func(t *testing.T) {
				skipped, cycles := sameAsStepping(t, entries, cfg)
				if cn == "default" && skipped < cycles*3/4 {
					t.Errorf("skipped %d of %d cycles, want at least three quarters", skipped, cycles)
				}
			})
		}
	}
}

// FuzzRepFastForward holds the fast-forward to stepping over FuzzTMAgreement's
// traces and configurations, with 4096 more iterations on every REP so that
// skips engage.
func FuzzRepFastForward(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, cfg := fuzzCase(data, 4096)
		sameAsStepping(t, entries, cfg)
	})
}

// TestNestedBranchGateDrift pins a known bug, not fixed here because fixing
// it moves every golden: resolveBranches decrements unresolved for every
// resolved UBr µop, but only µops predicted at fetch ever incremented it. A
// REP's loop-control µop therefore takes one off per iteration (and one for
// zero iterations), the counter goes negative and §4's nested-branch limit
// stops gating fetch for the rest of the run. The same path trains the
// predictor on the REP's own PC once per iteration.
func TestNestedBranchGateDrift(t *testing.T) {
	for _, tc := range []struct {
		iters uint32
		want  int
	}{{0, -1}, {1, -1}, {4096, -4096}} {
		model := replay(t, repStoreTrace(tc.iters), DefaultConfig())
		if model.unresolved != tc.want {
			t.Errorf("rep of %d iterations: unresolved = %d, pinned at %d", tc.iters, model.unresolved, tc.want)
		}
	}
	if got := replay(t, record(t, twoRepsSrc, 1000), DefaultConfig()).unresolved; got != -5500 {
		t.Errorf("two REPs: unresolved = %d, pinned at -5500", got)
	}
}

// replayCase builds, from fuzz bytes, a TM ready to replay a round of calls:
// random resident dL1 lines (at most eight per set, so none is evicted) and
// dTLB entries (no more than it holds), a predictor from the registry
// trained by random updates, and a recorded round of hits on those lines and
// entries and of predictor updates from a few PCs that share BTB sets. The
// first byte picks the predictor, whether the round mixes all three kinds
// of call, makes only predictor updates or only memory accesses, and
// whether its branches are taken at random, never or always.
func replayCase(t *testing.T, data []byte) *TM {
	t.Helper()
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	sel := next()
	cfg := DefaultConfig()
	cfg.Predictor = []string{"gshare", "2bit", "perfect", "97%", "95%"}[sel%5]
	kinds, outcomes := sel/5%3, sel/15%3
	model, err := New(cfg, &SliceSource{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets := cfg.L1D.SizeBytes / (cfg.L1D.Ways * cfg.L1D.LineBytes)
	lines := make([]isa.Word, 1+next()%48)
	for j := range lines {
		line := (next()%cfg.L1D.Ways)*sets + next()%sets
		lines[j] = isa.Word(line*cfg.L1D.LineBytes + next()%cfg.L1D.LineBytes)
		model.DL1.Access(lines[j], next()&1 != 0)
	}
	vpns := make([]isa.Word, 1+next()%cfg.DTLBEntries)
	for j := range vpns {
		vpns[j] = isa.Word(j<<8 | next())
		model.DTLB.Access(vpns[j])
	}
	pc := func() isa.Word { return isa.Word(0x1000 + next()%8*0x1000 + next()%4*2) }
	// A long random warm-up leaves counters of every value under many
	// histories, the one the round settles into among them.
	rng := rand.New(rand.NewSource(int64(next())))
	for range 512 + 8*next() {
		p := isa.Word(0x1000 + rng.Intn(8)*0x1000 + rng.Intn(4)*2)
		model.BP.Update(p, rng.Intn(2) == 0, p+8)
	}
	taken := func() bool { return outcomes == 2 || outcomes == 0 && next()&1 != 0 }
	f := &fastForward{}
	for range 1 + next()%32 {
		kind := next() % 3
		switch {
		case kinds == 1:
			kind = 2
		case kinds == 2:
			kind %= 2
		}
		switch kind {
		case 0:
			f.calls = append(f.calls, ffCall{kind: callDL1, addr: lines[next()%len(lines)], flag: next()&1 != 0})
		case 1:
			f.calls = append(f.calls, ffCall{kind: callDTLB, addr: vpns[next()%len(vpns)]})
		default:
			f.calls = append(f.calls, ffCall{kind: callBP, addr: pc(), flag: taken(), target: pc()})
		}
	}
	model.ff = f
	return model
}

// FuzzReplayFixedPoint: replaying a recorded round of calls only until it
// reaches a fixed point, then adding the remaining rounds in closed form,
// leaves the dL1, the dTLB and the predictor exactly where replaying all k
// rounds call by call leaves them: the same State bytes and counters, and
// the same again after a few more accesses that miss and evict.
func FuzzReplayFixedPoint(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 3, 1, 2, 7, 9, 5, 4, 1, 30, 0, 1, 2, 0, 1, 2, 0, 5, 6}, uint16(9999))
	for sel := range 45 {
		seed := make([]byte, 400)
		x := uint32(sel + 1)
		for i := range seed {
			x = x*1664525 + 1013904223
			seed[i] = byte(x >> 24)
		}
		seed[0] = byte(sel)
		f.Add(seed, uint16(sel*211+40))
	}
	f.Fuzz(func(t *testing.T, data []byte, rounds uint16) {
		k := 1 + uint64(rounds)%10_000
		got, want := replayCase(t, data), replayCase(t, data)
		got.replayCalls(k)
		for range k {
			for i := range want.ff.calls {
				want.ff.calls[i].replay(want)
			}
		}
		if got.ff.rounds > k || got.ff.periods != k {
			t.Fatalf("replayed %d rounds of %d periods, for %d", got.ff.rounds, got.ff.periods, k)
		}
		for step := range 2 {
			if g, w := got.DL1.Stats(), want.DL1.Stats(); g != w {
				t.Fatalf("step %d: dL1 stats %+v, want %+v", step, g, w)
			}
			if g, w := got.DTLB.Stats(), want.DTLB.Stats(); g != w {
				t.Fatalf("step %d: dTLB stats %+v, want %+v", step, g, w)
			}
			if !bytes.Equal(snap.Marshal(got), snap.Marshal(want)) {
				t.Fatalf("step %d: State differs after %d rounds (%d replayed)", step, k, got.ff.rounds)
			}
			for _, m := range []*TM{got, want} {
				for j := range isa.Word(40) {
					m.DTLB.Access(0x100000 + j)
					m.DL1.Access(0x400000+j*4096, false)
				}
			}
		}
	})
}
