package bpred

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/snap"
)

func TestPerfect(t *testing.T) {
	var p Perfect
	var s Stats
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		pc := isa.Word(r.Uint32())
		taken := r.Intn(2) == 0
		target := isa.Word(r.Uint32())
		pred := p.Predict(pc, taken, target)
		if s.Record(pred, taken, target) {
			t.Fatal("perfect predictor mispredicted")
		}
	}
	if s.Accuracy() != 1.0 {
		t.Errorf("accuracy %v", s.Accuracy())
	}
}

func TestFixedAccuracy(t *testing.T) {
	for _, acc := range []float64{0.97, 0.95, 0.92} {
		p := NewFixed(acc)
		var s Stats
		for i := 0; i < 100000; i++ {
			pred := p.Predict(0x100, true, 0x200)
			s.Record(pred, true, 0x200)
		}
		got := s.Accuracy()
		if got < acc-0.02 || got > acc+0.02 {
			t.Errorf("fixed %.2f delivered %.4f", acc, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewFixed(1.0) did not panic")
		}
	}()
	NewFixed(1.0)
}

func TestTwoBitLearnsBias(t *testing.T) {
	p := NewTwoBit(10, NewBTB(64, 4))
	var s Stats
	// Strongly biased taken branch: after warmup it should predict taken.
	for i := 0; i < 100; i++ {
		pred := p.Predict(0x40, true, 0x80)
		s.Record(pred, true, 0x80)
		p.Update(0x40, true, 0x80)
	}
	if s.Accuracy() < 0.95 {
		t.Errorf("2-bit accuracy %.3f on a monotone branch", s.Accuracy())
	}
	// Hysteresis: one not-taken shouldn't flip the prediction.
	p.Update(0x40, false, 0)
	if !p.Predict(0x40, true, 0x80).Taken {
		t.Error("2-bit counter flipped after a single contrary outcome")
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	// Alternating T,N,T,N is hopeless for a 2-bit counter but trivial for
	// global history.
	g := NewGshare(12, NewBTB(256, 4))
	two := NewTwoBit(12, NewBTB(256, 4))
	var gs, ts Stats
	pc := isa.Word(0x1234)
	tgt := isa.Word(0x2000)
	for i := 0; i < 4000; i++ {
		taken := i%2 == 0
		gp := g.Predict(pc, taken, tgt)
		gs.Record(gp, taken, tgt)
		g.Update(pc, taken, tgt)
		tp := two.Predict(pc, taken, tgt)
		ts.Record(tp, taken, tgt)
		two.Update(pc, taken, tgt)
	}
	if gs.Accuracy() < 0.95 {
		t.Errorf("gshare accuracy %.3f on alternating pattern", gs.Accuracy())
	}
	if gs.Accuracy() <= ts.Accuracy() {
		t.Errorf("gshare (%.3f) not better than 2-bit (%.3f) on pattern",
			gs.Accuracy(), ts.Accuracy())
	}
}

func TestBTBLRUAndAliasing(t *testing.T) {
	b := NewBTB(8, 2) // 4 sets × 2 ways
	// Two PCs mapping to the same set fit; a third evicts the LRU.
	set0 := func(i int) isa.Word { return isa.Word(i*8) << 1 } // same set index
	b.Insert(set0(0), 0x100)
	b.Insert(set0(1), 0x200)
	if _, ok := b.Lookup(set0(0)); !ok {
		t.Fatal("entry 0 missing")
	}
	// Touch 0 so 1 becomes LRU; insert 2 -> evicts 1.
	b.Insert(set0(2), 0x300)
	if _, ok := b.Lookup(set0(1)); ok {
		t.Error("LRU entry survived eviction")
	}
	if tgt, ok := b.Lookup(set0(0)); !ok || tgt != 0x100 {
		t.Error("MRU entry evicted")
	}
	if tgt, ok := b.Lookup(set0(2)); !ok || tgt != 0x300 {
		t.Error("new entry missing")
	}
}

func TestBTBTargetUpdate(t *testing.T) {
	b := NewBTB(64, 4)
	b.Insert(0x10, 0x100)
	b.Insert(0x10, 0x180) // indirect branch changed target
	if tgt, _ := b.Lookup(0x10); tgt != 0x180 {
		t.Errorf("target = %#x, want 0x180", tgt)
	}
}

func TestStatsTargetMisprediction(t *testing.T) {
	var s Stats
	// Direction right, target wrong (BTB miss).
	miss := s.Record(Prediction{Taken: true, BTBHit: false}, true, 0x100)
	if !miss || s.TargetWrong != 1 {
		t.Errorf("BTB miss not a misprediction: %+v", s)
	}
	// Direction right, stale target.
	miss = s.Record(Prediction{Taken: true, BTBHit: true, Target: 0x999}, true, 0x100)
	if !miss || s.TargetWrong != 2 {
		t.Errorf("stale target not a misprediction: %+v", s)
	}
	// Not-taken prediction needs no target.
	miss = s.Record(Prediction{Taken: false}, false, 0)
	if miss || s.Correct != 1 {
		t.Errorf("not-taken correct prediction misclassified: %+v", s)
	}
	if s.Mispredicts() != 2 {
		t.Errorf("mispredicts = %d", s.Mispredicts())
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"perfect", "gshare", "2bit", "97%", "95%"} {
		p, err := New(name)
		if err != nil || p == nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown predictor accepted")
	}
}

func TestBTBConstructionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBTB(10, 4) }, // not divisible
		func() { NewBTB(24, 4) }, // sets not power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad BTB construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestEmptyStatsAccuracy(t *testing.T) {
	var s Stats
	if s.Accuracy() != 1 {
		t.Error("empty stats accuracy should be 1")
	}
}

// predState walks a predictor's state for snap.Marshal.
type predState struct{ p Predictor }

func (s predState) State(c *snap.Codec) { State(c, s.p) }

// TestWalk: when the walks of a run of updates list the same bytes before
// and after it, the run left the predictor exactly as it found it. Each
// trial repeats a random run a random number of times first, so that the
// history settles while counters and BTB ages may still be moving; with a
// direct-mapped BTB, which settles at once, only the counters can tell.
func TestWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	settled := 0
	for trial := range 3000 {
		p := []Predictor{
			NewGshare(6, NewBTB(16, 1)),
			NewGshare(6, NewBTB(16, 4)),
			NewTwoBit(6, NewBTB(16, 1)),
			NewFixed(0.97),
		}[trial%4]
		pc := func() isa.Word { return isa.Word(0x100 + rng.Intn(4)*0x20 + rng.Intn(2)*2) }
		for range rng.Intn(300) {
			p.Update(pc(), rng.Intn(2) == 0, pc())
		}
		type update struct {
			pc, target isa.Word
			taken      bool
		}
		run := make([]update, 1+rng.Intn(6))
		for i := range run {
			run[i] = update{pc(), pc(), rng.Intn(2) == 0}
		}
		apply := func() {
			for _, u := range run {
				p.Update(u.pc, u.taken, u.target)
			}
		}
		walk := func() []byte {
			w, dst := NewWalk(nil, p)
			for _, u := range run {
				dst = w.Next(dst, u.pc, u.taken)
			}
			return dst
		}
		for range rng.Intn(8) {
			apply()
		}
		before, state := walk(), snap.Marshal(predState{p})
		apply()
		if bytes.Equal(before, walk()) {
			settled++
			if !bytes.Equal(state, snap.Marshal(predState{p})) {
				t.Fatalf("trial %d, %s: the walks agree but the run changed the predictor", trial, p.Name())
			}
		}
	}
	if settled < 1000 {
		t.Errorf("only %d of 3000 runs settled", settled)
	}
}
