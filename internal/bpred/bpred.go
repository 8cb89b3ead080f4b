// Package bpred implements the branch predictors of the FAST prototype:
// perfect, fixed-accuracy ("97%" count-based), 2-bit saturating and gshare
// with a set-associative BTB (§4: "branch predictors (currently perfect, 2b
// saturating and gshare)"; the prototype target uses "a 4-way and 8K BTB
// gshare branch predictor").
//
// Since most branch predictors depend on timing information, the predictor
// proper lives in the timing model (§2.1); the functional model may run a
// "branch predictor predictor" — a second instance of the same structure —
// to keep the functional path close to the target path (ablation A3).
package bpred

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// Prediction is the front-end's guess for one fetched branch.
type Prediction struct {
	Taken  bool
	Target isa.Word // meaningful only when Taken and BTBHit
	BTBHit bool
}

// Predictor predicts conditional and indirect control flow. The trace-driven
// timing model knows the architectural outcome at prediction time, so
// Predict receives it; real predictors must ignore it (the perfect predictor
// is exactly the one that does not).
type Predictor interface {
	Name() string
	// Predict returns the front-end prediction for the branch at pc.
	// actualTaken/actualTarget are the architectural outcome (used only by
	// the perfect predictor).
	Predict(pc isa.Word, actualTaken bool, actualTarget isa.Word) Prediction
	// Update trains the predictor with the resolved outcome.
	Update(pc isa.Word, taken bool, target isa.Word)
}

// Stats accumulates prediction accuracy, including all branches (Figure 5
// counts unconditional branches and target mispredictions too).
type Stats struct {
	Branches    uint64
	Correct     uint64
	DirWrong    uint64 // direction mispredictions
	TargetWrong uint64 // direction right, target wrong (BTB miss/alias)
}

// Record classifies one prediction against the architectural outcome and
// reports whether it was a misprediction.
func (s *Stats) Record(p Prediction, taken bool, target isa.Word) bool {
	s.Branches++
	if p.Taken != taken {
		s.DirWrong++
		return true
	}
	if taken && (!p.BTBHit || p.Target != target) {
		s.TargetWrong++
		return true
	}
	s.Correct++
	return false
}

// Accuracy is correct predictions over all branches.
func (s Stats) Accuracy() float64 {
	if s.Branches == 0 {
		return 1
	}
	return float64(s.Correct) / float64(s.Branches)
}

// Mispredicts returns the total misprediction count.
func (s Stats) Mispredicts() uint64 { return s.DirWrong + s.TargetWrong }

// Perfect always predicts the architectural outcome. "Some studies, such as
// perfect branch predictor studies, cannot be done on Asim" (§5) — they can
// here.
type Perfect struct{}

// Name implements Predictor.
func (Perfect) Name() string { return "perfect" }

// Predict implements Predictor.
func (Perfect) Predict(_ isa.Word, taken bool, target isa.Word) Prediction {
	return Prediction{Taken: taken, Target: target, BTBHit: true}
}

// Update implements Predictor.
func (Perfect) Update(isa.Word, bool, isa.Word) {}

// Fixed is the count-based fixed-accuracy predictor of §4.5 ("a 97%
// count-based branch predictor"): it deterministically mispredicts the
// direction of every k-th branch so that the long-run accuracy is
// NumerN/DenomN.
type Fixed struct {
	period uint64 // mispredict every period-th branch
	n      uint64
	name   string
}

// NewFixed builds a predictor with the given accuracy in [0,1).
func NewFixed(accuracy float64) *Fixed {
	if accuracy < 0 || accuracy >= 1 {
		panic(fmt.Sprintf("bpred: fixed accuracy %v out of [0,1)", accuracy))
	}
	period := uint64(1.0/(1.0-accuracy) + 0.5)
	if period < 1 {
		period = 1
	}
	return &Fixed{period: period, name: fmt.Sprintf("fixed-%.0f%%", accuracy*100)}
}

// Name implements Predictor.
func (f *Fixed) Name() string { return f.name }

// Predict implements Predictor.
func (f *Fixed) Predict(_ isa.Word, taken bool, target isa.Word) Prediction {
	f.n++
	if f.n%f.period == 0 {
		return Prediction{Taken: !taken, Target: target, BTBHit: true}
	}
	return Prediction{Taken: taken, Target: target, BTBHit: true}
}

// Update implements Predictor.
func (f *Fixed) Update(isa.Word, bool, isa.Word) {}

// counter is a 2-bit saturating counter: 0,1 predict not-taken; 2,3 taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }
func (c *counter) train(taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// BTB is a set-associative branch target buffer with LRU replacement.
type BTB struct {
	sets    int
	ways    int
	tags    []isa.Word // sets × ways
	targets []isa.Word
	valid   []bool
	lru     []uint8
}

// NewBTB builds a BTB with entries total entries, ways-way associative.
func NewBTB(entries, ways int) *BTB {
	if entries%ways != 0 {
		panic("bpred: BTB entries must divide by ways")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("bpred: BTB set count must be a power of two")
	}
	n := sets * ways
	return &BTB{
		sets: sets, ways: ways,
		tags: make([]isa.Word, n), targets: make([]isa.Word, n),
		valid: make([]bool, n), lru: make([]uint8, n),
	}
}

func (b *BTB) set(pc isa.Word) int { return int(pc>>1) & (b.sets - 1) }

// Lookup returns the stored target for pc.
func (b *BTB) Lookup(pc isa.Word) (isa.Word, bool) {
	base := b.set(pc) * b.ways
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.valid[i] && b.tags[i] == pc {
			b.touch(base, w)
			return b.targets[i], true
		}
	}
	return 0, false
}

// Insert stores pc→target, evicting LRU.
func (b *BTB) Insert(pc, target isa.Word) {
	base := b.set(pc) * b.ways
	victim, oldest := 0, uint8(0)
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.valid[i] && b.tags[i] == pc {
			b.targets[i] = target
			b.touch(base, w)
			return
		}
		if !b.valid[i] {
			victim = w
			oldest = 255
			break
		}
		if b.lru[i] >= oldest {
			victim, oldest = w, b.lru[i]
		}
	}
	i := base + victim
	b.tags[i], b.targets[i], b.valid[i] = pc, target, true
	b.touch(base, victim)
}

// appendSet appends to dst pc's set: each way's tag, target, valid bit and
// LRU age.
func (b *BTB) appendSet(dst []byte, pc isa.Word) []byte {
	base := b.set(pc) * b.ways
	for i := base; i < base+b.ways; i++ {
		dst = binary.LittleEndian.AppendUint32(dst, b.tags[i])
		dst = binary.LittleEndian.AppendUint32(dst, b.targets[i])
		dst = append(dst, b.lru[i])
		if b.valid[i] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// touch marks way w most recently used within its set.
func (b *BTB) touch(base, w int) {
	for k := 0; k < b.ways; k++ {
		if b.lru[base+k] < 255 {
			b.lru[base+k]++
		}
	}
	b.lru[base+w] = 0
}

// TwoBit is a per-PC table of 2-bit saturating counters with a BTB.
type TwoBit struct {
	table []counter
	btb   *BTB
}

// NewTwoBit builds a 2-bit predictor with 2^logEntries counters and a BTB.
func NewTwoBit(logEntries int, btb *BTB) *TwoBit {
	return &TwoBit{table: make([]counter, 1<<logEntries), btb: btb}
}

// Name implements Predictor.
func (p *TwoBit) Name() string { return "2bit" }

func (p *TwoBit) index(pc isa.Word) int { return int(pc>>1) & (len(p.table) - 1) }

// Predict implements Predictor.
func (p *TwoBit) Predict(pc isa.Word, _ bool, _ isa.Word) Prediction {
	taken := p.table[p.index(pc)].taken()
	tgt, hit := p.btb.Lookup(pc)
	return Prediction{Taken: taken, Target: tgt, BTBHit: hit}
}

// Update implements Predictor.
func (p *TwoBit) Update(pc isa.Word, taken bool, target isa.Word) {
	p.table[p.index(pc)].train(taken)
	if taken {
		p.btb.Insert(pc, target)
	}
}

// Gshare is the prototype's default predictor: global history XOR PC
// indexing a pattern history table of 2-bit counters, plus a 4-way BTB.
type Gshare struct {
	pht     []counter
	history isa.Word
	bits    int
	btb     *BTB
}

// NewGshare builds a gshare predictor with 2^logEntries PHT counters,
// logEntries bits of global history and the given BTB.
func NewGshare(logEntries int, btb *BTB) *Gshare {
	return &Gshare{pht: make([]counter, 1<<logEntries), bits: logEntries, btb: btb}
}

// NewDefaultGshare is the paper's configuration: "a 4-way and 8K BTB gshare
// branch predictor" — an 8K-entry 4-way BTB with an 8K-entry PHT.
func NewDefaultGshare() *Gshare { return NewGshare(13, NewBTB(8192, 4)) }

// Name implements Predictor.
func (g *Gshare) Name() string { return "gshare" }

// index is the PHT counter pc trains under global history h.
func (g *Gshare) index(pc, h isa.Word) int {
	return int((pc>>1)^h) & (len(g.pht) - 1)
}

// shift returns history h after an outcome.
func (g *Gshare) shift(h isa.Word, taken bool) isa.Word {
	h = (h << 1) & (1<<g.bits - 1)
	if taken {
		h |= 1
	}
	return h
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc isa.Word, _ bool, _ isa.Word) Prediction {
	taken := g.pht[g.index(pc, g.history)].taken()
	tgt, hit := g.btb.Lookup(pc)
	return Prediction{Taken: taken, Target: tgt, BTBHit: hit}
}

// Update implements Predictor.
func (g *Gshare) Update(pc isa.Word, taken bool, target isa.Word) {
	g.pht[g.index(pc, g.history)].train(taken)
	g.history = g.shift(g.history, taken)
	if taken {
		g.btb.Insert(pc, target)
	}
}

// Walk lists, without applying them, the predictor state a run of Updates
// reads or writes, as that state stands before the run. Two walks of the
// same run that list the same bytes found the same state: the REP
// fast-forward compares the walks before and after a run to see whether it
// left everything it touched as it found it.
type Walk struct {
	p       Predictor
	history isa.Word
}

// NewWalk starts a walk of a run from p's present state and appends to dst
// what every update reads: the global history. Like State, it knows the
// predictors New builds and no others.
func NewWalk(dst []byte, p Predictor) (Walk, []byte) {
	w := Walk{p: p}
	switch v := p.(type) {
	case Perfect, *Fixed, *TwoBit:
	case *Gshare:
		w.history = v.history
		dst = binary.LittleEndian.AppendUint32(dst, v.history)
	default:
		panic("bpred: NewWalk: unknown predictor type " + p.Name())
	}
	return w, dst
}

// Next appends to dst what Update(pc, taken, ·) reads or writes when it
// follows the updates walked so far: the counter it trains and pc's BTB set.
// Perfect and fixed-accuracy predictors change nothing on an update.
func (w *Walk) Next(dst []byte, pc isa.Word, taken bool) []byte {
	switch v := w.p.(type) {
	case *TwoBit:
		dst = append(dst, byte(v.table[v.index(pc)]))
		return v.btb.appendSet(dst, pc)
	case *Gshare:
		dst = append(dst, byte(v.pht[v.index(pc, w.history)]))
		w.history = v.shift(w.history, taken)
		return v.btb.appendSet(dst, pc)
	}
	return dst
}

// constructors maps each configuration name to its predictor.
var constructors = map[string]func() Predictor{
	"perfect": func() Predictor { return Perfect{} },
	"gshare":  func() Predictor { return NewDefaultGshare() },
	"2bit":    func() Predictor { return NewTwoBit(13, NewBTB(8192, 4)) },
	"97%":     func() Predictor { return NewFixed(0.97) },
	"95%":     func() Predictor { return NewFixed(0.95) },
}

// Known reports whether New accepts name, without building any tables.
func Known(name string) bool { return constructors[name] != nil }

// New constructs a predictor by configuration name: "perfect", "gshare",
// "2bit", "97%" or "95%".
func New(name string) (Predictor, error) {
	if ctor := constructors[name]; ctor != nil {
		return ctor(), nil
	}
	return nil, fmt.Errorf("bpred: unknown predictor %q", name)
}
