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

// BTB is a set-associative branch target buffer with LRU replacement. Its
// entries are allocated by group on first insert: a run's branches reach a
// small part of the paper's 8K entries, and a group nobody filled reads as
// the all-invalid entries it would hold.
type BTB struct {
	sets   int
	ways   int
	groups []*btbGroup // sets × ways / groupEntries, rounded up; nil = never filled
}

// groupEntries is how many consecutive entries of the sets × ways order a
// btbGroup holds: groupEntries/ways whole sets.
const groupEntries = 64

// btbGroup is the BTB's unit of allocation (640 B).
type btbGroup struct {
	tags    [groupEntries]isa.Word
	targets [groupEntries]isa.Word
	valid   [groupEntries]bool
	lru     [groupEntries]uint8
}

// zeroGroup is what a group never filled reads as; nothing writes it.
var zeroGroup btbGroup

// NewBTB builds a BTB with entries total entries, ways-way associative.
func NewBTB(entries, ways int) *BTB {
	if entries%ways != 0 {
		panic("bpred: BTB entries must divide by ways")
	}
	if groupEntries%ways != 0 {
		panic(fmt.Sprintf("bpred: BTB ways must divide %d", groupEntries))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("bpred: BTB set count must be a power of two")
	}
	return &BTB{sets: sets, ways: ways, groups: make([]*btbGroup, (entries+groupEntries-1)/groupEntries)}
}

// slot returns the group index of pc's set and the set's first entry within
// that group.
func (b *BTB) slot(pc isa.Word) (int, int) {
	base := uint(int(pc>>1)&(b.sets-1)) * uint(b.ways)
	return int(base / groupEntries), int(base % groupEntries)
}

// Lookup returns the stored target for pc.
func (b *BTB) Lookup(pc isa.Word) (isa.Word, bool) {
	k, base := b.slot(pc)
	g := b.groups[k]
	if g == nil {
		return 0, false
	}
	for w := 0; w < b.ways; w++ {
		i := base + w
		if g.valid[i] && g.tags[i] == pc {
			g.touch(base, w, b.ways)
			return g.targets[i], true
		}
	}
	return 0, false
}

// Insert stores pc→target, evicting LRU.
func (b *BTB) Insert(pc, target isa.Word) {
	k, base := b.slot(pc)
	g := b.groups[k]
	if g == nil {
		g = new(btbGroup)
		b.groups[k] = g
	}
	victim, oldest := 0, uint8(0)
	for w := 0; w < b.ways; w++ {
		i := base + w
		if g.valid[i] && g.tags[i] == pc {
			g.targets[i] = target
			g.touch(base, w, b.ways)
			return
		}
		if !g.valid[i] {
			victim = w
			oldest = 255
			break
		}
		if g.lru[i] >= oldest {
			victim, oldest = w, g.lru[i]
		}
	}
	i := base + victim
	g.tags[i], g.targets[i], g.valid[i] = pc, target, true
	g.touch(base, victim, b.ways)
}

// appendSet appends to dst pc's set: each way's tag, target, valid bit and
// LRU age, all zero in a group never filled.
func (b *BTB) appendSet(dst []byte, pc isa.Word) []byte {
	k, base := b.slot(pc)
	g := b.groups[k]
	if g == nil {
		g = &zeroGroup
	}
	for i := base; i < base+b.ways; i++ {
		dst = binary.LittleEndian.AppendUint32(dst, g.tags[i])
		dst = binary.LittleEndian.AppendUint32(dst, g.targets[i])
		dst = append(dst, g.lru[i])
		if g.valid[i] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// touch marks way w of the set at base most recently used.
func (g *btbGroup) touch(base, w, ways int) {
	for k := base; k < base+ways; k++ {
		if g.lru[k] < 255 {
			g.lru[k]++
		}
	}
	g.lru[base+w] = 0
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
