package microcode

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func compileOK(t *testing.T, src string) []UOp {
	t.Helper()
	ops, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return ops
}

func TestCompileSimpleALU(t *testing.T) {
	ops := compileOK(t, `rd = rd + rs; cc(rd)`)
	if len(ops) != 1 {
		t.Fatalf("add compiles to %d µops, want 1 (cc must fuse): %v", len(ops), ops)
	}
	u := ops[0]
	if u.Kind != UAdd || u.Dst != PRd || u.A != PRd || u.B != PRs || !u.WritesCC {
		t.Errorf("add µop = %v", u)
	}
}

func TestCompileImmediateOperand(t *testing.T) {
	ops := compileOK(t, `rd = rd + imm; cc(rd)`)
	if len(ops) != 1 {
		t.Fatalf("addi compiles to %d µops, want 1: %v", len(ops), ops)
	}
	if ops[0].ImmSrc != ImmFromImm || ops[0].B != MRegNone {
		t.Errorf("addi µop = %v; want immediate B operand", ops[0])
	}
}

func TestCompileLoad(t *testing.T) {
	ops := compileOK(t, `rd = load32(agen(rb, disp))`)
	if len(ops) != 2 {
		t.Fatalf("ldw compiles to %d µops, want 2 (agen + load): %v", len(ops), ops)
	}
	if ops[0].Kind != UAgen || ops[0].ImmSrc != ImmFromDisp {
		t.Errorf("µop 0 = %v, want agen #disp", ops[0])
	}
	if ops[1].Kind != ULoad || ops[1].Dst != PRd || ops[1].Imm != 4 {
		t.Errorf("µop 1 = %v, want load32 into rd", ops[1])
	}
	if ops[1].A != ops[0].Dst {
		t.Errorf("load address %v does not read agen result %v", ops[1].A, ops[0].Dst)
	}
}

func TestCompileStore(t *testing.T) {
	ops := compileOK(t, `store32(agen(rb, disp), rd)`)
	if len(ops) != 2 {
		t.Fatalf("stw compiles to %d µops, want 2: %v", len(ops), ops)
	}
	if ops[1].Kind != UStore || ops[1].B != PRd || ops[1].Imm != 4 {
		t.Errorf("store µop = %v", ops[1])
	}
}

func TestCompilePushPop(t *testing.T) {
	push := compileOK(t, `sp = sp - 4; store32(sp, rd)`)
	if len(push) != 2 {
		t.Fatalf("push = %d µops, want 2: %v", len(push), push)
	}
	pop := compileOK(t, `rd = load32(sp); sp = sp + 4`)
	if len(pop) != 2 {
		t.Fatalf("pop = %d µops, want 2: %v", len(pop), pop)
	}
}

func TestCompileTestIdiom(t *testing.T) {
	// cc(rd & rs): the AND result is only needed for flags; the and must
	// carry the fused CC write and survive dead-code elimination.
	ops := compileOK(t, `cc(rd & rs)`)
	if len(ops) != 1 {
		t.Fatalf("test idiom = %d µops, want 1: %v", len(ops), ops)
	}
	if ops[0].Kind != UAnd || !ops[0].WritesCC {
		t.Errorf("test µop = %v", ops[0])
	}
}

func TestCompileCopyPropagation(t *testing.T) {
	// Without propagation this is movi t0; mov rd — with it, one µop.
	ops := compileOK(t, `t0 = 5; rd = t0`)
	if len(ops) != 1 || ops[0].Kind != UMovImm || ops[0].Dst != PRd {
		t.Errorf("copy propagation failed: %v", ops)
	}
}

func TestCompileDeadTempElimination(t *testing.T) {
	ops := compileOK(t, `t0 = rs + 1; rd = rs`)
	if len(ops) != 1 {
		t.Errorf("dead temp not eliminated: %v", ops)
	}
}

func TestCompileEmptyIsNop(t *testing.T) {
	ops := compileOK(t, ``)
	if len(ops) != 1 || ops[0].Kind != UNop {
		t.Errorf("empty spec = %v, want single unop", ops)
	}
}

func TestCompilePrecedence(t *testing.T) {
	// rd = rs + 2 * 3 must multiply first: with constant operands the
	// shape is movi t, 2; mul t, t, 3(imm); add rd, rs, t — check the mul
	// feeds the add, not vice versa.
	ops := compileOK(t, `rd = rs + t1 * t2`)
	last := ops[len(ops)-1]
	if last.Kind != UAdd || last.Dst != PRd {
		t.Fatalf("final µop %v, want add into rd", last)
	}
	if ops[0].Kind != UMul {
		t.Errorf("first µop %v, want mul (precedence)", ops[0])
	}
}

func TestCompileParentheses(t *testing.T) {
	ops := compileOK(t, `rd = (rd + rs) * t0`)
	if ops[0].Kind != UAdd || ops[len(ops)-1].Kind != UMul {
		t.Errorf("parenthesized add must come first: %v", ops)
	}
}

func TestCompileUnary(t *testing.T) {
	neg := compileOK(t, `rd = -rd; cc(rd)`)
	if len(neg) != 2 || neg[1].Kind != USub || !neg[1].WritesCC {
		t.Errorf("neg = %v", neg)
	}
	not := compileOK(t, `rd = ~rd; cc(rd)`)
	if len(not) != 1 || not[0].Kind != UXor || not[0].Imm != -1 {
		t.Errorf("not = %v", not)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		`rd = `,
		`bogus(rd)`,
		`rd = frob(rs)`,
		`rd = rq`,
		`agen(rd)`,            // statement with value but also wrong arity
		`rd = agen(rb, rs)`,   // agen offset must be immediate
		`rd = load32(rb, rs)`, // arity
		`99 = rd`,             // bad destination shape (parses as expr stmt)
		`rd = rd +`,           // dangling operator
		`sys(rd)`,             // sys code must be literal
	}
	for _, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestCompileTempExhaustion(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		b.WriteString(`store32(agen(rb, 0), rd + 1);`)
	}
	if _, err := Compile(b.String()); err == nil {
		t.Error("expected temp exhaustion error")
	}
}

func TestNewTableCoversEveryOpcode(t *testing.T) {
	tab := NewTable()
	for _, op := range isa.Opcodes() {
		e := tab.Entry(op)
		if e.Template == nil {
			t.Errorf("%s: nil template", isa.Lookup(op).Name)
		}
		if len(e.Template) == 0 {
			t.Errorf("%s: empty template", isa.Lookup(op).Name)
		}
	}
}

func TestTableSources(t *testing.T) {
	tab := NewTable()
	cases := map[isa.Op]Source{
		isa.OpAddRR:   SourceAuto,
		isa.OpLdW:     SourceAuto,
		isa.OpSyscall: SourceHand,
		isa.OpTlbWr:   SourceHand,
		isa.OpFAdd:    SourceNop,
		isa.OpFDiv:    SourceNop,
		isa.OpFMov:    SourceAuto,
	}
	for op, want := range cases {
		e := tab.Entry(op)
		if e.Source != want {
			t.Errorf("%s source = %v, want %v", isa.Lookup(op).Name, e.Source, want)
		}
		if e.Valid != (want != SourceNop) {
			t.Errorf("%s valid = %v inconsistent with source %v", isa.Lookup(op).Name, e.Valid, want)
		}
	}
}

func TestTableUopBudgets(t *testing.T) {
	// Table 1 reports 1.15–1.51 dynamic µops/inst; statically the common
	// instructions must be 1 µop and memory operations 2.
	tab := NewTable()
	want := map[isa.Op]int{
		isa.OpNop: 1, isa.OpMovRR: 1, isa.OpAddRR: 1, isa.OpAddRI: 1,
		isa.OpCmpRR: 1, isa.OpJz: 1, isa.OpRet: 1, isa.OpLea: 1,
		isa.OpLdW: 2, isa.OpStW: 2, isa.OpPush: 2, isa.OpPop: 2,
		isa.OpCall: 2, isa.OpLoop: 2,
		isa.OpMovs: 4, isa.OpStos: 2, isa.OpLods: 2, isa.OpCmps: 5,
	}
	for op, n := range want {
		if got := tab.Entry(op).UopCount(); got != n {
			t.Errorf("%s: %d µops, want %d: %v",
				isa.Lookup(op).Name, got, n, tab.Entry(op).Template)
		}
	}
}

func TestCrackSubstitution(t *testing.T) {
	tab := NewTable()
	inst := isa.Inst{Op: isa.OpAddRR, Rd: 3, Rs: 7}
	c := tab.Crack(inst, 1)
	if !c.Valid || c.Count != 1 {
		t.Fatalf("crack = %+v", c)
	}
	u := c.UOps[0]
	if u.Dst != 3 || u.A != 3 || u.B != 7 {
		t.Errorf("substitution failed: %v", u)
	}

	ld := isa.Inst{Op: isa.OpLdW, Rd: 5, Rs: 2, Disp: -12}
	c = tab.Crack(ld, 1)
	if c.UOps[0].Imm != -12 || c.UOps[0].ImmSrc != ImmLit {
		t.Errorf("disp substitution failed: %v", c.UOps[0])
	}
	if c.UOps[0].A != 2 || c.UOps[1].Dst != 5 {
		t.Errorf("register substitution failed: %v", c.UOps)
	}
}

func TestCrackRep(t *testing.T) {
	tab := NewTable()
	movs := isa.Inst{Op: isa.OpMovs, Rep: true}
	c := tab.Crack(movs, 10)
	perIter := tab.Entry(isa.OpMovs).UopCount() + len(tab.RepOverhead())
	if c.Count != 10*perIter {
		t.Errorf("rep movs ×10 = %d µops, want %d", c.Count, 10*perIter)
	}
	if len(c.UOps) != perIter {
		t.Errorf("rep movs iteration = %d µops, want %d", len(c.UOps), perIter)
	}
	// Zero-iteration REP still pays loop control.
	c = tab.Crack(movs, 0)
	if c.Count != len(tab.RepOverhead()) {
		t.Errorf("rep movs ×0 = %d µops, want %d", c.Count, len(tab.RepOverhead()))
	}
}

func TestCrackNopReplaced(t *testing.T) {
	tab := NewTable()
	c := tab.Crack(isa.Inst{Op: isa.OpFAdd, Rd: isa.FP(0), Rs: isa.FP(1)}, 1)
	if c.Valid {
		t.Error("fadd should be invalid (NOP-replaced)")
	}
	if c.Count != 1 || c.UOps[0].Kind != UNop {
		t.Errorf("fadd crack = %+v, want single unop", c)
	}
}

func TestCoverageStats(t *testing.T) {
	tab := NewTable()
	var s CoverageStats
	for i := 0; i < 3; i++ {
		s.Add(tab.Crack(isa.Inst{Op: isa.OpAddRR}, 1))
	}
	s.Add(tab.Crack(isa.Inst{Op: isa.OpFAdd}, 1))
	if got := s.Fraction(); got != 0.75 {
		t.Errorf("fraction = %v, want 0.75", got)
	}
	if got := s.UopsPerInst(); got != 1.0 {
		t.Errorf("µops/inst = %v, want 1.0", got)
	}
	s.Add(tab.Crack(isa.Inst{Op: isa.OpLdW}, 1))
	if got := s.UopsPerInst(); got != 1.2 {
		t.Errorf("µops/inst = %v, want 1.2", got)
	}
	var m CoverageStats
	m.Merge(s)
	if m != s {
		t.Errorf("merge mismatch: %+v vs %+v", m, s)
	}
}

func TestUOpAndMRegStrings(t *testing.T) {
	u := UOp{Kind: UAdd, Dst: PRd, A: PRs, B: Tmp(2), WritesCC: true}
	if got := u.String(); !strings.Contains(got, "<rd>") || !strings.Contains(got, "t2") || !strings.Contains(got, "!cc") {
		t.Errorf("UOp.String() = %q", got)
	}
	if MRegPC.String() != "pc" || MRegCC.String() != "cc" || MRegNone.String() != "-" {
		t.Error("special MReg names wrong")
	}
}

func TestUKindClass(t *testing.T) {
	cases := map[UKind]isa.Class{
		UAdd: isa.ClassALU, ULoad: isa.ClassLoad, UStore: isa.ClassStore,
		UBr: isa.ClassBranch, UFMul: isa.ClassFPU, USys: isa.ClassSystem,
		UIO: isa.ClassSystem, UAgen: isa.ClassALU,
	}
	for k, want := range cases {
		if got := k.Class(); got != want {
			t.Errorf("%v.Class() = %v, want %v", k, got, want)
		}
	}
}

func TestListingMentionsEveryMnemonic(t *testing.T) {
	listing := NewTable().Listing()
	for _, op := range isa.Opcodes() {
		if !strings.Contains(listing, isa.Lookup(op).Name) {
			t.Errorf("listing missing %s", isa.Lookup(op).Name)
		}
	}
}

// TestCompileArbitraryInputNeverPanics: the µC compiler consumes the spec
// table and user experiments; garbage must produce errors, not panics.
func TestCompileArbitraryInputNeverPanics(t *testing.T) {
	f := func(src string) bool {
		_, _ = Compile(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"(", ")", "=", ";;;", "rd =", "= rd", "rd = ((((", "cc(",
		"rd = 1 +", "store32(1", "t99 = 1", "rd = -", "rd = ~",
		"rd = rd >>>> rs", "jump()(", "sys(sys(1))",
	} {
		_, _ = Compile(src)
	}
}

// referenceCrack is the independent cracking implementation
// TestPrecrackMatchesCrack compares production against: it expands the table
// templates afresh on every call, as Table.Crack did before it became
// Precrack + Precracked.Crack.
func referenceCrack(t *Table, inst isa.Inst, iterations int) Crack {
	e := t.Entry(inst.Op)
	body := instantiate(nil, e.Template, inst)
	c := Crack{Valid: e.Valid}
	if !inst.Rep {
		c.UOps = body
		c.Count = len(body)
		return c
	}
	over := instantiate(nil, t.RepOverhead(), inst)
	c.UOps = append(body, over...)
	if iterations < 1 {
		c.UOps = over
		c.Count = len(over)
		return c
	}
	c.Count = iterations * (len(body) + len(over))
	return c
}

func TestPrecrackMatchesCrack(t *testing.T) {
	// Production cracks through Precrack + Precracked.Crack (memoized by the
	// predecode cache, and what Table.Crack itself calls); bit-identical
	// traces require exact equivalence with the reference expansion for
	// every opcode, with and without REP, at every iteration count shape
	// (0 = loop-control only, 1, and >1).
	tab := NewTable()
	for _, op := range isa.Opcodes() {
		for _, rep := range []bool{false, true} {
			inst := isa.Inst{Op: op, Rd: 3, Rs: 7, Imm: 5, Disp: -12, Size: 4, Rep: rep}
			pre := tab.Precrack(inst)
			for _, iters := range []int{0, 1, 3, 5, 10} {
				want := referenceCrack(tab, inst, iters)
				for _, got := range []Crack{pre.Crack(iters), tab.Crack(inst, iters)} {
					if got.Valid != want.Valid || got.Count != want.Count {
						t.Fatalf("%s rep=%v iters=%d: got {Valid:%v Count:%d}, want {Valid:%v Count:%d}",
							isa.Lookup(op).Name, rep, iters, got.Valid, got.Count, want.Valid, want.Count)
					}
					if len(got.UOps) != len(want.UOps) {
						t.Fatalf("%s rep=%v iters=%d: %d µops, want %d",
							isa.Lookup(op).Name, rep, iters, len(got.UOps), len(want.UOps))
					}
					for i := range got.UOps {
						if got.UOps[i] != want.UOps[i] {
							t.Fatalf("%s rep=%v iters=%d µop %d: got %v, want %v",
								isa.Lookup(op).Name, rep, iters, i, got.UOps[i], want.UOps[i])
						}
					}
				}
			}
		}
	}
}

// TestPrecrackOneAllocation: a Precracked is one µop slice, so memoizing an
// instruction allocates once whether or not it carries a REP prefix.
func TestPrecrackOneAllocation(t *testing.T) {
	tab := NewTable()
	for _, inst := range []isa.Inst{
		{Op: isa.OpAddRR, Rd: 1, Rs: 2, Size: 2},
		{Op: isa.OpMovs, Size: 2, Rep: true},
	} {
		if n := testing.AllocsPerRun(100, func() { tab.Precrack(inst) }); n != 1 {
			t.Errorf("Precrack(%s rep=%v) allocates %v times, want 1", isa.Lookup(inst.Op).Name, inst.Rep, n)
		}
	}
}
