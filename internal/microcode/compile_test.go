package microcode

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
)

// stableCalls is every intrinsic with the operand kinds it accepts: plain
// registers, expressions that need temporaries (so evaluation order shows
// in the temporary numbers), and each immediate form — imm, disp, a
// literal and a negated literal.
var stableCalls = []string{
	"load8(rs)", "load16(rs + 4)", "load32(agen(rb, disp))", "load64(sp)",
	"store8(rs, rd)", "store16(rs + 1, rd - 1)", "store32(sp, 7)", "store64(agen(rb, disp), fd)",
	"agen(rb, disp)", "agen(rs + rd, imm)", "agen(sp, -8)", "agen(rs, 12)",
	"cc(rd)", "cc(rd & rs)",
	"cmp(rd, rs)", "cmp(rd, imm)", "cmp(rd + 1, rs * 2)", "cmp(t0, -3)",
	"jump()", "jumpr(rd)", "jumpr(lr + 4)",
	"fadd(fd, fs)", "fsub(fd + 1, fs)", "fmul(fd, fs)", "fdiv(fd, fs + 2)",
	"fcmp(fd, fs)", "fcmp(fd + 1, fs + 2)",
	"fsqrt(fs)", "fmov(fs)", "fcvt(rs + 1)",
	"sys(0)", "sys(imm)", "sys(-1)",
	"sysr(6, rd)", "sysr(6, rd + 1)",
	"sysrr(3, rd, rs)", "sysrr(3, rd + 1, rs + 2)",
	"sysval(5)", "sysval(disp)",
	"ioin(imm)", "ioin(0x40)",
	"ioout(imm, rd)", "ioout(3, rs + 1)",
}

// stablePositions places a call where its value is dropped, where it
// lands in a named register, where it lands in a temporary that is read
// afterwards, and where it is an operand of another expression.
var stablePositions = []string{"%s", "rd = %s", "t3 = %s; rd = t3 + 1", "rd = rs + %s"}

// stableErrors are malformed calls: wrong arity, a register where a code
// or a port belongs, and unknown intrinsics.
var stableErrors = []string{
	"load32()", "load8(rs, rs)", "store32(rs)", "store8(rs, rd, rd)",
	"agen(rb)", "agen(rb, disp, 1)", "cc()", "cc(rd, rs)",
	"cmp(rd)", "cmp(rd, rs, 1)", "jump(rd)", "jumpr()", "jumpr(rd, rs)",
	"fadd(fd)", "fcmp(fd, fs, fs)", "fsqrt()", "fmov(fs, fs)",
	"sys()", "sys(1, rd)", "sysr(6)", "sysrr(3, rd)", "sysval()", "ioin()", "ioout(3)",
	"sys(rd)", "sys(rs + 1)", "sysr(rd, rs)", "sysrr(rs, rd, rs)", "sysval(rd)",
	"ioin(rd)", "ioout(rs, rd)", "agen(rb, rs)",
	"frob(rd)", "rd = load24(rs)", "rd = rs + bogus()",
}

// renderCompileStable prints the compiler's whole observable output: every
// table template and the REP overhead as %#v, then each corpus spec with its
// µops or "error". Error texts are not part of it.
func renderCompileStable() string {
	var b strings.Builder
	ops := func(us []UOp) {
		for _, u := range us {
			fmt.Fprintf(&b, "    %#v\n", u)
		}
	}
	tab := NewTable()
	for _, op := range isa.Opcodes() {
		e := tab.Entry(op)
		fmt.Fprintf(&b, "%s [%s] valid=%v\n", isa.Lookup(op).Name, e.Source, e.Valid)
		ops(e.Template)
	}
	b.WriteString("rep overhead\n")
	ops(tab.RepOverhead())
	var corpus []string
	for _, call := range stableCalls {
		for _, pos := range stablePositions {
			corpus = append(corpus, fmt.Sprintf(pos, call))
		}
	}
	for _, src := range append(corpus, stableErrors...) {
		fmt.Fprintf(&b, "%s\n", src)
		us, err := Compile(src)
		if err != nil {
			b.WriteString("    error\n")
			continue
		}
		ops(us)
	}
	return b.String()
}

// TestCompileStable pins every µop the compiler emits — the whole table,
// the REP overhead, and a corpus of every intrinsic in four positions plus
// malformed calls — to the text in testdata/compile_stable.golden.
func TestCompileStable(t *testing.T) {
	want, err := os.ReadFile("testdata/compile_stable.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderCompileStable()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("compiler output differs at line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

// validOperand reports whether m is a register a template may name: none,
// an architectural GPR, a placeholder, a temporary, or the PC.
func validOperand(m MReg) bool {
	return m == MRegNone || m < isa.NumGPR || m == PRd || m == PRs || m.IsTmp() || m == MRegPC
}

// FuzzCompile: Compile never panics, is deterministic, and every µop it
// emits names only valid operands and carries no immediate without a
// source.
func FuzzCompile(f *testing.F) {
	for _, src := range specs {
		f.Add(src)
	}
	for _, src := range handSpecs {
		f.Add(src)
	}
	f.Add(repOverheadSpec)
	f.Fuzz(func(t *testing.T, src string) {
		ops, err := Compile(src)
		again, err2 := Compile(src)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(ops, again) {
			t.Fatalf("Compile(%q) is not deterministic: %v, %v / %v, %v", src, ops, err, again, err2)
		}
		for _, u := range ops {
			if !validOperand(u.Dst) || !validOperand(u.A) || !validOperand(u.B) {
				t.Fatalf("Compile(%q): µop %#v names an invalid register", src, u)
			}
			if u.ImmSrc == ImmNone && u.Imm != 0 {
				t.Fatalf("Compile(%q): µop %#v has an immediate without a source", src, u)
			}
		}
	})
}
