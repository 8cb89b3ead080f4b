package isa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpcodeTableComplete(t *testing.T) {
	for _, op := range Opcodes() {
		in := Lookup(op)
		if in.Name == "" {
			t.Errorf("opcode %#x has no name", uint16(op))
		}
		if in.Op != op {
			t.Errorf("opcode %#x self-reference mismatch: %#x", uint16(op), uint16(in.Op))
		}
		if back, ok := ByName(in.Name); !ok || back != op {
			t.Errorf("ByName(%q) = %#x, %v; want %#x", in.Name, uint16(back), ok, uint16(op))
		}
	}
}

func TestOpcodeFitsElevenBits(t *testing.T) {
	// §4: "We have compressed opcodes to 11 bits". Every opcode, including
	// the secondary map, must be nameable in 11 bits for the trace encoding.
	for _, op := range Opcodes() {
		if op >= 1<<11 {
			t.Errorf("opcode %s = %#x does not fit in 11 bits", Lookup(op).Name, uint16(op))
		}
	}
}

func TestValid(t *testing.T) {
	if Valid(numPrimary) {
		t.Errorf("Valid(%#x) between maps = true", uint16(numPrimary))
	}
	if Valid(opSecondaryBase) {
		t.Error("Valid(secondary offset 0) = true; that slot is reserved")
	}
	if Valid(numSecondaryEnd) {
		t.Error("Valid(end of secondary map) = true")
	}
	if !Valid(OpNop) || !Valid(OpFAdd) || !Valid(OpCallFar) {
		t.Error("Valid rejects defined opcodes")
	}
}

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		0: "R0", 5: "R5", RegSP: "SP", RegLR: "LR", 15: "R15",
		FP(0): "F0", FP(7): "F7", RegNone: "-",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

// randomInst builds a well-formed random instruction for the round-trip
// property test.
func randomInst(r *rand.Rand) Inst {
	ops := Opcodes()
	op := ops[r.Intn(len(ops))]
	in := Lookup(op)
	inst := Inst{Op: op, Rd: RegNone, Rs: RegNone}
	gpr := func() Reg { return Reg(r.Intn(NumGPR)) }
	fpr := func() Reg { return FP(r.Intn(NumFPR)) }
	dreg := gpr
	if in.FP {
		dreg = fpr
	}
	switch in.Format {
	case FmtR:
		inst.Rd = dreg()
	case FmtRR:
		switch op {
		case OpI2F:
			inst.Rd, inst.Rs = fpr(), gpr()
		case OpF2I:
			inst.Rd, inst.Rs = gpr(), fpr()
		default:
			inst.Rd, inst.Rs = dreg(), dreg()
		}
	case FmtRI8:
		inst.Rd = dreg()
		inst.Imm = int64(int8(r.Intn(256)))
	case FmtI8R:
		inst.Rd = dreg()
		inst.Imm = int64(r.Intn(NumCR))
	case FmtRI32:
		inst.Rd = dreg()
		inst.Imm = int64(int32(r.Uint32()))
	case FmtRM:
		inst.Rd = dreg()
		inst.Rs = gpr()
		inst.Disp = int32(int16(r.Uint32()))
	case FmtRel16:
		inst.Imm = int64(int16(r.Uint32()))
	case FmtI16R:
		inst.Rd = gpr()
		inst.Imm = int64(uint16(r.Uint32()))
	case FmtFI64:
		inst.Rd = fpr()
		inst.Imm = int64(math.Float64bits(r.NormFloat64()))
	case FmtI32:
		inst.Imm = int64(r.Uint32())
	}
	if r.Intn(8) == 0 {
		inst.Rep = true
	}
	if r.Intn(16) == 0 {
		inst.Lock = true
	}
	return inst
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		want := randomInst(r)
		buf, err := Encode(nil, want)
		if err != nil {
			t.Fatalf("Encode(%v): %v", want, err)
		}
		if len(buf) > MaxInstLen {
			t.Fatalf("Encode(%v) = %d bytes > MaxInstLen", want, len(buf))
		}
		got, err := Decode(buf, 0)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", want, err)
		}
		want.Size = len(buf)
		if got != want {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"bare prefix", []byte{PrefixREP}},
		{"bare escape", []byte{escapeByte}},
		{"undefined primary", []byte{byte(numPrimary) + 3}},
		{"undefined secondary", []byte{escapeByte, 0}},
		{"truncated rr", []byte{byte(OpAddRR)}},
		{"truncated imm32", []byte{byte(OpMovRI), 0x10, 1, 2}},
		{"triple prefix", []byte{PrefixREP, PrefixLock, PrefixREP, byte(OpMovs)}},
	}
	for _, c := range cases {
		if inst, err := Decode(c.buf, 0x100); err == nil {
			t.Errorf("%s: Decode succeeded, want error", c.name)
		} else if de, ok := err.(*DecodeError); !ok {
			t.Errorf("%s: error type %T, want *DecodeError", c.name, err)
		} else if de.PC != 0x100 {
			t.Errorf("%s: DecodeError.PC = %#x, want 0x100", c.name, de.PC)
		} else if inst != (Inst{}) {
			// The predecode cache and fault paths rely on failed decodes
			// never leaking a partially-populated instruction.
			t.Errorf("%s: Decode returned non-zero Inst %+v alongside error", c.name, inst)
		}
	}
}

func TestDecodeImmediateSignExtension(t *testing.T) {
	buf, err := Encode(nil, Inst{Op: OpMovRI8, Rd: 3, Imm: -5})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Decode(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Imm != -5 {
		t.Errorf("imm8 sign extension: got %d, want -5", inst.Imm)
	}
}

func TestEncodeRangeChecks(t *testing.T) {
	if _, err := Encode(nil, Inst{Op: OpJmp, Imm: 1 << 20}); err == nil {
		t.Error("rel16 overflow not rejected")
	}
	if _, err := Encode(nil, Inst{Op: OpMovRI8, Rd: 0, Imm: 1 << 10}); err == nil {
		t.Error("imm8 overflow not rejected")
	}
	if _, err := Encode(nil, Inst{Op: OpLdW, Rd: 0, Rs: 1, Disp: 1 << 20}); err == nil {
		t.Error("disp16 overflow not rejected")
	}
	if _, err := Encode(nil, Inst{Op: OpIn, Rd: 0, Imm: 1 << 17}); err == nil {
		t.Error("port16 overflow not rejected")
	}
}

func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	// Property: Decode must return, not panic, on arbitrary byte soup —
	// the functional model feeds it raw target memory.
	f := func(buf []byte) bool {
		inst, err := Decode(buf, 0)
		if err == nil && (inst.Size <= 0 || inst.Size > MaxInstLen) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		inst Inst
		want string
	}{
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpMovRI, Rd: 2, Imm: 42}, "movi R2, 42"},
		{Inst{Op: OpLdW, Rd: 1, Rs: 2, Disp: -4}, "ldw R1, [R2-4]"},
		{Inst{Op: OpMovs, Rep: true}, "rep movs"},
		{Inst{Op: OpJz, Imm: 16}, "jz +16"},
		{Inst{Op: OpFAdd, Rd: FP(1), Rs: FP(2)}, "fadd F1, F2"},
	}
	for _, c := range cases {
		if got := c.inst.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
