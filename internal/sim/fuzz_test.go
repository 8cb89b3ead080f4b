package sim

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/isa"
)

// FuzzEngineAgreement is the cross-engine differential property: every
// simulator executes the same target, so an arbitrary bare-metal program —
// byte soup included, as in fm's FuzzSuperblockForm, whose seeds these are —
// must commit the same instructions and basic blocks on fast,
// fast-parallel, monolithic and lockstep, and leave the two engines that
// expose their functional model (sim.Coupled) in the same architected
// state: registers, flags, PC and all of memory. A target that dies is an
// error on all four. No input may panic or wedge an engine.
//
// A program that has not ended by the cap is compared at the cap: the
// trace-replay baselines stop on it exactly, the FAST engines at the next
// cycle boundary, up to one issue width later (TestEngineConformance).
func FuzzEngineAgreement(f *testing.F) {
	for _, src := range []string{
		`movi r0, 3
	loop:	addi r1, 3
		stw  r1, [r2+0x4000]
		ldw  r3, [r2+0x4000]
		dec  r0
		jnz  loop
		halt`,
		`movi r7, 0x5000
		ll   r1, [r7]
		addi r1, 1
		sc   r1, [r7]
		halt`,
		`movi r0, 0x1000
		movi r1, 0x22222222
		stw  r1, [r0]
		halt`,
		`movi r1, 0x8E00
		movi r2, 600
		inc  r3
		rep stos
		halt`,
		// Found by this fuzz target: bare metal delivers no interrupts, so
		// HALT with them enabled is as final as with them masked — the FAST
		// engines used to idle towards MaxCycles instead.
		`sti
		halt`,
		// A wrong-path rep stos runs off the end of memory with no IVT: the
		// fatal stop used to leave r1, r2 and the stored bytes behind for
		// the right path, which then looped on the clobbered r2 and read
		// 0xAA back.
		`movi r1, 0xFFFFF0
		movi r2, 64
		movi r3, 0xAA
		movi r5, 0
		cmpi r5, 0
		jz   right
		rep stos
		halt
	right:	mov  r0, r2
	loop:	dec  r0
		jnz  loop
		movi r5, 0xFFFFF0
		ldb  r6, [r5]
		halt`,
	} {
		f.Add(isa.MustAssemble(src, 0x1000).Code)
	}
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		const maxInst, capSlack = 2000, 2 // capSlack: the default issue width
		p := Params{Program: &isa.Program{Base: 0x1000, Code: code, Entry: 0x1000}, MaxInstructions: maxInst}
		// A wedged engine is a finding, not a hung fuzzer.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()

		engines := []string{"fast", "fast-parallel", "monolithic", "lockstep"}
		results := make([]Result, len(engines))
		errs := make([]error, len(engines))
		coupled := map[string]Coupled{}
		for i, name := range engines {
			eng, err := New(name, p)
			if err != nil {
				t.Fatalf("%s: configure: %v", name, err)
			}
			results[i], errs[i] = eng.RunContext(ctx)
			if c, ok := eng.(Coupled); ok {
				coupled[name] = c
			}
			if ctx.Err() != nil {
				t.Fatalf("%s: still running after 20 s: %v", name, errs[i])
			}
			// A target that dies (an unhandled trap) is an error on every
			// engine or on none.
			if (errs[i] != nil) != (errs[0] != nil) {
				t.Fatalf("%s: error %v, fast: error %v", name, errs[i], errs[0])
			}
		}
		if errs[0] != nil {
			return
		}

		ref := results[0]
		for i, name := range engines[1:] {
			r := results[i+1]
			if ref.Instructions < maxInst {
				// The program ended: nobody saw the cap, so agreement is exact.
				if r.Instructions != ref.Instructions || r.BasicBlocks != ref.BasicBlocks {
					t.Errorf("%s committed %d instructions / %d basic blocks, fast %d / %d",
						name, r.Instructions, r.BasicBlocks, ref.Instructions, ref.BasicBlocks)
				}
			} else if r.Instructions < maxInst || r.Instructions > maxInst+capSlack {
				t.Errorf("%s committed %d instructions at a cap of %d (fast: %d)",
					name, r.Instructions, maxInst, ref.Instructions)
			}
		}
		if ref.Instructions >= maxInst {
			return // stopped mid-flight at different cycle boundaries: no common final state
		}
		a, b := coupled["fast"].FunctionalModel(), coupled["fast-parallel"].FunctionalModel()
		if a.Scalars != b.Scalars {
			t.Errorf("final scalar state differs:\n fast          %+v\n fast-parallel %+v", a.Scalars, b.Scalars)
		}
		memA, memB := make([]byte, a.Mem.Size()), make([]byte, b.Mem.Size())
		a.Mem.CopyOut(memA, 0)
		b.Mem.CopyOut(memB, 0)
		if !bytes.Equal(memA, memB) {
			t.Error("final memory differs between fast and fast-parallel")
		}
	})
}
