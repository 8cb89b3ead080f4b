// Mispredict walks through Figure 2 of the paper: the timing model
// mis-speculates a branch, re-steers the speculative functional model down
// the wrong path with set_pc, lets it overwrite the trace buffer with
// wrong-path instructions, then resolves the branch and re-steers it back —
// and the rolled-back state is bit-identical to never having speculated.
package main

import (
	"fmt"
	"log"

	"repro/internal/fm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// The Figure 2 program shape: a branch (I2) that the target mis-speculates.
const program = `
	; I1: R0 = R0 + R2        (Figure 2's instruction 1)
	; I2: BRz L1              (the mis-speculated branch)
	; I3: R0 = R0 + R3        (fall-through path)
	; I4: L1: R0 = R0 + R4    (taken path)
	movi r0, 10
	movi r2, 1
	movi r3, 100
	movi r4, 1000
	add  r0, r2      ; I1
	jz   L1          ; I2: not zero, so NOT taken architecturally
	add  r0, r3      ; I3 (right path)
	jmp  done
L1:	add  r0, r4      ; I4 (what a taken mis-speculation would run)
done:	cli
	halt
`

func main() {
	prog, err := isa.Assemble(program, 0x1000)
	if err != nil {
		log.Fatal(err)
	}
	model := fm.New(fm.Config{DisableInterrupts: true})
	model.LoadProgram(prog)
	tb := trace.NewBuffer(32)
	// A chunk of one publishes every entry as it is produced, so the walk
	// below reads like the figure; real couplings publish 64 at a time.
	app := tb.NewAppender(1)

	produce := func(n int) {
		for i := 0; i < n; i++ {
			e, ok := model.Step()
			if !ok {
				return
			}
			app.Append(&e)
			star := ""
			if model.JournalLen() > 0 && e.IN >= 5 && model.Rollbacks > 0 && model.Rollbacks%2 == 1 {
				star = "*" // wrong-path marker, as in the figure
			}
			fmt.Printf("    FM produced  #%d%s  %v\n", e.IN, star, e)
		}
	}

	fmt.Println("T=0   functional model runs ahead on its own path:")
	produce(6) // through the branch and beyond

	branchIN := uint64(5) // the jz
	// The TM reads the published slot in place and keeps its own copy: the
	// re-steers below rewrite the slots after the branch.
	entry := tb.View(branchIN)[0]
	fmt.Printf("\nTM    fetches the branch #%d: architecturally %v (taken=%v)\n",
		branchIN, isa.Lookup(entry.Op).Name, entry.Taken)
	fmt.Println("TM    predicts TAKEN -> mis-speculation: notify the FM to produce")
	fmt.Println("      the wrong-path instructions (set_pc to L1)")

	wrongPC := prog.Symbols["L1"]
	app.Rewind(branchIN + 1)
	if err := model.SetPC(branchIN+1, wrongPC); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nT=1+m wrong-path instructions overwrite the trace buffer (I4*, ...):\n")
	produce(3)
	fmt.Printf("      wrong-path R0 would be %d (took the +1000 path)\n", model.GPR[0])

	fmt.Println("\nT=3+m branch resolves NOT taken: set_pc back to the right path")
	app.Rewind(branchIN + 1)
	if err := model.SetPC(branchIN+1, entry.NextPC); err != nil {
		log.Fatal(err)
	}
	fmt.Println("T=3+m+n right-path instructions overwrite the incorrect ones:")
	produce(4)

	fmt.Printf("\nfinal R0 = %d (right path: 10+1+100 = 111; the wrong-path +1000 "+
		"left no trace)\n", model.GPR[0])
	fmt.Printf("rollbacks: %d, instructions undone: %d\n", model.Rollbacks, model.RolledBack)
	if model.GPR[0] != 111 {
		log.Fatal("speculation was not rolled back correctly!")
	}
}
