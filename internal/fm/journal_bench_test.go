package fm

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Layer benchmarks for the FM: the fetch/decode path and the undo journal.
// Run them time-based (make bench-layers: -benchtime=200ms or longer, never
// 1x): every op below is one target instruction or one target byte, so a
// single iteration measures nothing.

// benchLoop is an endless ALU loop with a scalar store and load per
// iteration.
const benchLoop = `
loop:	addi r1, 3
	mov  r2, r1
	andi r2, 1023
	stw  r2, [r2+0x4000]
	ldw  r3, [r2+0x4000]
	jmp  loop
`

func benchModel(src string) *Model {
	return benchModelWith(src, DefaultICacheEntries, DefaultSuperblockLen)
}

func benchModelWith(src string, icache, superblock int) *Model {
	m := New(Config{DisableInterrupts: true, ICacheEntries: icache, SuperblockLen: superblock})
	m.LoadProgram(isa.MustAssemble(src, 0x1000))
	return m
}

// BenchmarkDecodeLoop isolates the fetch/decode/crack path: the same loop
// FM-only with superblocks over the predecode cache (the default), the
// cache alone, and neither, committing at the TM's chunk cadence (an
// uncommitted journal grows without bound and would swamp the spread).
// ns/op is per target instruction; the spread between the three is what
// each fast path buys with no TM in the loop to dilute it.
func BenchmarkDecodeLoop(b *testing.B) {
	for _, bc := range []struct {
		name               string
		icache, superblock int
	}{
		{"superblock", DefaultICacheEntries, DefaultSuperblockLen},
		{"icache", DefaultICacheEntries, 0},
		{"nocache", 0, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			driveCommitting(b, benchModelWith(benchLoop, bc.icache, bc.superblock), 0)
		})
	}
}

// driveCommitting runs m for b.N target instructions the way the coupled
// pump does — StepBlock, which without superblocks degrades to a single
// Step — committing at the TM's chunk cadence of 64 with the commit
// frontier lagging window instructions behind.
func driveCommitting(b *testing.B, m *Model, window uint64) {
	sink := func(trace.Entry) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for next := uint64(64); m.IN() < uint64(b.N); {
		if m.StepBlock(sink) == 0 {
			b.Fatal("halted")
		}
		if in := m.IN(); in >= next {
			next = in + 64
			if in > window {
				m.Commit(in - window - 1)
			}
		}
	}
}

// BenchmarkJournalCommit is FM execution with the commit frontier lagging
// `window` instructions behind, committed at the TM's chunk cadence of 64.
// ns/op is per target instruction. window=512 is the mcf_stall regime (FM
// parked a full trace buffer ahead); releasing records is index-only, so
// it must read within noise of window=64.
func BenchmarkJournalCommit(b *testing.B) {
	for _, window := range []uint64{64, 512} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			driveCommitting(b, benchModel(benchLoop), window)
		})
	}
}

// BenchmarkRepStos is a page-crossing 8 KiB rep stos per iteration, commits
// on. One op is one stored byte, so ns/op reads as ns/byte and B/op as host
// bytes allocated per target byte (0 once the old-bytes log has grown to
// its working size).
func BenchmarkRepStos(b *testing.B) {
	m := benchModel(`
	loop:	movi r1, 0x8E00
		movi r2, 8192
		inc  r3
		rep stos
		jmp  loop
	`)
	stored := 0
	sink := func(e trace.Entry) bool {
		stored += int(e.RepIterations)
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for stored < b.N {
		m.StepBlock(sink)
		m.Commit(m.IN() - 1)
	}
}

// BenchmarkRollback executes `depth` instructions and re-steers back over
// all of them, the way a mispredicted branch resolves: depth=14 is the
// boot_rollback regime, depth=512 a full-window flush. One op is one
// instruction executed and then undone.
func BenchmarkRollback(b *testing.B) {
	for _, depth := range []uint64{14, 512} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			m := benchModel(benchLoop)
			sink := func(trace.Entry) bool { return true }
			b.ReportAllocs()
			b.ResetTimer()
			for undone := uint64(0); undone < uint64(b.N); undone += depth {
				start, pc := m.IN(), m.PC
				for m.IN() < start+depth {
					m.StepBlock(sink)
				}
				if err := m.SetPC(start, pc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
