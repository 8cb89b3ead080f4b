package workload

import (
	"fmt"
	"strings"
)

// User programs follow the toyOS ABI: entry at UserVA, syscalls through r0
// (0 exit, 1 putchar, 2 getchar, 4 sleep, 5 gettime), r11/r12 reserved for
// the kernel, stack at UserSP. Each generator emits a miniature but real
// algorithm whose dynamic character (memory-op fraction, FP-arithmetic
// fraction, branch predictability, string-op and HALT usage) matches its
// paper namesake's published profile (Table 1, Figures 4-5).

type emitter struct{ b strings.Builder }

func (e *emitter) p(format string, args ...any) {
	fmt.Fprintf(&e.b, format+"\n", args...)
}

// lcg advances the linear congruential generator in reg (clobbers r10).
func (e *emitter) lcg(reg string) {
	e.p("	movi r10, 1103515245")
	e.p("	mul  %s, r10", reg)
	e.p("	addi %s, 12345", reg)
}

// guards emits the boundary/sanity checks that pepper real code: strongly
// biased, trivially predictable branches that dilute the noisy ones in the
// global history (n guard branches against impossible conditions).
func (e *emitter) guards(reg string, label string, n int) {
	for i := 0; i < n; i++ {
		e.p("	cmpi %s, %d", reg, -0x7F000000+i)
		e.p("	jz   %s_g%d", label, i)
		e.p("%s_g%d:", label, i)
	}
}

// sleep halts the calling context for one timer tick (syssleep).
func (e *emitter) sleep() {
	e.p("	movi r0, 4")
	e.p("	movi r1, 1       ; sleep one tick")
	e.p("	syscall")
}

func (e *emitter) exit() {
	e.p("	movi r0, 0")
	e.p("	syscall")
	e.p("	jmp  .") // unreachable
}

// Data region VAs inside the user mapping.
const (
	dataVA  = 0x20000
	dataVA2 = 0x30000
)

// InitProgram is the trivial post-boot init process used by the boot
// workloads: the measurement there is the boot itself.
func InitProgram() string {
	e := &emitter{}
	e.p("start:")
	for _, c := range "init\n" {
		e.p("	movi r1, %d", c)
		e.p("	movi r0, 1")
		e.p("	syscall")
	}
	// "Then the OS really starts running accounting for decreased BP and
	// iCache hits and increased pipe drains" (§4.6): early userspace does
	// branchy, scattered service startup work, preempted by the timer.
	e.p("	movi r3, 30000")
	e.p("	movi r5, 777777")
	e.p("spin:")
	e.lcg("r5")
	e.p("	mov  r4, r5")
	e.p("	shri r4, 11")
	e.p("	andi r4, 0x3FFF")
	e.p("	mov  r6, r4")
	e.p("	addi r6, %#x", dataVA)
	e.p("	ldw  r7, [r6]    ; scattered config reads")
	e.p("	andi r4, 0xFF")
	e.p("	cmpi r4, 200     ; service-dependent decision, ~78%% one way")
	e.p("	jl   common")
	e.p("	add  r8, r7")
	e.p("	jmp  next")
	e.p("common:")
	e.p("	inc  r8")
	e.p("next:")
	e.p("	mov  r4, r3")
	e.p("	andi r4, 2047")
	e.p("	cmpi r4, 0")
	e.p("	jnz  nosys")
	e.p("	movi r0, 5")
	e.p("	syscall          ; gettime")
	e.p("nosys:")
	e.p("	dec  r3")
	e.p("	jnz  spin")
	e.exit()
	return e.b.String()
}

// SMPProgram is the multicore workload: every core (r1 = CPUID under the
// SMP user ABI) mixes private scattered-update work with a shared counter
// increment under an ll/sc spinlock, then announces completion through a
// lock-free ll/sc fetch-and-add; core 0 waits for all cores and verifies
// the counter saw every increment ('K' to the console, 'X' on a lost
// update). The spin loops make lock contention — and therefore the modeled
// interconnect latency — visible in the timing results.
//
// With sleep, every core sleeps one timer tick after each lock release and
// core 0 sleeps instead of pausing while it waits for its siblings, so all
// cores spend most of each timer interval halted in syssleep: the whole
// target is periodically simultaneously quiescent — the boundary the
// warm-start snapshot capture of a multicore run needs.
func SMPProgram(iters, cores int, sleep bool) string {
	e := &emitter{}
	// Shared words at dataVA: [lock, counter, done]; per-core private work
	// areas at dataVA2 + CPUID*0x1000.
	e.p("start:")
	e.p("	mov  r9, r1      ; CPUID")
	e.p("	movi r8, %d", iters)
	e.p("	movi r6, %#x", dataVA)
	e.p("	mov  r7, r9")
	e.p("	shli r7, 12")
	e.p("	addi r7, %#x", dataVA2)
	e.p("	movi r5, 48271")
	e.p("	add  r5, r9      ; per-core RNG stream")
	e.p("work:")
	// Private phase: scattered read-modify-write histogram updates.
	e.lcg("r5")
	e.p("	mov  r2, r5")
	e.p("	shri r2, 10")
	e.p("	andi r2, 0x3FC")
	e.p("	add  r2, r7")
	e.p("	ldw  r3, [r2]")
	e.p("	inc  r3")
	e.p("	stw  r3, [r2]")
	// Critical section: ll/sc test-and-set spinlock around the shared
	// counter.
	e.p("acq:")
	e.p("	ll   r4, [r6]")
	e.p("	cmpi r4, 0")
	e.p("	jnz  spinw       ; held: back off")
	e.p("	movi r4, 1")
	e.p("	sc   r4, [r6]")
	e.p("	jz   acq         ; lost the race: retry")
	e.p("	ldw  r3, [r6+4]")
	e.p("	inc  r3")
	e.p("	stw  r3, [r6+4]  ; shared counter")
	e.p("	movi r4, 0")
	e.p("	stw  r4, [r6]    ; release (plain store)")
	if sleep {
		e.sleep()
	}
	e.p("	dec  r8")
	e.p("	jnz  work")
	e.p("	jmp  fin")
	e.p("spinw:")
	e.p("	pause")
	e.p("	jmp  acq")
	// Completion: lock-free fetch-and-add on the done word.
	e.p("fin:")
	e.p("	ll   r4, [r6+8]")
	e.p("	inc  r4")
	e.p("	sc   r4, [r6+8]")
	e.p("	jz   fin")
	e.p("	cmpi r9, 0")
	e.p("	jnz  bye         ; secondaries exit")
	// Core 0: wait for the siblings, then verify the reduction.
	e.p("waitall:")
	if sleep {
		e.sleep()
	} else {
		e.p("	pause")
	}
	e.p("	ldw  r4, [r6+8]")
	e.p("	cmpi r4, %d", cores)
	e.p("	jl   waitall")
	e.p("	ldw  r3, [r6+4]")
	e.p("	movi r1, 'K'")
	e.p("	cmpi r3, %d", cores*iters)
	e.p("	jz   verified")
	e.p("	movi r1, 'X'     ; lost update")
	e.p("verified:")
	e.p("	movi r0, 1")
	e.p("	syscall          ; putc verdict")
	e.p("bye:")
	e.exit()
	return e.b.String()
}

// GzipProgram: LZ-style compression — window scans with byte compares,
// predictable inner loops, heavy byte loads (µops/inst ≈ 1.34, BP ≈ 90%).
func GzipProgram(iters int) string {
	e := &emitter{}
	const bufLen = 4096
	e.p("start:")
	// Fill the buffer with compressible pseudo-text.
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, %d", bufLen)
	e.p("	movi r5, 99991")
	e.p("fill:")
	e.lcg("r5")
	e.p("	mov  r3, r5")
	e.p("	shri r3, 13")
	e.p("	andi r3, 15     ; 16-symbol alphabet => many matches")
	e.p("	addi r3, 'a'")
	e.p("	stb  r3, [r1]")
	e.p("	inc  r1")
	e.p("	dec  r2")
	e.p("	jnz  fill")
	e.p("	movi r9, %d", iters)
	e.p("outer:")
	e.p("	movi r6, %#x", dataVA+64) // cursor
	e.p("	movi r8, 0               ; emitted tokens")
	e.p("compress:")
	// Find the longest match in a 16-byte back-window.
	e.p("	movi r4, 0      ; best length")
	e.p("	movi r7, 16     ; window offset")
	e.p("window:")
	e.p("	mov  r0, r6")
	e.p("	sub  r0, r7     ; candidate")
	e.p("	mov  r1, r6")
	e.p("	movi r2, 0      ; match length")
	e.p("match:")
	e.p("	ldb  r3, [r0]")
	e.p("	ldb  r5, [r1]")
	e.p("	cmp  r3, r5")
	e.p("	jnz  matchend")
	e.p("	inc  r0")
	e.p("	inc  r1")
	e.p("	inc  r2")
	e.p("	cmpi r2, 8")
	e.p("	jl   match")
	e.p("matchend:")
	e.p("	cmp  r2, r4")
	e.p("	jle  nobest")
	e.p("	mov  r4, r2")
	e.p("nobest:")
	e.p("	dec  r7")
	e.p("	jnz  window")
	e.p("	inc  r8")
	// Emit the (offset,length) token.
	e.p("	mov  r0, r8")
	e.p("	andi r0, 2047")
	e.p("	shli r0, 2")
	e.p("	addi r0, %#x", dataVA2)
	e.p("	stw  r4, [r0]")
	e.p("	add  r6, r4")
	e.p("	inc  r6         ; literal advance")
	e.p("	cmpi r6, %#x", dataVA+bufLen-16)
	e.p("	jl   compress")
	e.p("	dec  r9")
	e.p("	jnz  outer")
	e.exit()
	return e.b.String()
}

// VprProgram: simulated-annealing placement — FP cost arithmetic (partially
// uncovered microcode, Table 1 fraction ≈ 84.6%) and half-random accept
// branches.
func VprProgram(iters int) string {
	e := &emitter{}
	const cells = 1024
	e.p("start:")
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, %d", cells)
	e.p("	movi r5, 7777")
	e.p("fill:")
	e.lcg("r5")
	e.p("	mov  r3, r5")
	e.p("	shri r3, 8")
	e.p("	andi r3, 1023")
	e.p("	stw  r3, [r1]")
	e.p("	addi r1, 4")
	e.p("	dec  r2")
	e.p("	jnz  fill")
	e.p("	movi r9, %d", iters)
	e.p("	fldi f2, 0.999")
	e.p("	fldi f3, 1000.0  ; temperature")
	e.p("anneal:")
	// Pick two cells.
	e.lcg("r5")
	e.p("	mov  r1, r5")
	e.p("	shri r1, 10")
	e.p("	andi r1, %d", cells-1)
	e.p("	shli r1, 2")
	e.p("	addi r1, %#x", dataVA)
	e.lcg("r5")
	e.p("	mov  r2, r5")
	e.p("	shri r2, 10")
	e.p("	andi r2, %d", cells-1)
	e.p("	shli r2, 2")
	e.p("	addi r2, %#x", dataVA)
	e.p("	ldw  r3, [r1]")
	e.p("	ldw  r4, [r2]")
	// FP cost delta (fsub/fmul are NOP-replaced in the prototype's table).
	e.p("	i2f  f0, r3")
	e.p("	i2f  f1, r4")
	e.p("	fsub f0, f1")
	e.p("	fmul f0, f0     ; delta^2")
	e.p("	fmul f3, f2     ; cool")
	e.p("	fcmp f0, f3")
	e.p("	jge  reject")
	e.p("	stw  r4, [r1]   ; accept the swap")
	e.p("	stw  r3, [r2]")
	e.p("reject:")
	e.p("	dec  r9")
	e.p("	jnz  anneal")
	e.exit()
	return e.b.String()
}

// GccProgram: IR-tree walking with an indirect-dispatch "switch" through a
// jump table — call/return heavy, moderate predictability.
func GccProgram(iters int) string {
	e := &emitter{}
	const nodes = 512
	e.p("start:")
	// Node: [op, left, right, value] × 4 words. Build a random DAG.
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, 0")
	e.p("	movi r5, 31337")
	e.p("build:")
	e.lcg("r5")
	e.p("	mov  r3, r5")
	e.p("	shri r3, 9")
	e.p("	andi r3, 7      ; op: biased toward 0 (common-operator skew)")
	e.p("	cmpi r3, 1")
	e.p("	jle  opok")
	e.p("	movi r3, 0      ; 75%% of operators are the common one")
	e.p("opok:")
	e.p("	andi r3, 3")
	e.p("	stw  r3, [r1]")
	e.lcg("r5")
	e.p("	mov  r3, r5")
	e.p("	shri r3, 11")
	e.p("	andi r3, %d", nodes-1)
	e.p("	stw  r3, [r1+4]  ; left index")
	e.lcg("r5")
	e.p("	mov  r3, r5")
	e.p("	shri r3, 7")
	e.p("	andi r3, %d", nodes-1)
	e.p("	stw  r3, [r1+8]  ; right index")
	e.p("	stw  r2, [r1+12] ; value")
	e.p("	addi r1, 16")
	e.p("	inc  r2")
	e.p("	cmpi r2, %d", nodes)
	e.p("	jl   build")
	e.p("	movi r9, %d", iters)
	e.p("	movi r8, 0       ; node cursor")
	e.p("walk:")
	e.p("	mov  r1, r8")
	e.p("	shli r1, 4")
	e.p("	addi r1, %#x", dataVA)
	e.p("	ldw  r2, [r1]    ; op")
	e.guards("r2", "gg", 3)
	e.p("	mov  r3, r2")
	e.p("	shli r3, 2")
	e.p("	addi r3, jmptab")
	e.p("	ldw  r3, [r3]")
	e.p("	callr r3         ; dispatch through the jump table")
	e.p("	ldw  r8, [r1+4]  ; follow left link")
	e.p("	dec  r9")
	e.p("	jnz  walk")
	e.exit()
	e.p("opadd:")
	e.p("	ldw  r4, [r1+12]")
	e.p("	addi r4, 3")
	e.p("	stw  r4, [r1+12]")
	e.p("	ret")
	e.p("opsub:")
	e.p("	ldw  r4, [r1+12]")
	e.p("	subi r4, 1")
	e.p("	stw  r4, [r1+12]")
	e.p("	ret")
	e.p("opmul:")
	e.p("	ldw  r4, [r1+12]")
	e.p("	movi r6, 3")
	e.p("	mul  r4, r6")
	e.p("	stw  r4, [r1+12]")
	e.p("	ret")
	e.p("opxor:")
	e.p("	ldw  r4, [r1+12]")
	e.p("	xori r4, 0x55")
	e.p("	stw  r4, [r1+12]")
	e.p("	ret")
	e.p("	.align 4")
	e.p("jmptab:")
	e.p("	.word opadd, opsub, opmul, opxor")
	return e.b.String()
}

// McfProgram: pointer chasing through a large shuffled ring — dL1 misses
// dominate, IPC is low.
func McfProgram(iters int) string {
	e := &emitter{}
	const slots = 16384 // 64 KiB of pointers, far beyond the 32 KiB dL1
	e.p("start:")
	// Build a strided ring: slot i -> slot (i+stride) mod slots, with a
	// stride co-prime to the count so one ring covers everything.
	e.p("	movi r1, 0")
	e.p("ringinit:")
	e.p("	mov  r2, r1")
	e.p("	addi r2, 97          ; stride in slots")
	e.p("	movi r3, %d", slots-1)
	e.p("	and  r2, r3")
	e.p("	shli r2, 2")
	e.p("	addi r2, %#x", dataVA)
	e.p("	mov  r4, r1")
	e.p("	shli r4, 2")
	e.p("	addi r4, %#x", dataVA)
	e.p("	stw  r2, [r4]        ; slot[i] = &slot[(i+97)&mask]")
	e.p("	inc  r1")
	e.p("	cmpi r1, %d", slots)
	e.p("	jl   ringinit")
	e.p("	movi r9, %d", iters)
	e.p("	movi r1, %#x", dataVA)
	e.p("chase:")
	for i := 0; i < 8; i++ {
		e.p("	ldw  r1, [r1]    ; pointer chase %d", i)
	}
	e.p("	add  r6, r1          ; cost accumulation")
	e.p("	dec  r9")
	e.p("	jnz  chase")
	e.exit()
	return e.b.String()
}

// CraftyProgram: bitboard manipulation — shift/mask/popcount chains, mostly
// ALU, data-dependent bit-test branches.
func CraftyProgram(iters int) string {
	e := &emitter{}
	e.p("start:")
	e.p("	movi r5, 0xC0FFEE")
	e.p("	movi r9, %d", iters)
	e.p("	movi r8, 0")
	e.p("search:")
	e.lcg("r5")
	e.p("	mov  r1, r5      ; bitboard")
	e.guards("r1", "cg", 3)
	// Fixed-trip shift-add popcount: the ALU-chain flavour of bitboard
	// code, with a predictable loop.
	e.p("	movi r2, 0")
	e.p("	movi r0, 8")
	e.p("popcnt:")
	e.p("	mov  r3, r1")
	e.p("	andi r3, 1")
	e.p("	add  r2, r3")
	e.p("	shri r1, 4")
	e.p("	dec  r0")
	e.p("	jnz  popcnt")
	// Mobility heuristics: shifted masks and conditional scoring.
	e.p("	mov  r4, r5")
	e.p("	shli r4, 7")
	e.p("	mov  r6, r5")
	e.p("	shri r6, 9")
	e.p("	xor  r4, r6")
	e.p("	andi r4, 0xFF")
	// History/transposition table update: the mem traffic of a real search.
	e.p("	mov  r6, r4")
	e.p("	andi r6, 63")
	e.p("	shli r6, 2")
	e.p("	addi r6, %#x", dataVA)
	e.p("	ldw  r3, [r6]")
	e.p("	add  r3, r2")
	e.p("	stw  r3, [r6]")
	e.p("	cmpi r4, 192     ; ~75%% of byte values fall below")
	e.p("	jl   low")
	e.p("	add  r8, r2")
	e.p("	jmp  next")
	e.p("low:")
	e.p("	sub  r8, r2")
	e.p("next:")
	e.p("	dec  r9")
	e.p("	jnz  search")
	e.exit()
	return e.b.String()
}

// ParserProgram: token classification over generated pseudo-text — chains
// of data-dependent compares; the lowest branch-prediction accuracy of the
// integer set.
func ParserProgram(iters int) string {
	e := &emitter{}
	const textLen = 2048
	e.p("start:")
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, %d", textLen)
	e.p("	movi r5, 424243")
	e.p("gen:")
	e.lcg("r5")
	e.p("	mov  r3, r5")
	e.p("	shri r3, 17")
	e.p("	andi r3, 31")
	e.p("	addi r3, 'a'     ; 'a'..'a'+31: ~81%% lowercase, rest punctuation")
	e.p("	stb  r3, [r1]")
	e.p("	inc  r1")
	e.p("	dec  r2")
	e.p("	jnz  gen")
	e.p("	movi r9, %d", iters)
	e.p("parse:")
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r6, 0       ; token counts")
	e.p("	movi r7, 0")
	e.p("	movi r8, 0")
	e.p("tok:")
	e.p("	ldb  r3, [r1]")
	e.p("	cmpi r3, 'a'")
	e.p("	jl   notlower")
	e.p("	cmpi r3, 'z'")
	e.p("	jg   notlower")
	e.p("	inc  r6")
	e.p("	jmp  tokdone")
	e.p("notlower:")
	e.p("	cmpi r3, '0'")
	e.p("	jl   notdigit")
	e.p("	cmpi r3, '9'")
	e.p("	jg   notdigit")
	e.p("	inc  r7")
	e.p("	jmp  tokdone")
	e.p("notdigit:")
	e.p("	cmpi r3, 32")
	e.p("	jl   ctrl")
	e.p("	inc  r8")
	e.p("	jmp  tokdone")
	e.p("ctrl:")
	e.p("	add  r8, r3")
	e.p("tokdone:")
	// Emit the token stream (a real parser writes its parse).
	e.p("	mov  r4, r6")
	e.p("	add  r4, r7")
	e.p("	mov  r2, r1")
	e.p("	addi r2, %d", dataVA2-dataVA)
	e.p("	stb  r4, [r2]")
	e.p("	inc  r1")
	e.p("	cmpi r1, %#x", dataVA+textLen)
	e.p("	jl   tok")
	e.p("	dec  r9")
	e.p("	jnz  parse")
	e.exit()
	return e.b.String()
}

// EonProgram: ray-intersection arithmetic — roughly half the dynamic
// instructions are FP arithmetic with no microcode translation (Table 1
// fraction ≈ 52%), whose dependences are therefore not enforced.
func EonProgram(iters int) string {
	e := &emitter{}
	e.p("start:")
	e.p("	movi r5, 271828")
	e.p("	movi r9, %d", iters)
	e.p("	fldi f6, 1.0")
	e.p("	fldi f7, 0.5")
	e.p("ray:")
	e.lcg("r5")
	e.p("	mov  r1, r5")
	e.p("	shri r1, 16")
	e.p("	i2f  f0, r1      ; ray direction components")
	e.lcg("r5")
	e.p("	mov  r1, r5")
	e.p("	shri r1, 12")
	e.p("	i2f  f1, r1")
	// Dot products and normalization: fmul/fadd/fdiv/fsqrt (uncovered).
	e.p("	fmov f2, f0")
	e.p("	fmul f2, f0")
	e.p("	fmov f3, f1")
	e.p("	fmul f3, f1")
	e.p("	fadd f2, f3")
	e.p("	fadd f2, f6      ; avoid sqrt(0) and /0")
	e.p("	fsqrt f4, f2")
	e.p("	fmov f5, f0")
	e.p("	fdiv f5, f4")
	e.p("	fmul f5, f7")
	e.p("	fadd f5, f1")
	// Shading chain: more uncovered FP arithmetic per ray.
	e.p("	fmov f3, f5")
	e.p("	fmul f3, f3")
	e.p("	fadd f3, f6")
	e.p("	fsub f3, f7")
	e.p("	fmul f3, f7")
	e.p("	fadd f3, f5")
	e.p("	fsqrt f3, f3")
	e.p("	fneg f2, f3")
	e.p("	fabs f5, f5")
	e.p("	fldi f1, 250.0   ; most rays miss the near sphere")
	e.guards("r1", "eg", 3)
	e.p("	fcmp f4, f1")
	e.p("	jl   hit")
	e.p("	addi r8, 1")
	e.p("	jmp  raydone")
	e.p("hit:")
	e.p("	addi r7, 1")
	e.p("raydone:")
	e.p("	dec  r9")
	e.p("	jnz  ray")
	e.exit()
	return e.b.String()
}

// PerlbmkProgram: string transformation with periodic sleep system calls —
// the HALT behaviour that starves the timing model of instructions and
// hurts MIPS despite decent prediction accuracy (§4.4).
func PerlbmkProgram(iters int) string {
	e := &emitter{}
	const strLen = 512
	e.p("start:")
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, %d", strLen)
	e.p("	movi r5, 1234577")
	e.p("gen:")
	e.lcg("r5")
	e.p("	mov  r3, r5")
	e.p("	shri r3, 18")
	e.p("	andi r3, 31")
	e.p("	addi r3, 'a'")
	e.p("	stb  r3, [r1]")
	e.p("	inc  r1")
	e.p("	dec  r2")
	e.p("	jnz  gen")
	e.p("	movi r9, %d", iters)
	e.p("work:")
	// tr/s///-style pass: rewrite vowels, count substitutions.
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r6, 0")
	e.p("subst:")
	e.p("	ldb  r3, [r1]")
	e.p("	cmpi r3, 'e'")
	e.p("	jnz  nsub")
	e.p("	movi r3, '_'")
	e.p("	stb  r3, [r1]")
	e.p("	inc  r6")
	e.p("nsub:")
	e.p("	inc  r1")
	e.p("	cmpi r1, %#x", dataVA+strLen)
	e.p("	jl   subst")
	// Stack traffic around the "interpreter" pass.
	e.p("	push r6")
	e.p("	push r9")
	e.p("	pop  r9")
	e.p("	pop  r6")
	// The time/sleep system calls: HALT until the timer fires (every
	// other pass).
	e.p("	mov  r3, r9")
	e.p("	andi r3, 1")
	e.p("	jnz  nosleep")
	e.sleep()
	e.p("	movi r0, 5")
	e.p("	syscall          ; gettime")
	e.p("nosleep:")
	e.p("	dec  r9")
	e.p("	jnz  work")
	e.exit()
	return e.b.String()
}

// GapProgram: multi-precision arithmetic — carry-propagation loops with
// highly biased branches.
func GapProgram(iters int) string {
	e := &emitter{}
	const limbs = 64
	e.p("start:")
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, %d", 2*limbs)
	e.p("	movi r5, 987654321")
	e.p("fill:")
	e.lcg("r5")
	e.p("	mov  r4, r5")
	e.p("	shri r4, 4       ; small limbs: carries are rare")
	e.p("	stw  r4, [r1]")
	e.p("	addi r1, 4")
	e.p("	dec  r2")
	e.p("	jnz  fill")
	e.p("	movi r9, %d", iters)
	e.p("bigadd:")
	e.p("	movi r1, %#x", dataVA)         // a
	e.p("	movi r2, %#x", dataVA+4*limbs) // b
	e.p("	movi r6, %d", limbs)
	e.p("	movi r7, 0       ; carry")
	e.p("limb:")
	e.p("	ldw  r3, [r1]")
	e.p("	ldw  r4, [r2]")
	e.p("	add  r3, r4")
	e.p("	movi r8, 0")
	e.p("	jnc  nc1")
	e.p("	movi r8, 1")
	e.p("nc1:")
	e.p("	add  r3, r7")
	e.p("	jnc  nc2")
	e.p("	movi r8, 1")
	e.p("nc2:")
	e.p("	mov  r7, r8")
	e.p("	stw  r3, [r1]")
	e.p("	addi r1, 4")
	e.p("	addi r2, 4")
	e.p("	dec  r6")
	e.p("	jnz  limb")
	e.p("	dec  r9")
	e.p("	jnz  bigadd")
	e.exit()
	return e.b.String()
}

// VortexProgram: an object store — hash probes, call-heavy access paths,
// high prediction accuracy.
func VortexProgram(iters int) string {
	e := &emitter{}
	const buckets = 1024
	e.p("start:")
	e.p("	movi r5, 5550123")
	e.p("	movi r9, %d", iters)
	e.p("txn:")
	e.lcg("r5")
	e.p("	mov  r1, r5")
	e.p("	call hash")
	e.p("	call insert")
	e.lcg("r5")
	e.p("	mov  r1, r5")
	e.p("	call hash")
	e.p("	call lookup")
	e.p("	dec  r9")
	e.p("	jnz  txn")
	e.exit()
	e.p("hash:")
	e.p("	mov  r2, r1")
	e.p("	shri r2, 7")
	e.p("	xor  r2, r1")
	e.p("	movi r3, 2654435761")
	e.p("	mul  r2, r3")
	e.p("	shri r2, 20")
	e.p("	andi r2, %d", buckets-1)
	e.p("	shli r2, 3       ; bucket: [key, count]")
	e.p("	addi r2, %#x", dataVA)
	e.p("	ret")
	e.p("insert:")
	e.p("	stw  r1, [r2]")
	e.p("	ldw  r4, [r2+4]")
	e.p("	inc  r4")
	e.p("	stw  r4, [r2+4]")
	e.p("	ret")
	e.p("lookup:")
	e.p("	ldw  r4, [r2]")
	e.p("	cmp  r4, r1")
	e.p("	jnz  miss")
	e.p("	ldw  r6, [r2+4]")
	e.p("	add  r7, r6")
	e.p("	ret")
	e.p("miss:")
	e.p("	inc  r8")
	e.p("	ret")
	return e.b.String()
}

// Bzip2Program: block sorting — compare/swap inner loops over byte blocks.
func Bzip2Program(iters int) string {
	e := &emitter{}
	const block = 128
	e.p("start:")
	e.p("	movi r9, %d", iters)
	e.p("	movi r5, 8675309")
	e.p("blockloop:")
	// Regenerate the block each pass.
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, %d", block)
	e.p("genb:")
	e.lcg("r5")
	e.p("	mov  r3, r5")
	e.p("	shri r3, 15")
	e.p("	andi r3, 255")
	e.p("	stb  r3, [r1]")
	e.p("	inc  r1")
	e.p("	dec  r2")
	e.p("	jnz  genb")
	// Insertion sort: data-dependent while-loops, byte loads/stores.
	e.p("	movi r6, 1       ; i")
	e.p("isort:")
	e.p("	mov  r1, r6")
	e.p("	addi r1, %#x", dataVA)
	e.p("	ldb  r4, [r1]    ; key")
	e.p("	mov  r7, r6      ; j")
	e.p("shiftl:")
	e.p("	cmpi r7, 0")
	e.p("	jz   place")
	e.p("	mov  r1, r7")
	e.p("	addi r1, %#x", dataVA-1)
	e.p("	ldb  r3, [r1]")
	e.p("	cmp  r3, r4")
	e.p("	jle  place")
	e.p("	stb  r3, [r1+1]")
	e.p("	dec  r7")
	e.p("	jmp  shiftl")
	e.p("place:")
	e.p("	mov  r1, r7")
	e.p("	addi r1, %#x", dataVA)
	e.p("	stb  r4, [r1]")
	e.p("	inc  r6")
	e.p("	cmpi r6, %d", block)
	e.p("	jl   isort")
	e.p("	dec  r9")
	e.p("	jnz  blockloop")
	e.exit()
	return e.b.String()
}

// TwolfProgram: integer placement annealing — scattered loads and LCG
// accept branches.
func TwolfProgram(iters int) string {
	e := &emitter{}
	const cells = 2048
	e.p("start:")
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, %d", cells)
	e.p("	movi r5, 1029384")
	e.p("fill:")
	e.lcg("r5")
	e.p("	stw  r5, [r1]")
	e.p("	addi r1, 4")
	e.p("	dec  r2")
	e.p("	jnz  fill")
	e.p("	movi r9, %d", iters)
	e.p("move:")
	e.lcg("r5")
	e.p("	mov  r1, r5")
	e.p("	shri r1, 9")
	e.p("	andi r1, %d", cells-1)
	e.p("	shli r1, 2")
	e.p("	addi r1, %#x", dataVA)
	e.p("	ldw  r3, [r1]")
	// Wire-length delta (always non-negative by construction).
	e.p("	mov  r4, r3")
	e.p("	xor  r4, r5")
	e.p("	andi r4, 0xFFFF")
	e.guards("r4", "tg", 3)
	e.p("	cmpi r4, 0xE000  ; ~87%% of moves accepted")
	e.p("	jl   accept")
	e.p("	inc  r8")
	e.p("	jmp  moved")
	e.p("accept:")
	e.p("	stw  r5, [r1]")
	e.p("moved:")
	e.p("	dec  r9")
	e.p("	jnz  move")
	e.exit()
	return e.b.String()
}

// Sweep3DProgram: a wavefront stencil sweep — deep, perfectly predictable
// loops dominated by FP arithmetic, most of it without microcode (Table 1
// fraction ≈ 44%).
func Sweep3DProgram(iters int) string {
	e := &emitter{}
	const n = 24 // n×n plane
	e.p("start:")
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, %d", n*n)
	e.p("	movi r5, 13579")
	e.p("fill:")
	e.lcg("r5")
	e.p("	mov  r3, r5")
	e.p("	shri r3, 16")
	e.p("	stw  r3, [r1]")
	e.p("	addi r1, 4")
	e.p("	dec  r2")
	e.p("	jnz  fill")
	e.p("	movi r9, %d", iters)
	e.p("	fldi f5, 0.25")
	e.p("	fldi f6, 1.0")
	e.p("sweep:")
	e.p("	movi r6, 1       ; i")
	e.p("iloop:")
	e.p("	movi r7, 1       ; j")
	e.p("jloop:")
	e.p("	mov  r1, r6")
	e.p("	movi r2, %d", n)
	e.p("	mul  r1, r2")
	e.p("	add  r1, r7")
	e.p("	shli r1, 2")
	e.p("	addi r1, %#x", dataVA)
	e.p("	ldw  r2, [r1]")
	e.p("	ldw  r3, [r1-4]")
	e.p("	ldw  r4, [r1+%d]", -4*n)
	e.p("	i2f  f0, r2")
	e.p("	i2f  f1, r3")
	e.p("	i2f  f2, r4")
	e.p("	fadd f1, f2      ; upwind flux")
	e.p("	fmul f1, f5")
	e.p("	fadd f0, f1")
	e.p("	fmul f0, f5")
	e.p("	fadd f0, f6")
	// Scattering source: the angular-moment arithmetic that dominates the
	// real kernel (all uncovered microcode).
	for i := 0; i < 4; i++ {
		e.p("	fmov f3, f0")
		e.p("	fmul f3, f5")
		e.p("	fadd f3, f6")
		e.p("	fsub f3, f1")
		e.p("	fmul f3, f3")
		e.p("	fadd f0, f3")
	}
	e.p("	f2i  r2, f0")
	e.p("	stw  r2, [r1]")
	e.p("	inc  r7")
	e.p("	cmpi r7, %d", n-1)
	e.p("	jl   jloop")
	e.p("	inc  r6")
	e.p("	cmpi r6, %d", n-1)
	e.p("	jl   iloop")
	e.p("	dec  r9")
	e.p("	jnz  sweep")
	e.exit()
	return e.b.String()
}

// MysqlProgram: row store — hash probes, WHERE-clause scans, REP MOVS/CMPS
// row copies (string instructions drive the highest µop expansion in Table
// 1, 1.51) and console I/O system calls.
func MysqlProgram(iters int) string {
	e := &emitter{}
	const rowBytes = 8
	const tableRows = 256
	e.p("start:")
	// Row template.
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, %d", rowBytes)
	e.p("	movi r5, 2024")
	e.p("fill:")
	e.lcg("r5")
	e.p("	stb  r5, [r1]")
	e.p("	inc  r1")
	e.p("	dec  r2")
	e.p("	jnz  fill")
	e.p("	movi r9, %d", iters)
	e.p("query:")
	// Hash the key to a row slot.
	e.lcg("r5")
	e.p("	mov  r4, r5")
	e.p("	shri r4, 13")
	e.p("	andi r4, %d", tableRows-1)
	e.p("	movi r6, %d", rowBytes)
	e.p("	mul  r4, r6")
	e.p("	addi r4, %#x", dataVA2)
	// INSERT: copy the row template with REP MOVS.
	e.p("	movi r0, %#x", dataVA)
	e.p("	mov  r1, r4")
	e.p("	movi r2, %d", rowBytes)
	e.p("	rep movs")
	// SELECT: compare a row back with REP CMPS.
	e.p("	movi r0, %#x", dataVA)
	e.p("	mov  r1, r4")
	e.p("	movi r2, %d", rowBytes)
	e.p("	rep cmps")
	e.p("	jnz  corrupt")
	e.p("	inc  r7")
	e.p("	jmp  scan")
	e.p("corrupt:")
	e.p("	inc  r8")
	// WHERE-clause scan: walk a stretch of the table checking a predicate
	// byte — the integer work that dominates a real query's dynamic mix.
	e.p("scan:")
	e.p("	movi r1, %#x", dataVA2)
	e.p("	movi r2, 48")
	e.p("where:")
	e.p("	ldb  r3, [r1]")
	e.p("	cmpi r3, 'm'")
	e.p("	jnz  nomatch")
	e.p("	inc  r7")
	e.p("nomatch:")
	e.p("	addi r1, %d", rowBytes)
	e.p("	dec  r2")
	e.p("	jnz  where")
	e.p("logq:")
	// Log one status byte per query batch.
	e.p("	mov  r3, r9")
	e.p("	andi r3, 63")
	e.p("	cmpi r3, 0")
	e.p("	jnz  nolog")
	e.p("	movi r0, 1")
	e.p("	movi r1, '.'")
	e.p("	syscall")
	e.p("nolog:")
	e.p("	dec  r9")
	e.p("	jnz  query")
	e.exit()
	return e.b.String()
}
