package workload

import (
	"repro/internal/fullsys"
	"repro/internal/isa"
)

// Server-class workloads: FS-kernel boots exercising fork/exec/wait, the
// toyFS file syscalls, the append-only log, and the NIC. They are not part
// of All() — Table 1 and the single-core figures predate them — but they
// are in Registry() and runnable through every front end.

// ShellForkName is the fork-heavy shell workload: a parent forks
// ShellForkChildren children, each exec'ing a program stored as the toyFS
// file "child", and reaps their exit statuses.
const ShellForkName = "shell-fork"

// LogWriteName is the log-structured write-stress workload: unlink, file
// creation, append-only writes crossing block boundaries, and a burst of
// commit-log appends.
const LogWriteName = "logwrite"

// NICServName is the NIC request/response server: scripted packet
// arrivals, a polled receive loop, per-request hashing into a bucket
// table, two reply words per request, and periodic log appends.
const NICServName = "nicserv"

// verdict ends a server program: falling in prints 'K', a jump to bad
// prints 'X', then a newline, then the program exits.
func (e *emitter) verdict() {
	e.p("	movi r1, 'K'")
	e.p("	jmp  report")
	e.p("bad:")
	e.p("	movi r1, 'X'")
	e.p("report:")
	e.p("	movi r0, 1")
	e.p("	syscall")
	e.p("	movi r1, 10")
	e.p("	movi r0, 1")
	e.p("	syscall")
	e.exit()
}

// ShellForkChildren is how many children shell-fork spawns and reaps.
const ShellForkChildren = 8

// Child program tuning: small enough that 8 children plus the parent stay
// well inside the bench instruction caps, big enough that the children
// dominate the parent's bookkeeping.
const childIters = 300
const childSeed = 7

// nicServRequests is how many scripted requests nicserv serves; it must
// match the arrival script built by NICServ.
const nicServRequests = 24

// ChildExitStatus is the Go reference for the child program's exit status:
// iters rounds of the toyOS LCG starting from seed, accumulating the high
// byte, masked to the 7-bit exit-status range. The fork/wait conformance
// test checks the simulated children against this.
func ChildExitStatus(seed uint32, iters int) uint32 {
	x := seed
	var acc uint32
	for i := 0; i < iters; i++ {
		x = x*1103515245 + 12345
		acc += (x >> 16) & 0xFF
	}
	return acc & 0x7F
}

// childProgram is the program stored as the toyFS file "child": the LCG
// accumulation of ChildExitStatus, a 'c' on the console to mark the child
// ran, then exit with the computed status.
func childProgram(seed uint32, iters int) string {
	e := &emitter{}
	e.p("start:")
	e.p("	movi r5, %d", int32(seed))
	e.p("	movi r6, 0        ; acc")
	e.p("	movi r3, %d", iters)
	e.p("chloop:")
	e.lcg("r5")
	e.p("	mov  r4, r5")
	e.p("	shri r4, 16")
	e.p("	andi r4, 0xFF")
	e.p("	add  r6, r4")
	e.p("	dec  r3")
	e.p("	jnz  chloop")
	e.p("	andi r6, 0x7F")
	e.p("	movi r1, 'c'")
	e.p("	movi r0, 1")
	e.p("	syscall")
	e.p("	mov  r1, r6")
	e.p("	movi r0, 0")
	e.p("	syscall           ; exit(status)")
	e.p("	jmp  .")
	return e.b.String()
}

// ChildProgramBytes assembles the child program as stored in the toyFS
// image: raw code bytes linked at UserVA, exactly what sysexec copies into
// the child's slot.
func ChildProgramBytes() []byte {
	prog := isa.MustAssemble(childProgram(childSeed, childIters), UserVA)
	return prog.Code
}

// shellForkProgram is the init process of the shell-fork workload. It
// forks ShellForkChildren children (each immediately exec's "child"),
// then reaps them all: an 'r' per reaped child, and 'K' if the summed
// exit statuses match the Go reference ('X' otherwise).
func shellForkProgram() string {
	expected := int32(uint32(ShellForkChildren) * ChildExitStatus(childSeed, childIters))
	e := &emitter{}
	e.p("start:")
	e.p("	movi r7, 0")
	e.p("forkloop:")
	e.p("	movi r0, 11")
	e.p("	syscall           ; fork")
	e.p("	cmpi r0, 0")
	e.p("	jz   child")
	e.p("	inc  r7")
	e.p("	cmpi r7, %d", ShellForkChildren)
	e.p("	jl   forkloop")
	e.p("	movi r7, 0        ; reaped")
	e.p("	movi r8, 0        ; status sum")
	e.p("waitloop:")
	e.p("	movi r0, 13")
	e.p("	syscall           ; wait")
	e.p("	cmpi r0, 0")
	e.p("	jl   waitneg")
	e.p("	add  r8, r1")
	e.p("	movi r1, 'r'")
	e.p("	movi r0, 1")
	e.p("	syscall")
	e.p("	inc  r7")
	e.p("	cmpi r7, %d", ShellForkChildren)
	e.p("	jl   waitloop")
	e.p("	jmp  check")
	e.p("waitneg:")
	e.p("	cmpi r0, -2")
	e.p("	jz   check        ; no children left (early; sum check will flag)")
	e.p("	jmp  waitloop     ; -1: children still running, retry")
	e.p("check:")
	e.p("	cmpi r8, %d", expected)
	e.p("	jnz  bad")
	e.verdict()
	e.p("child:")
	e.p("	movi r1, path")
	e.p("	movi r0, 12")
	e.p("	syscall           ; exec(\"child\") — does not return")
	e.p("	jmp  .")
	e.p("path:")
	e.p("	.asciz \"child\"")
	return e.b.String()
}

// logWriteProgram is the log-structured write stress: unlink the seeded
// "seed" file, create "out" and append three full 256-byte buffers plus an
// unaligned 100-byte tail (crossing block boundaries), close it, then
// append 32 mutated 128-byte records to the commit log.
func logWriteProgram() string {
	e := &emitter{}
	e.p("start:")
	e.p("	movi r1, pseed")
	e.p("	movi r0, 10")
	e.p("	syscall           ; unlink(\"seed\")")
	e.p("	movi r1, pout")
	e.p("	movi r2, 1")
	e.p("	movi r0, 6")
	e.p("	syscall           ; open(\"out\", create)")
	e.p("	mov  r9, r0")
	e.p("	cmpi r9, 0")
	e.p("	jl   bad")
	e.p("	movi r5, %d", 0xBEEF)
	e.p("	movi r6, %#x", dataVA)
	e.p("	movi r3, 64")
	e.p("fill:")
	e.lcg("r5")
	e.p("	stw  r5, [r6]")
	e.p("	addi r6, 4")
	e.p("	dec  r3")
	e.p("	jnz  fill")
	e.p("	movi r7, 3")
	e.p("wrloop:")
	e.p("	mov  r1, r9")
	e.p("	movi r2, %#x", dataVA)
	e.p("	movi r3, 256")
	e.p("	movi r0, 8")
	e.p("	syscall           ; write 256")
	e.p("	cmpi r0, 256")
	e.p("	jnz  bad")
	e.p("	dec  r7")
	e.p("	jnz  wrloop")
	e.p("	mov  r1, r9")
	e.p("	movi r2, %#x", dataVA)
	e.p("	movi r3, 100")
	e.p("	movi r0, 8")
	e.p("	syscall           ; unaligned 100-byte tail")
	e.p("	cmpi r0, 100")
	e.p("	jnz  bad")
	e.p("	mov  r1, r9")
	e.p("	movi r0, 9")
	e.p("	syscall           ; close")
	e.p("	movi r7, 0")
	e.p("logloop:")
	e.p("	movi r6, %#x", dataVA)
	e.p("	ldw  r5, [r6]")
	e.p("	inc  r5")
	e.p("	stw  r5, [r6]     ; mutate so every record differs")
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, 128")
	e.p("	movi r0, 14")
	e.p("	syscall           ; logappend")
	e.p("	cmpi r0, 0")
	e.p("	jl   bad")
	e.p("	inc  r7")
	e.p("	cmpi r7, 32")
	e.p("	jl   logloop")
	e.verdict()
	e.p("pseed:")
	e.p("	.asciz \"seed\"")
	e.p("pout:")
	e.p("	.asciz \"out\"")
	return e.b.String()
}

// nicServProgram is the request/response server: read a 64-byte config
// from toyFS, then serve nreq scripted requests — poll the NIC (sleeping a
// tick when idle), hash each key into a 256-bucket table, reply with the
// obfuscated key and its bucket, and append a log record every 8th
// request.
func nicServProgram(nreq int) string {
	e := &emitter{}
	e.p("start:")
	e.p("	movi r1, pconf")
	e.p("	movi r2, 0")
	e.p("	movi r0, 6")
	e.p("	syscall           ; open(\"conf\", read)")
	e.p("	mov  r9, r0")
	e.p("	cmpi r9, 0")
	e.p("	jl   bad")
	e.p("	mov  r1, r9")
	e.p("	movi r2, %#x", dataVA)
	e.p("	movi r3, 64")
	e.p("	movi r0, 7")
	e.p("	syscall           ; read config")
	e.p("	cmpi r0, 64")
	e.p("	jnz  bad")
	e.p("	mov  r1, r9")
	e.p("	movi r0, 9")
	e.p("	syscall           ; close")
	e.p("	movi r7, 0        ; served")
	e.p("reqloop:")
	e.p("poll:")
	e.p("	movi r0, 15")
	e.p("	syscall           ; nicpoll")
	e.p("	andi r0, 1")
	e.p("	jnz  have")
	e.p("	movi r1, 1")
	e.p("	movi r0, 4")
	e.p("	syscall           ; sleep a tick, then re-poll")
	e.p("	jmp  poll")
	e.p("have:")
	e.p("	movi r0, 16")
	e.p("	syscall           ; nicrecv")
	e.p("	mov  r6, r0       ; key")
	e.p("	movi r10, %#x", uint64(0x9E3779B1))
	e.p("	mov  r4, r6")
	e.p("	mul  r4, r10")
	e.p("	shri r4, 20")
	e.p("	andi r4, 0xFF     ; bucket")
	e.p("	mov  r5, r4")
	e.p("	shli r5, 2")
	e.p("	addi r5, %#x", dataVA2)
	e.p("	ldw  r3, [r5]")
	e.p("	inc  r3")
	e.p("	stw  r3, [r5]")
	e.p("	mov  r1, r6")
	e.p("	movi r10, %#x", uint64(0x5A5A5A5A))
	e.p("	xor  r1, r10")
	e.p("	movi r0, 17")
	e.p("	syscall           ; reply: obfuscated key")
	e.p("	mov  r1, r4")
	e.p("	movi r0, 17")
	e.p("	syscall           ; reply: bucket")
	e.p("	mov  r4, r7")
	e.p("	andi r4, 7")
	e.p("	cmpi r4, 7")
	e.p("	jnz  nolog")
	e.p("	movi r5, %#x", dataVA)
	e.p("	ldw  r3, [r5]")
	e.p("	add  r3, r6")
	e.p("	stw  r3, [r5]")
	e.p("	movi r1, %#x", dataVA)
	e.p("	movi r2, 16")
	e.p("	movi r0, 14")
	e.p("	syscall           ; audit-log every 8th request")
	e.p("nolog:")
	e.p("	inc  r7")
	e.p("	cmpi r7, %d", nreq)
	e.p("	jl   reqloop")
	e.verdict()
	e.p("pconf:")
	e.p("	.asciz \"conf\"")
	return e.b.String()
}

// fsBoot is the kernel configuration shared by the server workloads: a
// fast boot with the FS kernel enabled.
func fsBoot() KernelConfig {
	k := FastBoot()
	k.FS = true
	return k
}

// ShellFork builds the fork-heavy shell workload.
func ShellFork() Spec {
	return Spec{
		Name:    ShellForkName,
		Kernel:  fsBoot(),
		UserAsm: shellForkProgram,
		Files: func() map[string][]byte {
			return map[string][]byte{"child": ChildProgramBytes()}
		},
	}
}

// LogWrite builds the log-structured write-stress workload. The seeded
// "seed" file exists only to be unlinked, exercising the free path.
func LogWrite() Spec {
	return Spec{
		Name:    LogWriteName,
		Kernel:  fsBoot(),
		UserAsm: logWriteProgram,
		Files: func() map[string][]byte {
			seed := make([]byte, 600)
			for i := range seed {
				seed[i] = byte(i * 7)
			}
			return map[string][]byte{"seed": seed}
		},
	}
}

// NICServKeys returns the scripted request keys in arrival order: the
// deterministic ground truth the nicserv end-to-end test replays.
func NICServKeys() []uint32 {
	keys := make([]uint32, nicServRequests)
	x := uint32(0xC0FFEE)
	for i := range keys {
		x = x*1103515245 + 12345
		keys[i] = x
	}
	return keys
}

// NICServ builds the NIC request/response server workload: requests
// arrive every 2000 instructions starting after boot settles.
func NICServ() Spec {
	keys := NICServKeys()
	arrivals := make([]fullsys.ScriptedInput, len(keys))
	for i, k := range keys {
		arrivals[i] = fullsys.ScriptedInput{
			At:   20000 + uint64(i)*2000,
			Data: []byte{byte(k), byte(k >> 8), byte(k >> 16), byte(k >> 24)},
		}
	}
	conf := make([]byte, 64)
	for i := range conf {
		conf[i] = byte(0x40 + i)
	}
	return Spec{
		Name:    NICServName,
		Kernel:  fsBoot(),
		UserAsm: func() string { return nicServProgram(nicServRequests) },
		Files: func() map[string][]byte {
			return map[string][]byte{"conf": conf}
		},
		Arrivals: arrivals,
	}
}

// Servers returns the three server-class workloads.
func Servers() []Spec {
	return []Spec{ShellFork(), LogWrite(), NICServ()}
}
