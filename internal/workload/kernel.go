package workload

import (
	"fmt"
	"strings"

	"repro/internal/fullsys"
	"repro/internal/isa"
	"repro/internal/workload/fs"
)

// toyOS memory map (physical).
const (
	kVarBase    = 0x100   // kernel variables
	kCodeBase   = 0x200   // kernel code (must stay below kSecBuf)
	kPCPU       = 0x3B800 // per-CPU trap spill areas (SMP; 32 bytes/core)
	kSecBuf     = 0x3C000 // disk sector staging buffer
	UserPA      = 0x40000 // user program physical base
	UserVA      = 0x10000 // user program virtual base
	UserVAEnd   = 0x80000
	userOffset  = (UserPA - UserVA) >> fullsys.PageShift // PFN offset for linear mapping
	UserSP      = 0x7FF00                                // initial user stack pointer (VA)
	DiskLatency = 200
)

// KernelConfig scales toyOS's boot phases — the knobs that differentiate
// the Linux-2.4, Linux-2.6 and Windows-XP boot workloads.
type KernelConfig struct {
	// BIOSBranchBlocks is the number of one-shot data-dependent branch
	// blocks in the BIOS phase ("the BIOS ... is comprised of many
	// branches that are executed only once", §4.6).
	BIOSBranchBlocks int
	// ChecksumRounds is how many passes the BIOS ROM checksum makes.
	ChecksumRounds int
	// ChecksumBytes is the ROM region length per pass (default 0x1800).
	ChecksumBytes int
	// DeviceProbes is the number of device-probe rounds (Windows "touches
	// more devices than Linux does", §4.4).
	DeviceProbes int
	// TimerInterval programs the periodic timer (target time units);
	// 0 leaves it off and enters user mode with interrupts disabled.
	TimerInterval int
	// PayloadPad appends this many pseudo-random bytes to the user image
	// before compression: it scales the decompression phase the way a real
	// kernel image scales a real boot. PayloadRunFraction (0..100) makes
	// that percentage of the padding compressible runs, which raises the
	// boot's µop expansion through longer REP STOS bursts.
	PayloadPad         int
	PayloadRunFraction int
	// Banner is written to the console at boot.
	Banner string

	// Cores > 1 builds the SMP kernel: secondaries park in a release-flag
	// spin at BIOS entry while core 0 boots, and the trap handlers spill
	// their context to per-CPU areas. At Cores <= 1 the generated source
	// is byte-identical to the single-core kernel.
	Cores int
	// SMPUser sends released secondaries into the user program (with r1 =
	// CPUID and a per-CPU stack); when false they halt after release, an
	// SMP boot with idle secondaries — the safe default for user programs
	// that are not written for multiple cores.
	SMPUser bool

	// FS grows the kernel with the toyFS subsystem: a sector cache,
	// file/process/log/NIC syscalls, and per-process address spaces (see
	// fskernel.go). FS kernels are uniprocessor-only — Spec.Build rejects
	// FS with Cores > 1. At FS=false the generated source is byte-
	// identical to the pre-FS kernel.
	FS bool
	// DiskLatency overrides the built disk's latency in target time units;
	// 0 keeps the package default. The engines leave it 0: a job's latency
	// (sim.Params.DiskLatency, what experiments.Runner.Servers sweeps)
	// reaches the disk through Boot.Fork instead, over an image built once.
	// The bench/ yardstick sets it when it builds an image by itself.
	DiskLatency uint64
}

// FastBoot is the minimal kernel configuration used when the workload of
// interest is the user program, not the boot.
func FastBoot() KernelConfig {
	return KernelConfig{
		BIOSBranchBlocks: 4, ChecksumRounds: 1, ChecksumBytes: 0x200,
		DeviceProbes: 1, TimerInterval: 20000,
	}
}

// KernelSource generates the toyOS kernel assembly for a configuration.
func KernelSource(k KernelConfig) string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	p("; toyOS — generated kernel (bios blocks %d, probes %d, timer %d)",
		k.BIOSBranchBlocks, k.DeviceProbes, k.TimerInterval)
	p(".equ vTICKS, %#x", kVarBase+0x00)
	p(".equ vSLEEP, %#x", kVarBase+0x04)
	p(".equ vEPC,   %#x", kVarBase+0x08)
	p(".equ vEFL,   %#x", kVarBase+0x0C)
	p(".equ vSAVE1, %#x", kVarBase+0x10)
	p(".equ vSAVE2, %#x", kVarBase+0x14)
	p(".equ vSAVE3, %#x", kVarBase+0x18)
	p(".equ SECBUF, %#x", kSecBuf)
	p(".equ USERPA, %#x", UserPA)
	if k.Cores > 1 {
		p(".equ vRELEASE, %#x", kVarBase+0x1C)
		p(".equ PCPU, %#x", kPCPU)
	}
	if k.FS {
		fsEquates(p)
	}
	p(".org %#x", kCodeBase)

	// ---- Phase 1: BIOS ----
	p("bios:")
	if k.Cores > 1 {
		// SMP: every core enters here; secondaries park until core 0
		// finishes the boot and raises the release flag.
		p("	movrc r4, cr8     ; CPUID")
		p("	cmpi r4, 0")
		p("	jnz  mpwait")
	}
	p("	movi r1, 0x5A17")
	for round := 0; round < max(1, k.DeviceProbes); round++ {
		p("	in   r0, 0x01   ; PIC mask")
		p("	add  r1, r0")
		p("	in   r0, 0x11   ; console status")
		p("	add  r1, r0")
		p("	in   r0, 0x20   ; timer")
		p("	add  r1, r0")
		p("	in   r0, 0x33   ; disk status")
		p("	add  r1, r0")
		p("	in   r0, 0x40   ; NIC status")
		p("	add  r1, r0")
	}
	// ROM checksum: pass(es) over the kernel image (the relatively flat
	// region at the start of the Figure 6 trace).
	p("	movi r7, %d", max(1, k.ChecksumRounds))
	p("chksumround:")
	p("	movi r0, %#x", kCodeBase)
	p("chksum:")
	p("	ldb  r2, [r0]")
	p("	add  r1, r2")
	p("	inc  r0")
	csum := k.ChecksumBytes
	if csum == 0 {
		csum = 0x1800
	}
	p("	cmpi r0, %#x", kCodeBase+csum)
	p("	jl   chksum")
	p("	dec  r7")
	p("	jnz  chksumround")
	// One-shot configuration branches: executed exactly once each, with
	// data-dependent directions — cold-predictor misses.
	for i := 0; i < k.BIOSBranchBlocks; i++ {
		p("	mov  r2, r1")
		p("	shri r2, %d", i%13)
		p("	andi r2, 1")
		p("	cmpi r2, 0")
		p("	jz   biosskip%d", i)
		p("	addi r1, %d", 17+i*3)
		p("	xori r1, %d", 0x21+i)
		p("biosskip%d:", i)
	}

	// Banner out to the console.
	if k.Banner != "" {
		p("	movi r5, banner")
		p("	movi r6, bannerend")
		p("bannerloop:")
		p("	ldb  r0, [r5]")
		p("	out  r0, 0x10")
		p("	inc  r5")
		p("	cmp  r5, r6")
		p("	jl   bannerloop")
	}

	// ---- Phase 2: load + decompress the payload from disk ----
	p("	movi r8, 1        ; first payload sector")
	p("	movi r10, USERPA  ; decompression cursor")
	p("loadsec:")
	p("	out  r8, 0x30")
	p("	movi r0, 1")
	p("	out  r0, 0x31     ; read command")
	p("diskwait:")
	p("	pause")
	p("	in   r0, 0x33")
	p("	andi r0, 1")
	p("	jnz  diskwait")
	p("	movi r0, 1")
	p("	out  r0, 0x34     ; ack completion")
	p("	movi r5, SECBUF")
	p("	movi r6, %d", SectorWords)
	p("rdword:")
	p("	in   r0, 0x32")
	p("	stw  r0, [r5]")
	p("	addi r5, 4")
	p("	dec  r6")
	p("	jnz  rdword")
	p("	movi r5, SECBUF")
	p("nextent:")
	p("	ldw  r4, [r5]")
	p("	addi r5, 4")
	p("	cmpi r4, 0")
	p("	jz   loaddone")
	// Relocation fixup: data-dependent on the payload byte — the
	// decompress phase's branch behaviour tracks the image contents.
	p("	mov  r3, r4")
	p("	andi r3, 1")
	p("	jz   nofix")
	p("	inc  r9           ; fixup count")
	p("nofix:")
	// Bounds sanity checks (never taken): the biased guard branches that
	// pepper real kernel code.
	p("	cmpi r10, %#x", 0x0F000000)
	p("	jge  loaddone")
	p("	cmpi r5, %#x", 0x0F000000)
	p("	jge  loaddone")
	p("	mov  r3, r4")
	p("	andi r3, 0xFF     ; value byte")
	p("	mov  r2, r4")
	p("	shri r2, 8        ; run length")
	p("	mov  r1, r10")
	p("	rep stos          ; string-op decompressor")
	p("	mov  r10, r1")
	p("	cmpi r5, %#x", kSecBuf+SectorWords*4)
	p("	jl   nextent")
	p("	inc  r8")
	p("	jmp  loadsec")
	p("loaddone:")

	// ---- Phase 3: kernel init: IVT, TLB, timer, drop to user ----
	install := func(vec int, label string) {
		p("	movi r0, %s", label)
		p("	movi r2, %d", vec*isa.VectorStride)
		p("	stw  r0, [r2]")
	}
	install(isa.VecIllegal, "kill")
	install(isa.VecDivZero, "kill")
	install(isa.VecTLBMiss, "tlbmiss")
	install(isa.VecProt, "kill")
	install(isa.VecSyscall, "syscallh")
	install(isa.VecBreak, "kill")
	install(isa.VecAlign, "kill")
	install(isa.VecFPError, "kill")
	install(isa.VecTimer, "timerh")
	install(isa.VecDisk, "spuriret")
	install(isa.VecConsole, "spuriret")
	install(isa.VecNIC, "spuriret")
	if k.TimerInterval > 0 {
		p("	movi r0, %d", k.TimerInterval)
		p("	out  r0, 0x20")
	}
	if k.FS {
		fsInit(p)
	}
	p("	movi r0, 1")
	p("	movcr r0, cr1     ; enable user paging")
	p("	movi r0, %#x", UserVA)
	p("	movcr r0, cr5")
	flags := 0x20 // user mode
	if k.TimerInterval > 0 {
		flags |= 0x10 // interrupts
	}
	p("	movi r0, %#x", flags)
	p("	movcr r0, cr6")
	p("	movi sp, %#x", UserSP)
	if k.Cores > 1 {
		// Boot is done: release the parked secondaries. Plain store — the
		// flag is write-once and the spinners only read it.
		p("	movi r4, vRELEASE")
		p("	movi r0, 1")
		p("	stw  r0, [r4]")
	}
	// Zero the user-visible register file: no kernel state leaks into the
	// process (r11/r12 are kernel scratch by ABI anyway).
	for r := 0; r <= 10; r++ {
		p("	movi r%d, 0", r)
	}
	p("	movi r15, 0")
	p("	movi lr, 0")
	p("	iret              ; enter user program")

	// ---- Handlers ----
	// r11/r12 are kernel-reserved scratch by ABI (the MIPS k0/k1 idiom):
	// user programs never touch them, so trap handlers may clobber them
	// without saving. Handlers run with interrupts disabled except inside
	// the sleep loop, which re-establishes its registers after waking.

	// TLB miss: linear map user VAs; anything else kills the process.
	// Under FS the map is offset by the current process's memory slot.
	if k.FS {
		fsTLBMiss(p)
	} else {
		p("tlbmiss:")
		p("	movrc r11, cr2")
		p("	shri r11, %d", fullsys.PageShift)
		p("	cmpi r11, %#x", UserVA>>fullsys.PageShift)
		p("	jl   kill")
		p("	cmpi r11, %#x", UserVAEnd>>fullsys.PageShift)
		p("	jge  kill")
		p("	mov  r12, r11")
		p("	addi r12, %#x", userOffset)
		p("	shli r12, %d", fullsys.PageShift)
		p("	ori  r12, 3       ; user|write")
		p("	tlbwr r11, r12")
		p("	iret")
	}

	// Timer: tick, ack. On SMP every core has its own timer device, so the
	// tick counter lives in the per-CPU area (PCPU + CPUID*32 + 8) — a
	// shared counter would mix independent per-core clocks.
	p("timerh:")
	if k.Cores > 1 {
		p("	movrc r12, cr8")
		p("	shli r12, 5")
		p("	addi r12, PCPU")
		p("	ldw  r11, [r12+8]")
		p("	inc  r11")
		p("	stw  r11, [r12+8]")
	} else {
		p("	movi r12, vTICKS")
		p("	ldw  r11, [r12]")
		p("	inc  r11")
		p("	stw  r11, [r12]")
	}
	p("	movi r11, 1")
	p("	out  r11, 0x22")
	p("	iret")

	// Spurious device interrupts: acknowledge everything and return.
	p("spuriret:")
	p("	movi r11, 1")
	p("	out  r11, 0x34    ; disk ack")
	p("	out  r11, 0x43    ; nic ack")
	p("	in   r11, 0x12    ; console drain")
	p("	iret")

	// Syscalls: r0 = number. The trap context (EPC/EFLAGS) is spilled to
	// memory because sleep re-enables interrupts, which overwrites the
	// context CRs. On SMP the spill slot is per-CPU (PCPU + CPUID*32):
	// two cores inside the handler at once must not share it.
	pcpuSlot := func() {
		p("	movrc r12, cr8")
		p("	shli r12, 5")
		p("	addi r12, PCPU")
	}
	if k.FS {
		// The FS syscall surface replaces the whole block below: full
		// register spill/restore through the process table, the extended
		// dispatch, and the file/process/log/NIC handlers (fskernel.go).
		fsSyscalls(p, flags)
	} else {
		p("syscallh:")
		if k.Cores > 1 {
			pcpuSlot()
		} else {
			p("	movi r12, vEPC")
		}
		p("	movrc r11, cr5")
		p("	stw  r11, [r12]")
		p("	movrc r11, cr6")
		p("	stw  r11, [r12+4] ; vEFL")
		p("	cmpi r0, 0")
		p("	jz   shutdown     ; sys_exit")
		p("	cmpi r0, 1")
		p("	jz   sysputc")
		p("	cmpi r0, 2")
		p("	jz   sysgetc")
		p("	cmpi r0, 4")
		p("	jz   syssleep")
		p("	cmpi r0, 5")
		p("	jz   systime")
		p("sysret:")
		if k.Cores > 1 {
			pcpuSlot()
		} else {
			p("	movi r12, vEPC")
		}
		p("	ldw  r11, [r12]")
		p("	movcr r11, cr5")
		p("	ldw  r11, [r12+4]")
		p("	movcr r11, cr6")
		p("	iret")
		p("sysputc:")
		p("	out  r1, 0x10")
		p("	jmp  sysret")
		p("sysgetc:")
		p("	in   r0, 0x12")
		p("	jmp  sysret")
		p("systime:")
		p("	movrc r0, cr4")
		p("	jmp  sysret")
		// sleep(r1 ticks): HALT until the tick counter advances far enough —
		// the perlbmk behaviour ("the default QEMU behavior stops the
		// processor until the timer interrupt fires", §4.4).
		// On SMP the tick counter and sleep target are per-CPU (slots +8/+12
		// of the 32-byte PCPU stride): each core sleeps against its own timer.
		p("syssleep:")
		if k.Cores > 1 {
			pcpuSlot()
			p("	ldw  r11, [r12+8]")
			p("	add  r11, r1")
			p("	stw  r11, [r12+12]")
		} else {
			p("	movi r12, vTICKS")
			p("	ldw  r11, [r12]")
			p("	add  r11, r1")
			p("	stw  r11, [r12+4] ; vSLEEP")
		}
		p("sleeploop:")
		p("	sti")
		p("	halt")
		p("	cli")
		if k.Cores > 1 {
			pcpuSlot()
			p("	ldw  r11, [r12+8]")
			p("	ldw  r12, [r12+12]")
		} else {
			p("	movi r12, vTICKS")
			p("	ldw  r11, [r12]")
			p("	ldw  r12, [r12+4]")
		}
		p("	cmp  r11, r12")
		p("	jl   sleeploop")
		p("	jmp  sysret")
	}

	p("kill:")
	p("shutdown:")
	p("	movi r0, '\\n'")
	p("	out  r0, 0x10")
	p("	cli")
	p("	halt")

	if k.Cores > 1 {
		// Secondary cores: spin on the release flag, then either drop into
		// the user program (SMPUser) or halt as idle SMP siblings.
		p("mpwait:")
		p("	movi r5, vRELEASE")
		p("mpspin:")
		p("	pause")
		p("	ldw  r4, [r5]")
		p("	cmpi r4, 0")
		p("	jz   mpspin")
		if k.SMPUser {
			if k.TimerInterval > 0 {
				// Each core owns a timer device; arm it so syssleep can
				// wake this core (the boot core armed only its own).
				p("	movi r0, %d", k.TimerInterval)
				p("	out  r0, 0x20")
			}
			p("	movi r0, 1")
			p("	movcr r0, cr1     ; enable user paging")
			p("	movi r0, %#x", UserVA)
			p("	movcr r0, cr5")
			p("	movi r0, %#x", flags)
			p("	movcr r0, cr6")
			// Per-CPU user stack, 4 KiB strides below the primary's.
			p("	movrc r4, cr8")
			p("	shli r4, 12")
			p("	movi sp, %#x", UserSP)
			p("	sub  sp, r4")
			for r := 0; r <= 10; r++ {
				p("	movi r%d, 0", r)
			}
			p("	movi r15, 0")
			p("	movi lr, 0")
			p("	movrc r1, cr8     ; user ABI: r1 = CPUID")
			p("	iret              ; enter user program")
		} else {
			p("	cli")
			p("	halt              ; idle secondary")
		}
	}

	if k.Banner != "" {
		p("banner:")
		p("	.ascii %q", k.Banner)
		p("bannerend:")
		p("	.align 4")
	}
	p(".entry bios")
	return b.String()
}

// Boot is a bootable full system: kernel image plus devices with the user
// program preloaded on disk.
type Boot struct {
	Kernel  *isa.Program
	Console *fullsys.Console
	Timer   *fullsys.Timer
	Disk    *fullsys.Disk
	NIC     *fullsys.NIC
}

// Devices returns the device set for fm.Config.
func (b *Boot) Devices() []fullsys.Device {
	return []fullsys.Device{b.Console, b.Timer, b.Disk, b.NIC}
}

// Fork returns a boot with devices of its own over everything immutable in
// b — the assembled kernel, the preloaded disk sectors (shared copy-on-write,
// fullsys.Disk.Fork) and the scripted NIC arrivals — with the given disk
// latency, which no other part of a boot depends on. b itself must never run:
// it is the image, built once, and concurrent forks of it are independent.
func (b *Boot) Fork(diskLatency uint64) *Boot {
	return &Boot{
		Kernel:  b.Kernel,
		Console: fullsys.NewConsole(),
		Timer:   fullsys.NewTimer(),
		Disk:    b.Disk.Fork(diskLatency),
		NIC:     b.NIC.Fork(),
	}
}

// BuildBoot assembles the kernel and the user program, compresses the user
// image onto the disk, and returns the bootable system.
func BuildBoot(k KernelConfig, userAsm string) (*Boot, error) {
	return buildBoot(k, userAsm, nil, nil)
}

func buildBoot(k KernelConfig, userAsm string, files map[string][]byte, arrivals []fullsys.ScriptedInput) (*Boot, error) {
	if k.FS && k.Cores > 1 {
		return nil, fmt.Errorf("workload: the FS kernel is uniprocessor-only (cores = %d)", k.Cores)
	}
	user, err := isa.Assemble(userAsm, UserVA)
	if err != nil {
		return nil, fmt.Errorf("workload: user program: %w", err)
	}
	if user.Entry != UserVA {
		return nil, fmt.Errorf("workload: user entry %#x, must be %#x", user.Entry, UserVA)
	}
	kernel, err := isa.Assemble(KernelSource(k), 0)
	if err != nil {
		return nil, fmt.Errorf("workload: kernel: %w", err)
	}
	kernelLimit := isa.Word(kSecBuf)
	if k.FS {
		kernelLimit = kProcBase // FS kernel data structures start here
	}
	if kernel.End() > kernelLimit {
		return nil, fmt.Errorf("workload: kernel image %#x overruns the reserved region at %#x",
			kernel.End(), kernelLimit)
	}
	image := append([]byte(nil), user.Code...)
	if k.PayloadPad > 0 {
		// Deterministic pseudo-random padding; PayloadRunFraction percent
		// of it in short runs (compressible), the rest byte-unique.
		lcg := uint32(0x2B00B1E5)
		for len(image) < len(user.Code)+k.PayloadPad {
			lcg = lcg*1664525 + 1013904223
			b := byte(lcg >> 16)
			if int(lcg>>24)%100 < k.PayloadRunFraction {
				run := 3 + int(lcg>>13)%6
				for j := 0; j < run; j++ {
					image = append(image, b)
				}
			} else {
				image = append(image, b)
			}
		}
	}
	latency := uint64(DiskLatency)
	if k.DiskLatency > 0 {
		latency = k.DiskLatency
	}
	disk := fullsys.NewDisk(SectorWords, latency)
	payload := ToSectors(RLECompress(image))
	if k.FS && len(payload)+1 > fs.Base {
		return nil, fmt.Errorf("workload: boot payload (%d sectors) overruns the toyFS region at sector %d",
			len(payload), fs.Base)
	}
	for i, sec := range payload {
		disk.Preload(uint32(i+1), sec)
	}
	if k.FS {
		im, err := fs.Mkfs(files)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		for sector, words := range im {
			disk.Preload(sector, words)
		}
	}
	return &Boot{
		Kernel:  kernel,
		Console: fullsys.NewConsole(),
		Timer:   fullsys.NewTimer(),
		Disk:    disk,
		NIC:     fullsys.NewNIC(arrivals...),
	}, nil
}
