package workload

import (
	"fmt"

	"repro/internal/fullsys"
)

// Spec describes one benchmark: how to build it and what the paper reports
// for it (Table 1, Figures 4 and 5) so the harness can print
// paper-vs-measured.
type Spec struct {
	Name string
	// Kernel configuration (boot workloads differ here).
	Kernel KernelConfig
	// UserAsm generates the user program.
	UserAsm func() string
	// Files, for FS-kernel workloads (Kernel.FS), generates the file set
	// formatted into the toyFS disk image at build time.
	Files func() map[string][]byte
	// Arrivals scripts NIC packet arrivals (FS-kernel workloads only).
	Arrivals []fullsys.ScriptedInput

	// Published reference values.
	PaperUopsPerInst float64 // Table 1 "µOps/inst"
	PaperFraction    float64 // Table 1 "Fraction" (microcode coverage)
	PaperGshareAcc   float64 // Figure 5 (approximate, read off the plot)
	PaperGshareMIPS  float64 // Figure 4 gshare series (approximate)
}

// Build assembles the bootable system for the spec.
func (s Spec) Build() (*Boot, error) {
	var files map[string][]byte
	if s.Files != nil {
		files = s.Files()
	}
	b, err := buildBoot(s.Kernel, s.UserAsm(), files, s.Arrivals)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	return b, nil
}

// iteration counts sized so every workload runs well past any warmup under
// the benches' instruction caps.
const std = 100000

// All returns the sixteen workloads of Table 1 in the paper's order.
func All() []Spec {
	linux24 := KernelConfig{
		BIOSBranchBlocks: 160, ChecksumRounds: 3, DeviceProbes: 3,
		TimerInterval: 20000, Banner: "toyOS 2.4 booting\n",
		PayloadPad: 10 << 10, PayloadRunFraction: 10,
	}
	linux26 := KernelConfig{
		BIOSBranchBlocks: 220, ChecksumRounds: 2, DeviceProbes: 4,
		TimerInterval: 15000, Banner: "toyOS 2.6 booting\n",
		PayloadPad: 20 << 10, PayloadRunFraction: 55,
	}
	fast := FastBoot()

	return []Spec{
		{Name: "Linux-2.4", Kernel: linux24, UserAsm: InitProgram,
			PaperUopsPerInst: 1.15, PaperFraction: 0.9594, PaperGshareAcc: 0.87, PaperGshareMIPS: 1.2},
		{Name: "164.gzip", Kernel: fast, UserAsm: func() string { return GzipProgram(std) },
			PaperUopsPerInst: 1.34, PaperFraction: 0.9998, PaperGshareAcc: 0.90, PaperGshareMIPS: 1.1},
		{Name: "175.vpr", Kernel: fast, UserAsm: func() string { return VprProgram(std) },
			PaperUopsPerInst: 1.19, PaperFraction: 0.8462, PaperGshareAcc: 0.88, PaperGshareMIPS: 1.0},
		{Name: "176.gcc", Kernel: fast, UserAsm: func() string { return GccProgram(std) },
			PaperUopsPerInst: 1.30, PaperFraction: 0.9990, PaperGshareAcc: 0.88, PaperGshareMIPS: 1.1},
		{Name: "181.mcf", Kernel: fast, UserAsm: func() string { return McfProgram(std) },
			PaperUopsPerInst: 1.17, PaperFraction: 0.9993, PaperGshareAcc: 0.91, PaperGshareMIPS: 1.0},
		{Name: "186.crafty", Kernel: fast, UserAsm: func() string { return CraftyProgram(std) },
			PaperUopsPerInst: 1.15, PaperFraction: 0.9896, PaperGshareAcc: 0.85, PaperGshareMIPS: 1.2},
		{Name: "197.parser", Kernel: fast, UserAsm: func() string { return ParserProgram(200) },
			PaperUopsPerInst: 1.27, PaperFraction: 0.9974, PaperGshareAcc: 0.84, PaperGshareMIPS: 1.0},
		{Name: "252.eon", Kernel: fast, UserAsm: func() string { return EonProgram(std) },
			PaperUopsPerInst: 1.24, PaperFraction: 0.5232, PaperGshareAcc: 0.85, PaperGshareMIPS: 1.2},
		{Name: "253.perlbmk", Kernel: fast, UserAsm: func() string { return PerlbmkProgram(400) },
			PaperUopsPerInst: 1.29, PaperFraction: 0.9864, PaperGshareAcc: 0.902, PaperGshareMIPS: 0.6},
		{Name: "254.gap", Kernel: fast, UserAsm: func() string { return GapProgram(4000) },
			PaperUopsPerInst: 1.31, PaperFraction: 0.9980, PaperGshareAcc: 0.92, PaperGshareMIPS: 1.3},
		{Name: "255.vortex", Kernel: fast, UserAsm: func() string { return VortexProgram(std) },
			PaperUopsPerInst: 1.21, PaperFraction: 0.9991, PaperGshareAcc: 0.95, PaperGshareMIPS: 1.5},
		{Name: "256.bzip2", Kernel: fast, UserAsm: func() string { return Bzip2Program(2000) },
			PaperUopsPerInst: 1.29, PaperFraction: 0.9998, PaperGshareAcc: 0.90, PaperGshareMIPS: 1.2},
		{Name: "300.twolf", Kernel: fast, UserAsm: func() string { return TwolfProgram(std) },
			PaperUopsPerInst: 1.25, PaperFraction: 0.9520, PaperGshareAcc: 0.87, PaperGshareMIPS: 1.1},
		{Name: "Linux-2.6", Kernel: linux26, UserAsm: InitProgram,
			PaperUopsPerInst: 1.45, PaperFraction: 0.9802, PaperGshareAcc: 0.87, PaperGshareMIPS: 1.1},
		{Name: "Sweep3D", Kernel: fast, UserAsm: func() string { return Sweep3DProgram(400) },
			PaperUopsPerInst: 1.19, PaperFraction: 0.4405, PaperGshareAcc: 0.94, PaperGshareMIPS: 1.7},
		{Name: "MySQL", Kernel: fast, UserAsm: func() string { return MysqlProgram(20000) },
			PaperUopsPerInst: 1.51, PaperFraction: 0.9915, PaperGshareAcc: 0.90, PaperGshareMIPS: 1.2},
	}
}

// WindowsXP is the Figure 4/5 Windows boot workload (not in Table 1's
// µop-coverage list but in the performance figures).
func WindowsXP() Spec {
	return Spec{
		Name: "WindowsXP",
		Kernel: KernelConfig{
			BIOSBranchBlocks: 400, ChecksumRounds: 4, DeviceProbes: 10,
			TimerInterval: 10000, Banner: "toyOS XP booting (wider instruction mix)\n",
			PayloadPad: 28 << 10, PayloadRunFraction: 25,
		},
		UserAsm:          InitProgram,
		PaperUopsPerInst: 1.3, PaperFraction: 0.98,
		PaperGshareAcc: 0.85, PaperGshareMIPS: 0.9,
	}
}

// SMPName and SMPSleepName are the multicore workloads' names. They are
// not part of All(): Table 1 and the single-core figures predate them.
// smp-sleep is smp-lock with a sleep per work iteration, so every core
// periodically idles in syssleep. It exists for the warm-start path: the
// all-cores-quiescent boundaries a multicore snapshot capture needs never
// occur under the pause-spinning smp-lock workload.
const (
	SMPName      = "smp-lock"
	SMPSleepName = "smp-sleep"
)

// SMP builds a multicore workload for a core count: a fast boot into N
// user contexts contending on an ll/sc spinlock (see SMPProgram), smp-sleep
// with sleep and smp-lock without. The core count is baked into the user
// program (the completion barrier and the final reduction check need it),
// so callers must rebuild the spec when it changes rather than patch the
// kernel config.
func SMP(cores int, sleep bool) Spec {
	k := FastBoot()
	k.Cores = cores
	k.SMPUser = true
	name, iters := SMPName, 2000
	if sleep {
		name, iters = SMPSleepName, 200
	}
	return Spec{
		Name:    name,
		Kernel:  k,
		UserAsm: func() string { return SMPProgram(iters, cores, sleep) },
	}
}

// ByName finds a spec by name at a single core — every registered
// workload, including WindowsXP, the smp pair and the FS servers.
func ByName(name string) (Spec, bool) {
	return Lookup(name, 1)
}
