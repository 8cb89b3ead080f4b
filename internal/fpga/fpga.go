// Package fpga models the FPGA host platform: device resource budgets
// (Virtex-4 LX200 and friends), per-structure area estimation for Table 2,
// and the 100 MHz host clock / host-cycles-per-target-cycle cost model that
// determines timing-model throughput (§3.3, §4.5, §4.7).
//
// The key architectural insight the model encodes is §3.3's multi-host-cycle
// trick: a structure that would need many ports (a 20-ported register file,
// a highly associative lookup) is implemented by cycling a dual-ported
// block RAM several host cycles per target cycle. Area therefore depends on
// structure *capacity*, not on issue width — which is why Table 2 is flat
// from 1-issue to 8-issue — while host cycles per target cycle grow with
// width.
package fpga

import "fmt"

// Area is an FPGA resource footprint.
type Area struct {
	Slices int
	BRAMs  int
}

// Add returns the element-wise sum.
func (a Area) Add(b Area) Area {
	return Area{Slices: a.Slices + b.Slices, BRAMs: a.BRAMs + b.BRAMs}
}

func (a Area) String() string {
	return fmt.Sprintf("%d slices, %d BRAMs", a.Slices, a.BRAMs)
}

// Device is an FPGA part.
type Device struct {
	Name   string
	Slices int
	BRAMs  int
	// MaxMHz is a reasonable achievable clock for unoptimized designs
	// (§3.3: "Modern FPGAs run in the 100MHz-200MHz+ range").
	MaxMHz int
}

// Virtex4LX200 is the DRC platform's FPGA: "a Virtex4 LX200 that has 89,088
// slices and 336 Block RAMs" (§4.7).
var Virtex4LX200 = Device{Name: "Virtex-4 LX200", Slices: 89088, BRAMs: 336, MaxMHz: 200}

// Virtex2P30 is the XUP board's part (§4.2), roughly half an LX200's fabric.
var Virtex2P30 = Device{Name: "Virtex-II Pro 30", Slices: 13696, BRAMs: 136, MaxMHz: 150}

// LogicFraction is Table 2's "User Logic" row: the fraction of the device's
// slices a footprint occupies.
func (d Device) LogicFraction(a Area) float64 {
	return float64(a.Slices) / float64(d.Slices)
}

// BRAMFraction is Table 2's "Block RAMs" row.
func (d Device) BRAMFraction(a Area) float64 {
	return float64(a.BRAMs) / float64(d.BRAMs)
}

// Fits reports whether the footprint fits the device.
func (d Device) Fits(a Area) bool {
	return a.Slices <= d.Slices && a.BRAMs <= d.BRAMs
}

// bramBits is the capacity of one Virtex-4 block RAM (18 Kib).
const bramBits = 18 * 1024

// BlockRAM estimates the footprint of a memory structure of the given
// capacity. Block RAMs are dual-ported; logicalPorts beyond two are folded
// over multiple host cycles (§3.3), so they do not add BRAMs — only the
// small time-multiplexing sequencer in slices.
func BlockRAM(bits int, logicalPorts int) Area {
	brams := (bits + bramBits - 1) / bramBits
	if brams < 1 {
		brams = 1
	}
	seq := 0
	if logicalPorts > 2 {
		seq = 10 + 2*logicalPorts // address mux + sequencing counter
	}
	return Area{Slices: 20 + seq, BRAMs: brams}
}

// HostCyclesForPorts returns the host cycles needed to emulate
// logicalPorts on a dual-ported RAM: ceil(ports/2), minimum 1. The
// 20-ported register file of §3.3 costs 10 host cycles.
func HostCyclesForPorts(logicalPorts int) int {
	if logicalPorts <= 2 {
		return 1
	}
	return (logicalPorts + 1) / 2
}

// Registers estimates a bank of fabric registers (two per slice plus a
// little control).
func Registers(bits int) Area { return Area{Slices: (bits + 1) / 2} }

// CAM estimates a content-addressable structure (reservation-station wakeup,
// LSQ search, TLB): match logic is one LUT per couple of tag bits per
// entry, folded lookups notwithstanding — CAMs are the expensive part of an
// OOO timing model.
func CAM(entries, tagBits int) Area {
	return Area{Slices: entries * (tagBits/2 + 4)}
}

// Arbiter estimates an n-input LRU or round-robin arbiter (§4's base
// modules).
func Arbiter(n int) Area { return Area{Slices: 8 + 4*n} }

// FIFO estimates a Connector's footprint: depth×width bits of storage (in
// BRAM when deep, slices when shallow) plus handshake logic. The paper
// notes "the ubiquitous Connectors are under-optimized regarding area,
// especially in the block RAMs" (§4.7) — small FIFOs burning whole BRAMs is
// exactly that effect, reproduced here by the one-BRAM minimum.
func FIFO(depth, widthBits int) Area {
	if depth*widthBits <= 64 {
		return Area{Slices: 20 + depth*widthBits/2}
	}
	return Area{Slices: 30, BRAMs: (depth*widthBits + bramBits - 1) / bramBits}
}

// CycleNanos is one cycle of the prototype's 100 MHz FPGA host clock
// (§4.4), in nanoseconds. It is the only clock the model runs at, so it is a
// constant rather than a division per target cycle.
const CycleNanos = 10.0

// Nanos converts host cycles to nanoseconds.
func Nanos(hostCycles uint64) float64 { return float64(hostCycles) * CycleNanos }
