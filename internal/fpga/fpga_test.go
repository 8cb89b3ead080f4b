package fpga

import "testing"

func TestAreaAdd(t *testing.T) {
	a := Area{Slices: 10, BRAMs: 1}.Add(Area{Slices: 5, BRAMs: 2})
	if a.Slices != 15 || a.BRAMs != 3 {
		t.Errorf("Add = %+v", a)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

func TestDeviceFractions(t *testing.T) {
	a := Area{Slices: Virtex4LX200.Slices / 2, BRAMs: Virtex4LX200.BRAMs / 4}
	if f := Virtex4LX200.LogicFraction(a); f < 0.49 || f > 0.51 {
		t.Errorf("logic fraction %v", f)
	}
	if f := Virtex4LX200.BRAMFraction(a); f < 0.24 || f > 0.26 {
		t.Errorf("bram fraction %v", f)
	}
	if !Virtex4LX200.Fits(a) {
		t.Error("half-full device does not fit")
	}
	if Virtex4LX200.Fits(Area{Slices: Virtex4LX200.Slices + 1}) {
		t.Error("oversized area fits")
	}
}

func TestBlockRAMSizing(t *testing.T) {
	if a := BlockRAM(1, 2); a.BRAMs != 1 {
		t.Errorf("1 bit = %d BRAMs", a.BRAMs)
	}
	if a := BlockRAM(18*1024, 2); a.BRAMs != 1 {
		t.Errorf("18Kib = %d BRAMs", a.BRAMs)
	}
	if a := BlockRAM(18*1024+1, 2); a.BRAMs != 2 {
		t.Errorf("18Kib+1 = %d BRAMs", a.BRAMs)
	}
	// §3.3: extra logical ports fold over host cycles — same BRAM count,
	// a bit more sequencing logic.
	two := BlockRAM(1<<16, 2)
	twenty := BlockRAM(1<<16, 20)
	if twenty.BRAMs != two.BRAMs {
		t.Errorf("port folding changed BRAMs: %d vs %d", twenty.BRAMs, two.BRAMs)
	}
	if twenty.Slices <= two.Slices {
		t.Error("port folding added no sequencing logic")
	}
}

func TestHostCyclesForPorts(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 20: 10}
	for ports, want := range cases {
		if got := HostCyclesForPorts(ports); got != want {
			t.Errorf("HostCyclesForPorts(%d) = %d, want %d", ports, got, want)
		}
	}
}

func TestClock(t *testing.T) {
	if CycleNanos != 10 {
		t.Errorf("100 MHz cycle = %v ns", CycleNanos)
	}
	if Nanos(469) != 4690 {
		t.Errorf("469 cycles = %v ns", Nanos(469))
	}
}

func TestStructureEstimatorsMonotone(t *testing.T) {
	if CAM(32, 20).Slices <= CAM(16, 20).Slices {
		t.Error("CAM not monotone in entries")
	}
	if Arbiter(16).Slices <= Arbiter(4).Slices {
		t.Error("arbiter not monotone")
	}
	if Registers(64).Slices != 32 {
		t.Errorf("Registers(64) = %+v", Registers(64))
	}
	small := FIFO(2, 16)
	if small.BRAMs != 0 {
		t.Error("tiny FIFO should live in fabric")
	}
	big := FIFO(64, 128)
	if big.BRAMs < 1 {
		t.Error("deep FIFO should use BRAM")
	}
}
