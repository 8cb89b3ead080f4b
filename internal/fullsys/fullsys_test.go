package fullsys

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/snap"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory(1 << 16)
	m.Write(0x100, 0x11223344, 4)
	if v := m.Read(0x100, 4); v != 0x11223344 {
		t.Errorf("read32 = %#x", v)
	}
	if v := m.Read(0x100, 1); v != 0x44 {
		t.Errorf("little-endian byte = %#x", v)
	}
	if v := m.Read(0x102, 2); v != 0x1122 {
		t.Errorf("read16 = %#x", v)
	}
	m.Write(0x200, 0x0102030405060708, 8)
	if v := m.Read(0x200, 8); v != 0x0102030405060708 {
		t.Errorf("read64 = %#x", v)
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	m := NewMemory(1 << 16)
	f := func(addr uint16, v uint32) bool {
		a := uint32(addr)
		m.Write(a, uint64(v), 4)
		return m.Read(a, 4) == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryInRange(t *testing.T) {
	m := NewMemory(1 << 12)
	if !m.InRange(0, 4096) {
		t.Error("full range rejected")
	}
	if m.InRange(4093, 4) {
		t.Error("overrun accepted")
	}
	if m.InRange(0xFFFFFFFC, 8) {
		t.Error("wraparound accepted")
	}
}

func TestMemoryLoad(t *testing.T) {
	m := NewMemory(1 << 12)
	m.Load(0x10, []byte{1, 2, 3})
	if m.Read(0x10, 1) != 1 || m.Read(0x12, 1) != 3 {
		t.Error("load failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range load did not panic")
		}
	}()
	m.Load(0xFFF, []byte{1, 2})
}

func TestTLBInsertLookupReplace(t *testing.T) {
	var tlb TLB
	tlb.Insert(TLBEntry{VPN: 5, PFN: 9, Valid: true, User: true})
	e, ok := tlb.Lookup(5)
	if !ok || e.PFN != 9 {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	if _, ok := tlb.Lookup(6); ok {
		t.Error("phantom hit")
	}
	// Same-VPN insert replaces in place.
	tlb.Insert(TLBEntry{VPN: 5, PFN: 12, Valid: true, Write: true})
	e, _ = tlb.Lookup(5)
	if e.PFN != 12 || !e.Write {
		t.Errorf("replacement = %+v", e)
	}
}

func TestTLBFIFOEviction(t *testing.T) {
	var tlb TLB
	for i := 0; i < NumTLBEntries+1; i++ {
		tlb.Insert(TLBEntry{VPN: uint32(i), PFN: uint32(i), Valid: true})
	}
	if _, ok := tlb.Lookup(0); ok {
		t.Error("oldest entry survived a full wrap")
	}
	if _, ok := tlb.Lookup(uint32(NumTLBEntries)); !ok {
		t.Error("newest entry missing")
	}
}

func TestTLBSnapshotRestore(t *testing.T) {
	var tlb TLB
	tlb.Insert(TLBEntry{VPN: 1, PFN: 2, Valid: true})
	snap := tlb.Snapshot()
	tlb.Insert(TLBEntry{VPN: 3, PFN: 4, Valid: true})
	tlb.Reset()
	tlb.Restore(snap)
	if _, ok := tlb.Lookup(1); !ok {
		t.Error("restored entry missing")
	}
	if _, ok := tlb.Lookup(3); ok {
		t.Error("post-snapshot entry survived restore")
	}
}

func TestConsole(t *testing.T) {
	c := NewConsole(ScriptedInput{At: 10, Data: []byte("ab")})
	c.Tick(5)
	if c.IRQ() >= 0 {
		t.Error("premature console IRQ")
	}
	if s := c.In(PortConStatus); s&2 != 0 {
		t.Error("rx ready before arrival")
	}
	c.Tick(10)
	if c.IRQ() != IRQCon {
		t.Error("no IRQ after arrival")
	}
	if ch := c.In(PortConIn); ch != 'a' {
		t.Errorf("read %c", ch)
	}
	if ch := c.In(PortConIn); ch != 'b' {
		t.Errorf("read %c", ch)
	}
	if c.IRQ() >= 0 {
		t.Error("IRQ after draining")
	}
	c.Out(PortConOut, 'x')
	if string(c.Output()) != "x" {
		t.Errorf("output %q", c.Output())
	}
}

func TestTimerPeriodic(t *testing.T) {
	tm := NewTimer()
	tm.Tick(100)
	tm.Out(PortTimerInterval, 50)
	tm.Tick(149)
	if tm.IRQ() >= 0 {
		t.Error("fired early")
	}
	tm.Tick(150)
	if tm.IRQ() != IRQTimer {
		t.Error("did not fire")
	}
	tm.Out(PortTimerAck, 1)
	if tm.IRQ() >= 0 {
		t.Error("ack ignored")
	}
	tm.Tick(200)
	if tm.IRQ() != IRQTimer {
		t.Error("did not refire")
	}
	// Catch-up across a long idle gap fires once (pending is level).
	tm.Out(PortTimerAck, 1)
	tm.Tick(1000)
	if tm.IRQ() != IRQTimer {
		t.Error("no fire after gap")
	}
	if got := tm.In(PortTimerInterval); got != 50 {
		t.Errorf("interval readback = %d", got)
	}
}

func TestDiskReadWrite(t *testing.T) {
	d := NewDisk(4, 100)
	d.Preload(7, []uint32{10, 20, 30, 40})
	d.Tick(0)
	d.Out(PortDiskSector, 7)
	d.Out(PortDiskCmd, 1) // read
	if d.In(PortDiskStatus)&1 == 0 {
		t.Error("not busy after command")
	}
	d.Tick(99)
	if d.IRQ() >= 0 {
		t.Error("completed early")
	}
	d.Tick(100)
	if d.IRQ() != IRQDisk {
		t.Error("no completion IRQ")
	}
	for i, want := range []uint32{10, 20, 30, 40} {
		if v := d.In(PortDiskData); v != want {
			t.Errorf("word %d = %d, want %d", i, v, want)
		}
	}
	d.Out(PortDiskAck, 1)
	if d.IRQ() >= 0 {
		t.Error("ack ignored")
	}

	// Write path.
	d.Out(PortDiskSector, 9)
	d.Out(PortDiskCmd, 2)
	for _, w := range []uint32{5, 6, 7, 8} {
		d.Out(PortDiskData, w)
	}
	d.Tick(250)
	sec := d.Sector(9)
	if len(sec) != 4 || sec[0] != 5 || sec[3] != 8 {
		t.Errorf("written sector = %v", sec)
	}
}

func TestNIC(t *testing.T) {
	n := NewNIC(ScriptedInput{At: 20, Data: []byte{1, 0, 0, 0, 2, 0, 0, 0}})
	n.Tick(19)
	if n.IRQ() >= 0 {
		t.Error("early packet")
	}
	n.Tick(20)
	if n.IRQ() != IRQNIC {
		t.Error("no rx IRQ")
	}
	if v := n.In(PortNICRecv); v != 1 {
		t.Errorf("rx word = %d", v)
	}
	n.Out(PortNICSend, 99)
	if len(n.Sent()) != 1 || n.Sent()[0] != 99 {
		t.Errorf("tx = %v", n.Sent())
	}
}

func TestBusRoutingAndPIC(t *testing.T) {
	con := NewConsole()
	tm := NewTimer()
	b := NewBus(con, tm)
	b.Out(PortConOut, 'z', 0)
	if string(con.Output()) != "z" {
		t.Error("bus did not route console write")
	}
	b.Out(PortTimerInterval, 10, 0)
	b.Tick(10)
	if b.Pending() != IRQTimer {
		t.Errorf("pending = %d, want timer", b.Pending())
	}
	if bits := b.In(PortPICPending, 10); bits&(1<<IRQTimer) == 0 {
		t.Error("PIC pending bitmask missing timer")
	}
	// Mask the timer line.
	b.Out(PortPICMask, ^uint32(1<<IRQTimer), 10)
	if b.Pending() != -1 {
		t.Error("masked line still pending")
	}
	if v := b.In(0x999, 10); v != 0xFFFFFFFF {
		t.Errorf("open bus read = %#x", v)
	}
}

func TestBusSnapshotRestore(t *testing.T) {
	con := NewConsole(ScriptedInput{At: 5, Data: []byte("k")})
	tm := NewTimer()
	b := NewBus(con, tm)
	b.Out(PortTimerInterval, 3, 0)
	blob := snap.Marshal(b)
	b.Tick(10) // timer fires, console input arrives
	b.Out(PortConOut, 'q', 10)
	if b.Pending() < 0 {
		t.Fatal("nothing pending before restore")
	}
	if err := snap.Unmarshal(blob, b); err != nil {
		t.Fatal(err)
	}
	if b.Pending() != -1 {
		t.Error("pending IRQ survived restore")
	}
	if len(con.Output()) != 0 {
		t.Error("console output survived restore")
	}
	// Deterministic redo: ticking again re-fires identically.
	b.Tick(10)
	if b.Pending() < 0 {
		t.Error("redo after restore did not re-fire")
	}
}

func TestBusDuplicatePortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate port registration did not panic")
		}
	}()
	NewBus(NewConsole(), NewConsole())
}

// TestDueMatchesTick: for every device, NextDue() <= now holds exactly when
// Tick(now) changes the device's State bytes — the equivalence that lets
// the functional model journal the bus only when an event is due and run a
// superblock without ticking it. Each device sits on a bus and is driven
// through it, so the row also holds the bus's kept NextDue and Pending to a
// fresh scan after every tick and every port access. Each row's service
// step (acknowledge, drain, re-issue) runs after the comparison, so events
// keep coming.
func TestDueMatchesTick(t *testing.T) {
	arrivals := []ScriptedInput{{At: 3, Data: []byte{1, 0, 0, 0}}, {At: 3, Data: []byte{2, 0, 0, 0}},
		{At: 11, Data: []byte{3, 0, 0, 0}}, {At: 25, Data: []byte{4, 0, 0, 0}}}
	rows := []struct {
		name    string
		dev     func() Device
		service func(b *Bus, now uint64)
	}{
		{"console", func() Device { return NewConsole(arrivals...) }, func(b *Bus, now uint64) {
			for b.In(PortConStatus, now)&2 != 0 {
				b.In(PortConIn, now)
			}
		}},
		{"timer", func() Device {
			tm := NewTimer()
			tm.Out(PortTimerInterval, 7)
			return tm
		}, func(b *Bus, now uint64) {
			if b.Pending() >= 0 {
				b.Out(PortTimerAck, 1, now)
			}
		}},
		{"disk", func() Device {
			d := NewDisk(4, 6)
			d.Out(PortDiskCmd, 1)
			return d
		}, func(b *Bus, now uint64) {
			if b.Pending() >= 0 {
				b.Out(PortDiskAck, 1, now)
				b.Out(PortDiskCmd, 1, now)
			}
		}},
		{"nic", func() Device { return NewNIC(arrivals...) }, func(b *Bus, now uint64) {
			for b.In(PortNICStatus, now)&1 != 0 {
				b.In(PortNICRecv, now)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			d := row.dev()
			b := NewBus(d)
			events := 0
			for now := uint64(1); now < 40; now++ {
				next := d.NextDue()
				before := string(snap.Marshal(d))
				d.Tick(now)
				changed := before != string(snap.Marshal(d))
				if due := next <= now; due != changed {
					t.Fatalf("now=%d: NextDue()=%d <= now is %v, Tick changed state: %v",
						now, next, due, changed)
				}
				if changed {
					events++
				}
				// A device that changed was due, so the bus's kept due is
				// reached and its Tick rescans; one that did not leaves the
				// kept fields valid.
				b.Tick(now)
				checkScan(t, b, "tick to %d", now)
				row.service(b, now)
				checkScan(t, b, "service at %d", now)
			}
			if events < 3 {
				t.Fatalf("only %d events in 40 ticks: the row checks too little", events)
			}
		})
	}
}

// scanBus answers the bus's two kept questions afresh, the way it once did
// on every call: the earliest device NextDue, and the lowest line a device
// raises that the PIC mask enables (-1 for none).
func scanBus(b *Bus) (due uint64, pending int) {
	due, pending = NoNextEvent, -1
	for _, d := range b.Devices {
		due = min(due, d.NextDue())
		if line := d.IRQ(); line >= 0 && b.mask&(1<<uint(line)) != 0 && (pending < 0 || line < pending) {
			pending = line
		}
	}
	return due, pending
}

// checkScan fails unless the bus's NextDue and Pending equal a fresh scan;
// the format and args name the operation just run.
func checkScan(t *testing.T, b *Bus, format string, args ...any) {
	t.Helper()
	if due, pending := scanBus(b); b.NextDue() != due || b.Pending() != pending {
		t.Fatalf("after %s: bus NextDue %d, Pending %d; a fresh scan reads %d, %d",
			fmt.Sprintf(format, args...), b.NextDue(), b.Pending(), due, pending)
	}
}

// TestBusNextDue: the bus reports the earliest scheduled device event, or
// NoNextEvent when nothing is scheduled.
func TestBusNextDue(t *testing.T) {
	timer := NewTimer()
	nic := NewNIC(ScriptedInput{At: 900, Data: []byte{1, 0, 0, 0}})
	bus := NewBus(NewConsole(), timer, NewDisk(4, 50))
	if got := bus.NextDue(); got != NoNextEvent {
		t.Fatalf("idle bus: NextDue = %d, want NoNextEvent", got)
	}
	bus.Out(PortTimerInterval, 300, 10)
	if got := bus.NextDue(); got != 310 {
		t.Fatalf("programmed timer: NextDue = %d, want 310", got)
	}
	bus = NewBus(timer, nic)
	if got := bus.NextDue(); got != 310 {
		t.Fatalf("timer before NIC arrival: NextDue = %d, want 310", got)
	}
	bus.Tick(700) // the timer fires twice and re-arms at 910, past the arrival
	if got := bus.NextDue(); got != 900 {
		t.Fatalf("NIC arrival first: NextDue = %d, want 900", got)
	}
}
