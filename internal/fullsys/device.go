package fullsys

import (
	"fmt"
	"math/bits"

	"repro/internal/snap"
)

// Device is a peripheral reachable through port I/O. Devices are
// deterministic: their "time" is the target's retired-instruction/cycle
// count supplied via Tick, so a simulation replays identically — which the
// functional model's rollback machinery depends on.
type Device interface {
	Name() string
	// Ports returns the port numbers the device decodes.
	Ports() []uint16
	// In reads a port; Out writes one. Both may have side effects (FIFO
	// pops, command triggers).
	In(port uint16) uint32
	Out(port uint16, v uint32)
	// Tick advances device time to absolute time now (monotonic).
	Tick(now uint64)
	// NextDue returns the earliest absolute device time at or after which a
	// Tick would change device state, or NoNextEvent when nothing is
	// scheduled: a Tick(now) changes state exactly when NextDue() <= now.
	// The functional model uses it to snapshot device state for rollback
	// only when something is actually about to happen, and to prove a
	// superblock free of device events.
	NextDue() uint64
	// IRQ reports a pending interrupt as a vector index (isa.VecIRQBase
	// relative is the caller's concern) or -1. Level-triggered: it stays
	// pending until the device is acknowledged through its ports.
	IRQ() int
	// State walks the device's versioned, deterministic binary state: the
	// one field list that both encodes it and decodes it, failing the codec
	// on truncated or corrupt input. This is the serialization contract
	// warm-start snapshots persist through the content-addressed store; see
	// state.go.
	State(c *snap.Codec)
	// saveUndo copies the device's state into its own part of a BusUndo and
	// restoreUndo reinstates it: the in-memory capture the functional
	// model's undo journal takes on every device-touching instruction. It
	// holds scalars and the slice and map headers the device shares with its
	// captures, never a copy of a FIFO or the disk image, because it sits on
	// the FM hot path; the binary State form is reserved for persistence.
	saveUndo(u *BusUndo)
	restoreUndo(u *BusUndo)
}

// Port map. The PIC occupies 0x00-0x0F, devices follow.
const (
	PortPICPending uint16 = 0x00 // IN: pending&enabled IRQ bitmask
	PortPICMask    uint16 = 0x01 // IN/OUT: enable mask
	PortPICAck     uint16 = 0x02 // OUT: acknowledge IRQ line (bit index)

	PortConOut    uint16 = 0x10 // OUT: write a character
	PortConStatus uint16 = 0x11 // IN: bit0 tx ready, bit1 rx nonempty
	PortConIn     uint16 = 0x12 // IN: pop input FIFO

	PortTimerInterval uint16 = 0x20 // OUT: period (0 = off); IN: period
	PortTimerCount    uint16 = 0x21 // IN: ticks until next fire
	PortTimerAck      uint16 = 0x22 // OUT: clear pending interrupt

	PortDiskSector uint16 = 0x30 // OUT: target sector
	PortDiskCmd    uint16 = 0x31 // OUT: 1=read, 2=write
	PortDiskData   uint16 = 0x32 // IN/OUT: stream 32-bit words
	PortDiskStatus uint16 = 0x33 // IN: bit0 busy, bit1 done-pending
	PortDiskAck    uint16 = 0x34 // OUT: clear done interrupt

	PortNICStatus uint16 = 0x40 // IN: bit0 rx nonempty, bit1 tx ready
	PortNICRecv   uint16 = 0x41 // IN: pop rx FIFO word
	PortNICSend   uint16 = 0x42 // OUT: push tx word
	PortNICAck    uint16 = 0x43 // OUT: clear rx interrupt
)

// IRQ line numbers (bit indices in the PIC, vector = isa.VecIRQBase + line).
const (
	IRQTimer = 0
	IRQDisk  = 1
	IRQCon   = 2
	IRQNIC   = 3
)

// Bus routes port I/O to the devices and is the interrupt controller
// itself: it aggregates the devices' IRQ lines behind an enable mask (ports
// PortPICPending..PortPICAck) and presents the lowest pending line. It keeps
// the two questions the functional model asks before every instruction or
// superblock — the pending line and the next device event — as fields,
// recomputed by the only things that can change a device's answer or the
// mask: a port access, a Tick that reaches the next event, a rollback
// capture restored, and a state load. Devices are reached only through the
// bus once attached; each device's IRQ() value is its line number.
type Bus struct {
	Devices []Device
	routes  map[uint16]Device
	mask    uint32 // enabled lines
	lines   uint32 // raised lines, enabled or not
	pending int    // lowest raised & enabled line, or -1
	due     uint64 // earliest device NextDue, or NoNextEvent
}

// NewBus wires devices into a port-decoding bus with every line enabled.
func NewBus(devs ...Device) *Bus {
	b := &Bus{Devices: devs, routes: make(map[uint16]Device), mask: 0xFFFFFFFF}
	for _, d := range devs {
		for _, p := range d.Ports() {
			if prev, dup := b.routes[p]; dup {
				panic(fmt.Sprintf("fullsys: port %#x claimed by %s and %s", p, prev.Name(), d.Name()))
			}
			b.routes[p] = d
		}
	}
	b.rescan()
	return b
}

// rescan recomputes lines, pending and due from the devices and the mask.
func (b *Bus) rescan() {
	b.lines, b.due = 0, NoNextEvent
	for _, d := range b.Devices {
		b.due = min(b.due, d.NextDue())
		if line := d.IRQ(); line >= 0 {
			b.lines |= 1 << uint(line)
		}
	}
	b.pending = -1
	if on := b.lines & b.mask; on != 0 {
		b.pending = bits.TrailingZeros32(on)
	}
}

// tickDevices advances every device to time now.
func (b *Bus) tickDevices(now uint64) {
	for _, d := range b.Devices {
		d.Tick(now)
	}
}

// In performs a port read at device-time now. Every device is ticked first,
// whether or not an event is due: a read can depend on a device's clock (the
// timer's count port).
func (b *Bus) In(port uint16, now uint64) uint32 {
	b.tickDevices(now)
	v := uint32(0xFFFFFFFF) // open bus
	switch port {
	case PortPICPending:
		b.rescan() // the tick may have raised a line
		return b.lines & b.mask
	case PortPICMask:
		v = b.mask
	case PortPICAck:
		v = 0
	default:
		if d, ok := b.routes[port]; ok {
			v = d.In(port)
		}
	}
	b.rescan()
	return v
}

// Out performs a port write at device-time now, ticking every device first
// as In does (a command's completion time counts from the device's clock).
// PortPICAck is a no-op at the controller: lines are level-triggered and
// acknowledged at the device.
func (b *Bus) Out(port uint16, v uint32, now uint64) {
	b.tickDevices(now)
	switch port {
	case PortPICMask:
		b.mask = v
	case PortPICPending, PortPICAck:
	default:
		if d, ok := b.routes[port]; ok {
			d.Out(port, v)
		}
	}
	b.rescan()
}

// Tick advances all devices to time now. Before the next event it changes
// no device state (Device.NextDue's contract) and returns at once: only a
// device's clock would move, and the port accesses that read it tick
// first.
func (b *Bus) Tick(now uint64) {
	if now < b.due {
		return
	}
	b.tickDevices(now)
	b.rescan()
}

// Pending returns the pending interrupt line, or -1.
func (b *Bus) Pending() int { return b.pending }

// BusUndo is the whole bus — controller mask and every device — at one
// moment, as the undo journal keeps it: one fixed-size value with a part per
// device kind (a bus holds at most one device of each kind, since two would
// claim the same ports). Devices share their storage with it copy-on-write or
// only ever append past the end of what it references, so taking and
// restoring one costs O(1), never O(FIFO) or O(disk image), and allocates
// nothing. Captures are restored newest first, the journal's order, and one
// may be restored more than once. Persistence goes through State instead.
type BusUndo struct {
	mask    uint32
	console consoleUndo
	timer   timerRegs
	disk    diskRegs
	nic     nicUndo
}

// SaveUndo captures the bus into u.
func (b *Bus) SaveUndo(u *BusUndo) {
	u.mask = b.mask
	for _, d := range b.Devices {
		d.saveUndo(u)
	}
}

// RestoreUndo reinstates the bus to the state SaveUndo captured in u.
func (b *Bus) RestoreUndo(u *BusUndo) {
	b.mask = u.mask
	for _, d := range b.Devices {
		d.restoreUndo(u)
	}
	b.rescan()
}

// NoNextEvent is NextDue's "no event scheduled" sentinel.
const NoNextEvent = ^uint64(0)

// NextDue returns the earliest absolute time at which any device's state
// would change, or NoNextEvent when nothing is scheduled anywhere. The
// functional model compares it with the time it holds: a device event is
// due now when NextDue() <= now, and a straight-line block of n
// instructions runs free of device events (so without per-instruction
// Bus.Tick calls) when NextDue() > now+n.
func (b *Bus) NextDue() uint64 { return b.due }
