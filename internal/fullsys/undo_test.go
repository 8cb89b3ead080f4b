package fullsys

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/snap"
)

// undoPorts is every port the PIC and the four devices decode.
var undoPorts = []uint16{
	PortPICPending, PortPICMask, PortPICAck,
	PortConOut, PortConStatus, PortConIn,
	PortTimerInterval, PortTimerCount, PortTimerAck,
	PortDiskSector, PortDiskCmd, PortDiskData, PortDiskStatus, PortDiskAck,
	PortNICStatus, PortNICRecv, PortNICSend, PortNICAck,
}

// busView is everything observable about a bus, copied out.
type busView struct {
	blob    []byte
	out     []byte
	sent    []uint32
	sectors [8][]uint32
}

func viewBus(b *Bus, con *Console, nic *NIC, disk *Disk) busView {
	v := busView{
		blob: snap.Marshal(b),
		out:  slices.Clone(con.Output()),
		sent: slices.Clone(nic.Sent()),
	}
	for s := range v.sectors {
		v.sectors[s] = disk.Sector(uint32(s))
	}
	return v
}

func (v busView) equal(w busView) bool {
	if !bytes.Equal(v.blob, w.blob) || !bytes.Equal(v.out, w.out) || !slices.Equal(v.sent, w.sent) {
		return false
	}
	for s := range v.sectors {
		if !slices.Equal(v.sectors[s], w.sectors[s]) {
			return false
		}
	}
	return true
}

// FuzzBusRollback is the oracle for BusUndo. It drives a fuzzed sequence of
// port reads, port writes and ticks over all four devices and the PIC,
// taking captures onto a stack and restoring them newest first. Each capture
// is restored twice, with more operations run in between, as the checkpoint
// engine may. After every restore the bus must be exactly what it was at the
// capture: its snapshot bytes, the console output, the words the NIC sent
// and every disk sector. After every operation the bus's kept NextDue and
// Pending must equal a fresh scan.
//
// Each operation is two bytes: the low three bits of the first select in,
// out, tick, capture or restore, its high five bits are the ticks advanced
// or (their low two) the value written, and the second selects the port.
func FuzzBusRollback(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 1200)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	// A disk write streamed across a capture, restored and re-streamed.
	f.Add([]byte{
		2 | 3<<3, 9, // sector 3
		2 | 2<<3, 10, // write
		2 | 1<<3, 11, 2 | 2<<3, 11,
		5, 0, // capture
		2 | 3<<3, 11, 2 | 3<<3, 11, 4 | 31<<3, 0,
		6, 0, // restore
		2 | 1<<3, 11, 2 | 1<<3, 11, 4 | 31<<3, 0,
		6, 0, // restore again
	})
	// A read of a full-length sector, whose buffer is the sector itself, then
	// a write streamed over it.
	f.Add([]byte{
		2 | 1<<3, 9, 2 | 1<<3, 10, // sector 1, read
		5, 0,
		2 | 2<<3, 10, 2 | 3<<3, 11, 2 | 3<<3, 11, 4 | 31<<3, 0,
		6, 0, 6, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		con := NewConsole(ScriptedInput{At: 5, Data: []byte("ab")}, ScriptedInput{At: 60, Data: []byte("cdefg")})
		disk := NewDisk(4, 6)
		disk.Preload(1, []uint32{1, 2, 3, 4})
		disk.Preload(2, []uint32{5})
		nic := NewNIC(ScriptedInput{At: 12, Data: []byte{1, 0, 0, 0, 2, 0, 0, 0}},
			ScriptedInput{At: 90, Data: []byte{3, 0, 0, 0}})
		b := NewBus(con, NewTimer(), disk, nic)

		type capture struct {
			u        BusUndo
			now      uint64
			view     busView
			restored bool
		}
		var stack []*capture
		now := uint64(0)
		restore := func(c *capture) {
			b.RestoreUndo(&c.u)
			now = c.now // the device clock rolls back with the target's
			if got := viewBus(b, con, nic, disk); !got.equal(c.view) {
				t.Fatalf("capture at depth %d (restored before: %v): bus differs after restore\n got %+v\nwant %+v",
					len(stack), c.restored, got, c.view)
			}
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			port, v := undoPorts[int(ops[1])%len(undoPorts)], uint32(ops[0]>>3)
			switch ops[0] & 7 {
			case 0, 1:
				b.In(port, now)
			case 2, 3:
				b.Out(port, v&3, now)
			case 4:
				now += uint64(v)
				b.Tick(now)
			case 5:
				c := &capture{now: now, view: viewBus(b, con, nic, disk)}
				b.SaveUndo(&c.u)
				stack = append(stack, c)
			case 6, 7:
				if len(stack) == 0 {
					continue
				}
				c := stack[len(stack)-1]
				restore(c)
				if c.restored {
					stack = stack[:len(stack)-1]
				}
				c.restored = true
			}
			checkScan(t, b, "operation %#x on port %#x", ops[0], port)
		}
		for len(stack) > 0 {
			restore(stack[len(stack)-1])
			checkScan(t, b, "a final restore")
			stack = stack[:len(stack)-1]
		}
	})
}

// TestDiskWriteAllocs: a whole streamed sector write allocates its buffer,
// which becomes the installed sector, and, since the disk was captured
// after its last write, the clone of the sector map — never an array per
// streamed word.
func TestDiskWriteAllocs(t *testing.T) {
	d := NewDisk(128, 10)
	for s := uint32(0); s < 4; s++ {
		d.Preload(s, make([]uint32, d.SectorWords))
	}
	var u BusUndo
	now := uint64(0)
	write := func() {
		d.saveUndo(&u)
		d.Tick(now)
		d.Out(PortDiskSector, 2)
		d.Out(PortDiskCmd, 2)
		for i := 0; i < d.SectorWords; i++ {
			d.Out(PortDiskData, uint32(i))
		}
		now += d.Latency
		d.Tick(now)
		d.Out(PortDiskAck, 1)
	}
	if allocs := testing.AllocsPerRun(50, write); allocs > 3 {
		t.Errorf("a streamed %d-word sector write allocates %v objects, want <= 3", d.SectorWords, allocs)
	}
	if got := d.Sector(2); got[d.SectorWords-1] != uint32(d.SectorWords-1) {
		t.Errorf("sector 2 ends in %d after the write, want %d", got[d.SectorWords-1], d.SectorWords-1)
	}
}
