package fullsys

// Concrete device models. Each is deterministic in target time and small
// enough that its whole state is capturable two ways: its part of a BusUndo
// (saveUndo/restoreUndo, a structure-sharing value for the functional
// model's per-instruction undo journal) and State (state.go; the versioned
// binary form warm-start snapshots persist).
//
// A capture shares every FIFO and buffer with the live device. That is safe
// because each one only ever re-slices from the front or appends: an append
// writes past the end of every capture still live, since captures are
// restored newest first, and the disk's sector map is cloned before its
// first write after a capture.

import "maps"

// Console is a character console: an always-ready output port and an input
// FIFO pre-scripted at construction (a deterministic stand-in for keyboard
// input). Input arrival times are in target time units.
type Console struct {
	out     []byte
	script  []ScriptedInput
	rx      []byte
	now     uint64
	irqOnRx bool
}

// ScriptedInput delivers Data to the console input FIFO at time At.
type ScriptedInput struct {
	At   uint64
	Data []byte
}

// NewConsole creates a console; script entries must be sorted by At.
func NewConsole(script ...ScriptedInput) *Console {
	return &Console{script: script}
}

// Output returns everything written to the console so far.
func (c *Console) Output() []byte { return c.out }

// Name implements Device.
func (c *Console) Name() string { return "console" }

// Ports implements Device.
func (c *Console) Ports() []uint16 { return []uint16{PortConOut, PortConStatus, PortConIn} }

// Tick implements Device.
func (c *Console) Tick(now uint64) {
	c.now = now
	for len(c.script) > 0 && c.script[0].At <= now {
		c.rx = append(c.rx, c.script[0].Data...)
		c.script = c.script[1:]
		c.irqOnRx = true
	}
}

// NextDue implements Device: the next scripted input arrival (the script is sorted by At).
func (c *Console) NextDue() uint64 {
	if len(c.script) == 0 {
		return NoNextEvent
	}
	return c.script[0].At
}

// In implements Device.
func (c *Console) In(port uint16) uint32 {
	switch port {
	case PortConStatus:
		s := uint32(1) // tx always ready
		if len(c.rx) > 0 {
			s |= 2
		}
		return s
	case PortConIn:
		if len(c.rx) == 0 {
			return 0
		}
		ch := c.rx[0]
		c.rx = c.rx[1:]
		if len(c.rx) == 0 {
			c.irqOnRx = false
		}
		return uint32(ch)
	}
	return 0
}

// Out implements Device.
func (c *Console) Out(port uint16, v uint32) {
	if port == PortConOut {
		c.out = append(c.out, byte(v))
	}
}

// IRQ implements Device.
func (c *Console) IRQ() int {
	if c.irqOnRx {
		return IRQCon
	}
	return -1
}

// consoleUndo is a Console's part of a BusUndo. Output is append-only, so
// the capture records only its length and restore truncates; the script and
// the rx FIFO are shared.
type consoleUndo struct {
	outLen  int
	script  []ScriptedInput
	rx      []byte
	irqOnRx bool
}

func (c *Console) saveUndo(u *BusUndo) {
	u.console = consoleUndo{len(c.out), c.script, c.rx, c.irqOnRx}
}

func (c *Console) restoreUndo(u *BusUndo) {
	s := &u.console
	c.out = c.out[:s.outLen]
	c.script, c.rx, c.irqOnRx = s.script, s.rx, s.irqOnRx
}

// Timer raises IRQTimer every interval target time units once programmed.
type Timer struct {
	timerRegs
	now uint64
}

// timerRegs is the timer's state, and its part of a BusUndo.
type timerRegs struct {
	interval uint64
	nextFire uint64
	pending  bool
}

// NewTimer creates an unprogrammed timer.
func NewTimer() *Timer { return &Timer{} }

// Name implements Device.
func (t *Timer) Name() string { return "timer" }

// Ports implements Device.
func (t *Timer) Ports() []uint16 {
	return []uint16{PortTimerInterval, PortTimerCount, PortTimerAck}
}

// Tick implements Device.
func (t *Timer) Tick(now uint64) {
	t.now = now
	for t.interval != 0 && now >= t.nextFire {
		t.pending = true
		t.nextFire += t.interval
	}
}

// NextDue implements Device: the next periodic fire, or nothing while
// unprogrammed.
func (t *Timer) NextDue() uint64 {
	if t.interval == 0 {
		return NoNextEvent
	}
	return t.nextFire
}

// In implements Device.
func (t *Timer) In(port uint16) uint32 {
	switch port {
	case PortTimerInterval:
		return uint32(t.interval)
	case PortTimerCount:
		if t.interval == 0 || t.nextFire <= t.now {
			return 0
		}
		return uint32(t.nextFire - t.now)
	}
	return 0
}

// Out implements Device.
func (t *Timer) Out(port uint16, v uint32) {
	switch port {
	case PortTimerInterval:
		t.interval = uint64(v)
		t.nextFire = t.now + t.interval
		if v == 0 {
			t.pending = false
		}
	case PortTimerAck:
		t.pending = false
	}
}

// IRQ implements Device.
func (t *Timer) IRQ() int {
	if t.pending {
		return IRQTimer
	}
	return -1
}

func (t *Timer) saveUndo(u *BusUndo)    { u.timer = t.timerRegs }
func (t *Timer) restoreUndo(u *BusUndo) { t.timerRegs = u.timer }

// Disk models a sectored block device with a fixed access latency: a
// command issued at time T completes (raising IRQDisk) at T+Latency. This
// is the "simple delay model" class of peripheral timing the prototype
// used; the timing model can refine it (§3.4).
type Disk struct {
	SectorWords int
	Latency     uint64

	diskRegs
	// shared marks the sector map as referenced by a rollback capture: the
	// next mutation clones it first (installSector), so captures cost
	// nothing until the disk is actually written.
	shared bool
	now    uint64
}

// diskRegs is the disk's state, and its part of a BusUndo. Installed
// sectors are never written in place, so the map (copy-on-write) and a read
// buffer (a sector itself) are shared with captures; a write buffer is
// appended to in place.
type diskRegs struct {
	sectors map[uint32][]uint32
	sector  uint32
	busy    bool
	doneAt  uint64
	done    bool
	buf     []uint32
	bufPos  int
	writing bool
}

// NewDisk creates a disk whose sectors hold sectorWords 32-bit words and
// whose accesses take latency target time units.
func NewDisk(sectorWords int, latency uint64) *Disk {
	return &Disk{SectorWords: sectorWords, Latency: latency, diskRegs: diskRegs{sectors: make(map[uint32][]uint32)}}
}

// Fork returns an idle disk of the given latency over d's current contents.
// The fork shares the sector map copy-on-write and so never writes it; d is
// from then on an image to fork, not a device to run, and any number of
// forks may run concurrently.
func (d *Disk) Fork(latency uint64) *Disk {
	return &Disk{SectorWords: d.SectorWords, Latency: latency, diskRegs: diskRegs{sectors: d.sectors}, shared: true}
}

// Preload fills a sector image before boot (e.g. the "compressed kernel").
func (d *Disk) Preload(sector uint32, words []uint32) {
	d.installSector(sector, append([]uint32(nil), words...))
}

// installSector is the one place the sector map is mutated. A map a
// rollback capture still references is cloned first — shallowly: installed
// sector slices are never mutated in place, so captures and the live map
// may share them.
func (d *Disk) installSector(sector uint32, words []uint32) {
	if d.shared {
		d.sectors, d.shared = maps.Clone(d.sectors), false
	}
	d.sectors[sector] = words
}

// Sector returns a copy of a sector's current contents.
func (d *Disk) Sector(sector uint32) []uint32 {
	return append([]uint32(nil), d.sectors[sector]...)
}

// Name implements Device.
func (d *Disk) Name() string { return "disk" }

// Ports implements Device.
func (d *Disk) Ports() []uint16 {
	return []uint16{PortDiskSector, PortDiskCmd, PortDiskData, PortDiskStatus, PortDiskAck}
}

// Tick implements Device.
func (d *Disk) Tick(now uint64) {
	d.now = now
	if d.busy && now >= d.doneAt {
		d.busy = false
		d.done = true
		if d.writing {
			// A full buffer becomes the sector: nothing appends to it again.
			sec := d.buf
			if len(sec) != d.SectorWords {
				sec = make([]uint32, d.SectorWords)
				copy(sec, d.buf)
			}
			d.installSector(d.sector, sec)
		}
	}
}

// NextDue implements Device: the completion of the in-flight command, or
// nothing while idle.
func (d *Disk) NextDue() uint64 {
	if !d.busy {
		return NoNextEvent
	}
	return d.doneAt
}

// In implements Device.
func (d *Disk) In(port uint16) uint32 {
	switch port {
	case PortDiskStatus:
		var s uint32
		if d.busy {
			s |= 1
		}
		if d.done {
			s |= 2
		}
		return s
	case PortDiskData:
		if d.busy || d.bufPos >= len(d.buf) {
			return 0
		}
		v := d.buf[d.bufPos]
		d.bufPos++
		return v
	}
	return 0
}

// Out implements Device.
func (d *Disk) Out(port uint16, v uint32) {
	switch port {
	case PortDiskSector:
		d.sector = v
	case PortDiskCmd:
		switch v {
		case 1: // read
			// A full-length sector is the buffer; only a short or absent one
			// is copied and zero-padded.
			if d.buf = d.sectors[d.sector]; len(d.buf) != d.SectorWords {
				d.buf = make([]uint32, d.SectorWords)
				copy(d.buf, d.sectors[d.sector])
			}
			d.bufPos = 0
			d.writing = false
			d.busy = true
			d.doneAt = d.now + d.Latency
		case 2: // write
			d.buf = make([]uint32, 0, d.SectorWords)
			d.bufPos = 0
			d.writing = true
			d.busy = true
			d.doneAt = d.now + d.Latency
		}
	case PortDiskData:
		if d.writing && len(d.buf) < d.SectorWords {
			d.buf = append(d.buf, v)
			// The write completes Latency after the *last* streamed word,
			// not after the command: PIO streaming a full sector takes
			// longer than the device latency, and completing mid-stream
			// would commit a torn sector to the medium.
			d.doneAt = d.now + d.Latency
		}
	case PortDiskAck:
		d.done = false
	}
}

// IRQ implements Device.
func (d *Disk) IRQ() int {
	if d.done {
		return IRQDisk
	}
	return -1
}

// saveUndo and restoreUndo leave the sector map shared with the capture,
// copy-on-write (installSector), so a capture survives being restored more
// than once.
func (d *Disk) saveUndo(u *BusUndo)    { u.disk, d.shared = d.diskRegs, true }
func (d *Disk) restoreUndo(u *BusUndo) { d.diskRegs, d.shared = u.disk, true }

// NIC is a network interface with scripted packet arrivals and a tx FIFO.
// Arrivals model external events ("the number of external events ...
// increase over time", §1) without a real network.
type NIC struct {
	arrivals []ScriptedInput // Data interpreted as 32-bit LE words
	rx       []uint32
	tx       []uint32
	now      uint64
}

// NewNIC creates a NIC with scripted arrivals (sorted by At).
func NewNIC(arrivals ...ScriptedInput) *NIC { return &NIC{arrivals: arrivals} }

// Fork returns a NIC of its own over n's pending arrivals, which a NIC only
// ever re-slices from the front: like Disk.Fork, for an n that is never run.
func (n *NIC) Fork() *NIC { return &NIC{arrivals: n.arrivals} }

// Sent returns all words written to the tx FIFO.
func (n *NIC) Sent() []uint32 { return n.tx }

// Name implements Device.
func (n *NIC) Name() string { return "nic" }

// Ports implements Device.
func (n *NIC) Ports() []uint16 {
	return []uint16{PortNICStatus, PortNICRecv, PortNICSend, PortNICAck}
}

// Tick implements Device.
func (n *NIC) Tick(now uint64) {
	n.now = now
	for len(n.arrivals) > 0 && n.arrivals[0].At <= now {
		d := n.arrivals[0].Data
		for i := 0; i+3 < len(d); i += 4 {
			n.rx = append(n.rx, uint32(d[i])|uint32(d[i+1])<<8|uint32(d[i+2])<<16|uint32(d[i+3])<<24)
		}
		n.arrivals = n.arrivals[1:]
	}
}

// NextDue implements Device: the next scripted packet arrival (arrivals are sorted by At).
func (n *NIC) NextDue() uint64 {
	if len(n.arrivals) == 0 {
		return NoNextEvent
	}
	return n.arrivals[0].At
}

// In implements Device.
func (n *NIC) In(port uint16) uint32 {
	switch port {
	case PortNICStatus:
		var s uint32
		if len(n.rx) > 0 {
			s |= 1
		}
		s |= 2 // tx always ready
		return s
	case PortNICRecv:
		if len(n.rx) == 0 {
			return 0
		}
		v := n.rx[0]
		n.rx = n.rx[1:]
		return v
	}
	return 0
}

// Out implements Device.
func (n *NIC) Out(port uint16, v uint32) {
	if port == PortNICSend {
		n.tx = append(n.tx, v)
	}
}

// IRQ implements Device.
func (n *NIC) IRQ() int {
	if len(n.rx) > 0 {
		return IRQNIC
	}
	return -1
}

// nicUndo is a NIC's part of a BusUndo. The tx FIFO is append-only, so the
// capture records only its length and restore truncates; pending arrivals
// and the rx FIFO are shared.
type nicUndo struct {
	arrivals []ScriptedInput
	rx       []uint32
	txLen    int
}

func (n *NIC) saveUndo(u *BusUndo) { u.nic = nicUndo{n.arrivals, n.rx, len(n.tx)} }

func (n *NIC) restoreUndo(u *BusUndo) {
	n.arrivals, n.rx, n.tx = u.nic.arrivals, u.nic.rx, n.tx[:u.nic.txLen]
}
