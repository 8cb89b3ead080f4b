package fullsys

// Versioned, deterministic binary state for every full-system component.
// This is the serialization contract warm-start snapshots persist to disk.
// It is deliberately NOT what the functional model's rollback journal
// stores: the journal captures devices on every device-touching
// instruction, so it keeps a BusUndo value (device.go) that shares the
// devices' storage instead of paying an encode/decode.
//
// Encoding rules: every component has one State walk that opens with its
// format version and lists its fields in a fixed order (snap.Codec), so the
// same walk encodes and decodes; truncated or corrupt input fails the
// decode with an error, never a panic, and anything a decode accepts
// re-encodes to the identical bytes. Device `now` clocks are deliberately
// excluded — every bus access re-establishes them via Tick before use, and
// excluding them keeps the encoding a pure function of observable device
// state.

import "repro/internal/snap"

// Per-component format versions. Bump when an encoding changes shape.
const (
	busStateV     = 1
	consoleStateV = 1
	timerStateV   = 1
	diskStateV    = 1
	nicStateV     = 1
	memStateV     = 1
	tlbStateV     = 1
)

func scriptState(c *snap.Codec, script *[]ScriptedInput) {
	n := c.Count(len(*script), 12) // each entry costs at least an At + a length
	if c.Loading() {
		*script = make([]ScriptedInput, n)
	}
	for i := range *script {
		c.U64(&(*script)[i].At)
		c.Bytes(&(*script)[i].Data)
	}
}

// State implements Device.
func (c *Console) State(s *snap.Codec) {
	s.Version("console", consoleStateV)
	s.Bytes(&c.out)
	scriptState(s, &c.script)
	s.Bytes(&c.rx)
	s.Bool(&c.irqOnRx)
}

// State implements Device.
func (t *Timer) State(c *snap.Codec) {
	c.Version("timer", timerStateV)
	c.U64(&t.interval)
	c.U64(&t.nextFire)
	c.Bool(&t.pending)
}

// State implements Device.
func (d *Disk) State(c *snap.Codec) {
	c.Version("disk", diskStateV)
	c.Len("disk words/sector", d.SectorWords)
	c.Size("disk latency", d.Latency)
	d.sectorsState(c)
	c.U32(&d.sector)
	c.Bool(&d.busy)
	c.U64(&d.doneAt)
	c.Bool(&d.done)
	c.U32Slice(&d.buf)
	c.Int32(&d.bufPos)
	c.Bool(&d.writing)
	if d.bufPos > len(d.buf) {
		c.Failf("disk buffer position %d outside buffer of %d words", d.bufPos, len(d.buf))
	}
}

// sectorBytes is the encoded size of a sector map: a count, then a sector
// number and a length-prefixed word slice per entry.
func sectorBytes(sectors map[uint32][]uint32) int {
	n := 4
	for _, words := range sectors {
		n += 8 + 4*len(words)
	}
	return n
}

// sectorsState walks the sector map, framed by its own byte length. It is a
// map, so the directions differ: it is written sorted by sector number, and
// decoding builds a fresh map (no rollback capture references it) from
// strictly ascending keys — any other order would not re-encode to the same
// bytes.
func (d *Disk) sectorsState(c *snap.Codec) {
	size := c.Count(sectorBytes(d.sectors), 1)
	n := c.Count(len(d.sectors), 8)
	if !c.Loading() {
		for _, s := range snap.SortedKeys(d.sectors) {
			words := d.sectors[s]
			c.U32(&s)
			c.U32Slice(&words)
		}
		return
	}
	d.sectors, d.shared = make(map[uint32][]uint32, n), false
	prev := int64(-1)
	for i := 0; i < n && c.Err() == nil; i++ {
		var s uint32
		var words []uint32
		c.U32(&s)
		c.U32Slice(&words)
		if int64(s) <= prev {
			c.Failf("disk sector %d not in ascending order", s)
		}
		prev, d.sectors[s] = int64(s), words
	}
	if sectorBytes(d.sectors) != size {
		c.Failf("disk sector map framed as %d bytes, holds %d", size, sectorBytes(d.sectors))
	}
}

// State implements Device.
func (n *NIC) State(c *snap.Codec) {
	c.Version("nic", nicStateV)
	scriptState(c, &n.arrivals)
	c.U32Slice(&n.rx)
	c.U32Slice(&n.tx)
}

// State walks the whole bus — format version, PIC mask, device count, then
// each device's name-tagged state in bus order — for warm-start
// persistence (snap.Marshal / snap.Unmarshal). The live bus must have the
// same device complement in the same order. The rollback journal does not
// go through here: it uses Bus.SaveUndo (device.go), which avoids the
// encode/decode on the FM hot path.
func (b *Bus) State(c *snap.Codec) {
	c.Version("bus", busStateV)
	c.U32(&b.mask)
	c.Len("bus devices", len(b.Devices))
	for _, d := range b.Devices {
		c.Tag("bus device", d.Name())
		d.State(c)
	}
	b.rescan()
}

// State walks physical memory sparsely: total size plus only the non-zero
// 4 KiB pages (index + raw bytes), ascending, so a snapshot is proportional
// to the workload's footprint, not the configured memory size. An allocated
// page that holds only zeros (a rolled-back wrong-path store put it there) is
// no different from one never written and stays out of the blob. The live
// memory must already have the encoded size (memory geometry is
// configuration, not state). Decoding allocates the blob's pages and drops
// every other.
func (m *Memory) State(c *snap.Codec) {
	c.Version("memory", memStateV)
	c.Size("memory size", uint64(m.Size()))
	if !c.Loading() {
		var pages []uint32
		for p, pg := range m.pages {
			if pg != nil && *pg != zeroPage {
				pages = append(pages, uint32(p))
			}
		}
		c.Count(len(pages), 4+PageSize)
		for _, p := range pages {
			c.U32(&p)
			c.Raw(m.pages[p][:])
		}
		return
	}
	next := 0 // first page the blob has not settled yet
	for n := c.Count(0, 4+PageSize); n > 0 && c.Err() == nil; n-- {
		var p uint32
		c.U32(&p)
		if int(p) < next || int(p) >= len(m.pages) {
			c.Failf("page index %d out of order or outside %d-page memory", p, len(m.pages))
			break
		}
		clear(m.pages[next:p])
		pg := m.writable(p << PageShift)
		c.Raw(pg[:])
		if *pg == zeroPage {
			c.Failf("page %d stored all-zero", p)
		}
		next = int(p) + 1
	}
	clear(m.pages[next:])
}

// State walks the architectural TLB.
func (t *TLB) State(c *snap.Codec) {
	c.Version("tlb", tlbStateV)
	c.Int32(&t.next)
	if t.next >= NumTLBEntries {
		c.Failf("tlb fifo pointer %d", t.next)
	}
	for i := range t.entries {
		e := &t.entries[i]
		c.U32(&e.VPN)
		c.U32(&e.PFN)
		c.Bool(&e.Valid)
		c.Bool(&e.User)
		c.Bool(&e.Write)
	}
}
