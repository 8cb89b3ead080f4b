package fullsys

// Versioned, deterministic binary state for every full-system component.
// This is the serialization contract warm-start snapshots persist to disk.
// It is deliberately NOT what the functional model's rollback journal
// stores: the journal captures devices on every device-touching
// instruction, so it uses CaptureRollback closures that structure-share
// immutable internals (devices.go) instead of paying an encode/decode —
// a disk image re-serialized per wrong-path re-steer dominated whole
// experiment runs before the split.
//
// Encoding rules: every component writes a leading format-version byte and
// its fields in a fixed order through snap.Writer; LoadState validates the
// version and rejects truncated or corrupt input with an error, never a
// panic. Device `now` clocks are deliberately excluded — every bus access
// re-establishes them via Tick before use, and excluding them keeps the
// encoding a pure function of observable device state.

import (
	"bytes"

	"repro/internal/snap"
)

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

func checkVersion(r *snap.Reader, what string, want uint8) error {
	if v := r.U8(); r.Err() == nil && v != want {
		return snap.Corruptf("%s state version %d, want %d", what, v, want)
	}
	return r.Err()
}

func writeScript(w *snap.Writer, script []ScriptedInput) {
	w.U32(uint32(len(script)))
	for _, s := range script {
		w.U64(s.At)
		w.Bytes32(s.Data)
	}
}

func readScript(r *snap.Reader) []ScriptedInput {
	n := int(r.U32())
	if r.Err() != nil || n == 0 {
		return nil
	}
	if n > r.Remaining()/12 { // each entry costs at least an At + a length
		r.U64() // drive the sticky reader into its truncation error
		return nil
	}
	script := make([]ScriptedInput, 0, n)
	for i := 0; i < n; i++ {
		at := r.U64()
		data := r.Bytes32()
		if r.Err() != nil {
			return nil
		}
		script = append(script, ScriptedInput{At: at, Data: data})
	}
	return script
}

// ---------------------------------------------------------------------------
// Console

// SaveState implements Device.
func (c *Console) SaveState(w *snap.Writer) {
	w.U8(consoleStateV)
	w.Bytes32(c.out)
	writeScript(w, c.script)
	w.Bytes32(c.rx)
	w.Bool(c.irqOnRx)
}

// LoadState implements Device.
func (c *Console) LoadState(r *snap.Reader) error {
	if err := checkVersion(r, "console", consoleStateV); err != nil {
		return err
	}
	out := r.Bytes32()
	script := readScript(r)
	rx := r.Bytes32()
	irqOnRx := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	c.out, c.script, c.rx, c.irqOnRx = out, script, rx, irqOnRx
	return nil
}

// ---------------------------------------------------------------------------
// Timer

// SaveState implements Device.
func (t *Timer) SaveState(w *snap.Writer) {
	w.U8(timerStateV)
	w.U64(t.interval)
	w.U64(t.nextFire)
	w.Bool(t.pending)
}

// LoadState implements Device.
func (t *Timer) LoadState(r *snap.Reader) error {
	if err := checkVersion(r, "timer", timerStateV); err != nil {
		return err
	}
	interval, nextFire, pending := r.U64(), r.U64(), r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	t.interval, t.nextFire, t.pending = interval, nextFire, pending
	return nil
}

// ---------------------------------------------------------------------------
// Disk

// sectorBlob returns the canonical encoding of the sector map, cached and
// invalidated on mutation: sector images change only on write-command
// completion (and Preload), while the rollback journal serializes the bus
// on every device-touching undo record — so the O(disk size) encode is
// paid per mutation, not per record.
func (d *Disk) sectorBlob() []byte {
	if d.secBlob != nil && !d.secDirty {
		return d.secBlob
	}
	keys := make([]uint32, 0, len(d.sectors))
	for s := range d.sectors {
		keys = append(keys, s)
	}
	// Insertion sort: sector counts are small and this avoids pulling the
	// sort package into the encoding path.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	w := snap.NewWriter(8 + len(d.sectors)*(8+4*d.SectorWords))
	w.U32(uint32(len(keys)))
	for _, s := range keys {
		w.U32(s)
		w.U32Slice(d.sectors[s])
	}
	d.secBlob, d.secDirty = w.Bytes(), false
	return d.secBlob
}

func decodeSectors(blob []byte) (map[uint32][]uint32, error) {
	r := snap.NewReader(blob)
	n := int(r.U32())
	if r.Err() == nil && n > r.Remaining()/8 {
		return nil, snap.Corruptf("sector count %d exceeds blob size", n)
	}
	sectors := make(map[uint32][]uint32, n)
	for i := 0; i < n; i++ {
		s := r.U32()
		words := r.U32Slice()
		if r.Err() != nil {
			return nil, r.Err()
		}
		sectors[s] = words
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return sectors, nil
}

// SaveState implements Device.
func (d *Disk) SaveState(w *snap.Writer) {
	w.U8(diskStateV)
	w.U32(uint32(d.SectorWords))
	w.U64(d.Latency)
	w.Bytes32(d.sectorBlob())
	w.U32(d.sector)
	w.Bool(d.busy)
	w.U64(d.doneAt)
	w.Bool(d.done)
	w.U32Slice(d.buf)
	w.U32(uint32(d.bufPos))
	w.Bool(d.writing)
}

// LoadState implements Device.
func (d *Disk) LoadState(r *snap.Reader) error {
	if err := checkVersion(r, "disk", diskStateV); err != nil {
		return err
	}
	if sw := r.U32(); r.Err() == nil && int(sw) != d.SectorWords {
		return snap.Corruptf("disk geometry %d words/sector, device has %d", sw, d.SectorWords)
	}
	if lat := r.U64(); r.Err() == nil && lat != d.Latency {
		return snap.Corruptf("disk latency %d, device has %d", lat, d.Latency)
	}
	secBlob := r.Bytes32()
	sector := r.U32()
	busy := r.Bool()
	doneAt := r.U64()
	done := r.Bool()
	buf := r.U32Slice()
	bufPos := int(r.U32())
	writing := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if bufPos < 0 || bufPos > len(buf) {
		return snap.Corruptf("disk buffer position %d outside buffer of %d words", bufPos, len(buf))
	}
	sectors, err := decodeSectors(secBlob)
	if err != nil {
		return err
	}
	d.sectors, d.shared = sectors, false // freshly decoded: no capture references it
	d.secBlob, d.secDirty = secBlob, false
	d.sector, d.busy, d.doneAt, d.done = sector, busy, doneAt, done
	d.buf, d.bufPos, d.writing = buf, bufPos, writing
	return nil
}

// ---------------------------------------------------------------------------
// NIC

// SaveState implements Device.
func (n *NIC) SaveState(w *snap.Writer) {
	w.U8(nicStateV)
	writeScript(w, n.arrivals)
	w.U32Slice(n.rx)
	w.U32Slice(n.tx)
}

// LoadState implements Device.
func (n *NIC) LoadState(r *snap.Reader) error {
	if err := checkVersion(r, "nic", nicStateV); err != nil {
		return err
	}
	arrivals := readScript(r)
	rx := r.U32Slice()
	tx := r.U32Slice()
	if err := r.Err(); err != nil {
		return err
	}
	n.arrivals, n.rx, n.tx = arrivals, rx, tx
	return nil
}

// ---------------------------------------------------------------------------
// Bus (controller + devices)

// Snapshot captures the whole bus — controller and every device — as one
// versioned deterministic blob for warm-start persistence. The rollback
// journal does not go through here: it uses Bus.CaptureRollback
// (device.go), which avoids the encode/decode on the FM hot path.
func (b *Bus) Snapshot() []byte {
	w := snap.NewWriter(256)
	b.SaveState(w)
	return w.Bytes()
}

// Restore reinstates a Snapshot blob.
func (b *Bus) Restore(blob []byte) error {
	r := snap.NewReader(blob)
	if err := b.LoadState(r); err != nil {
		return err
	}
	return r.Close()
}

// SaveState writes the bus state: format version, PIC mask, device count,
// then each device's name-tagged state in bus order.
func (b *Bus) SaveState(w *snap.Writer) {
	w.U8(busStateV)
	w.U32(b.PIC.mask)
	w.U32(uint32(len(b.Devices)))
	for _, d := range b.Devices {
		w.String(d.Name())
		d.SaveState(w)
	}
}

// LoadState decodes bus state written by SaveState. The live bus must have
// the same device complement in the same order; a mismatch is an error,
// not a partial restore.
func (b *Bus) LoadState(r *snap.Reader) error {
	if err := checkVersion(r, "bus", busStateV); err != nil {
		return err
	}
	mask := r.U32()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(b.Devices) {
		return snap.Corruptf("bus has %d devices, blob has %d", len(b.Devices), n)
	}
	for _, d := range b.Devices {
		if name := r.String(); r.Err() == nil && name != d.Name() {
			return snap.Corruptf("device order mismatch: blob %q, bus %q", name, d.Name())
		}
		if err := d.LoadState(r); err != nil {
			return err
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	b.PIC.mask = mask
	return nil
}

// ---------------------------------------------------------------------------
// Memory

// SaveState writes physical memory sparsely: total size plus only the
// non-zero 4 KiB pages (index + raw bytes). A freshly booted 16 MiB target
// touches a few hundred KB, so snapshots stay proportional to the
// workload's footprint, not the configured memory size.
func (m *Memory) SaveState(w *snap.Writer) {
	w.U8(memStateV)
	w.U64(uint64(len(m.data)))
	pages := 0
	countAt := w.Len()
	w.U32(0) // page count back-patched below
	for p := 0; p < len(m.data); p += PageSize {
		page := m.data[p : p+PageSize]
		if pageIsZero(page) {
			continue
		}
		w.U32(uint32(p >> PageShift))
		w.Raw(page)
		pages++
	}
	w.PatchU32(countAt, uint32(pages))
}

// LoadState restores memory written by SaveState. The live memory must
// already have the encoded size (memory geometry is configuration, not
// state); pages absent from the blob are zeroed.
func (m *Memory) LoadState(r *snap.Reader) error {
	if err := checkVersion(r, "memory", memStateV); err != nil {
		return err
	}
	size := r.U64()
	if r.Err() == nil && size != uint64(len(m.data)) {
		return snap.Corruptf("memory size %d, target has %d", size, len(m.data))
	}
	n := int(r.U32())
	if r.Err() == nil && n > r.Remaining()/(4+PageSize) {
		return snap.Corruptf("page count %d exceeds blob size", n)
	}
	type page struct {
		idx uint32
		raw []byte
	}
	pages := make([]page, 0, n)
	maxPage := uint32(len(m.data) >> PageShift)
	for i := 0; i < n; i++ {
		idx := r.U32()
		raw := r.Raw(PageSize)
		if err := r.Err(); err != nil {
			return err
		}
		if idx >= maxPage {
			return snap.Corruptf("page index %d outside %d-page memory", idx, maxPage)
		}
		pages = append(pages, page{idx, raw})
	}
	// Validation done: apply. Zero everything, then lay in the saved pages.
	m.zero()
	for _, p := range pages {
		copy(m.data[int(p.idx)<<PageShift:], p.raw)
	}
	return nil
}

var zeroPage [PageSize]byte

func pageIsZero(page []byte) bool { return bytes.Equal(page, zeroPage[:]) }

// ---------------------------------------------------------------------------
// TLB

// SaveState writes the architectural TLB.
func (t *TLB) SaveState(w *snap.Writer) {
	w.U8(tlbStateV)
	w.U32(uint32(t.next))
	for _, e := range t.entries {
		w.U32(e.VPN)
		w.U32(e.PFN)
		w.Bool(e.Valid)
		w.Bool(e.User)
		w.Bool(e.Write)
	}
}

// LoadState restores the architectural TLB.
func (t *TLB) LoadState(r *snap.Reader) error {
	if err := checkVersion(r, "tlb", tlbStateV); err != nil {
		return err
	}
	next := int(r.U32())
	if r.Err() == nil && (next < 0 || next >= NumTLBEntries) {
		return snap.Corruptf("tlb fifo pointer %d", next)
	}
	var entries [NumTLBEntries]TLBEntry
	for i := range entries {
		entries[i] = TLBEntry{
			VPN: r.U32(), PFN: r.U32(),
			Valid: r.Bool(), User: r.Bool(), Write: r.Bool(),
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	t.entries, t.next = entries, next
	return nil
}
