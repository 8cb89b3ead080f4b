package fullsys

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/snap"
)

// populatedBus builds a bus with every device type carrying non-trivial
// state derived from a seeded generator, so the round-trip tests cover a
// different corner of the encoding each iteration.
func populatedBus(rng *rand.Rand) *Bus {
	con := NewConsole(ScriptedInput{At: rng.Uint64() % 1000, Data: []byte("scripted")})
	con.out = append(con.out, []byte("boot banner\n")...)
	con.rx = append(con.rx, byte(rng.Intn(256)), byte(rng.Intn(256)))
	con.irqOnRx = rng.Intn(2) == 0

	tim := NewTimer()
	tim.interval = rng.Uint64() % 50000
	tim.nextFire = tim.interval + rng.Uint64()%1000
	tim.pending = rng.Intn(2) == 0

	disk := NewDisk(16, 500)
	for s := 0; s < rng.Intn(4)+1; s++ {
		words := make([]uint32, 16)
		for i := range words {
			words[i] = rng.Uint32()
		}
		disk.Preload(uint32(rng.Intn(64)), words)
	}
	disk.sector = uint32(rng.Intn(64))
	disk.busy = rng.Intn(2) == 0
	disk.doneAt = rng.Uint64() % 100000
	disk.done = rng.Intn(2) == 0
	disk.buf = make([]uint32, 16)
	disk.bufPos = rng.Intn(17)
	disk.writing = rng.Intn(2) == 0

	nic := NewNIC(ScriptedInput{At: rng.Uint64() % 2000, Data: []byte{1, 2, 3, 4}})
	nic.rx = []uint32{rng.Uint32(), rng.Uint32()}
	nic.tx = []uint32{rng.Uint32()}

	b := NewBus(con, tim, disk, nic)
	b.mask = rng.Uint32() & 0xFF
	return b
}

// freshBus mirrors populatedBus's device complement with zero state, the
// shape a restore target has.
func freshBus() *Bus {
	return NewBus(NewConsole(), NewTimer(), NewDisk(16, 500), NewNIC())
}

// TestBusSnapshotRoundTrip is the device-encoding property test: for many
// seeded device populations, Snapshot → Restore into a fresh bus →
// re-Snapshot must reproduce the exact bytes (the encoding is canonical),
// and restoring must be rejected cleanly at every truncation point.
func TestBusSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := populatedBus(rng)
		blob := snap.Marshal(src)

		dst := freshBus()
		if err := snap.Unmarshal(blob, dst); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		again := snap.Marshal(dst)
		if !bytes.Equal(blob, again) {
			t.Fatalf("seed %d: snapshot not canonical after round trip", seed)
		}
		if dst.mask != src.mask {
			t.Fatalf("seed %d: PIC mask %d, want %d", seed, dst.mask, src.mask)
		}

		// Every truncation must error, never panic or succeed.
		for cut := 0; cut < len(blob); cut += 7 {
			if err := snap.Unmarshal(blob[:cut], freshBus()); err == nil {
				t.Fatalf("seed %d: restore of %d/%d bytes succeeded", seed, cut, len(blob))
			}
		}
		if err := snap.Unmarshal(append(append([]byte(nil), blob...), 0xAA), freshBus()); err == nil {
			t.Fatalf("seed %d: restore with trailing garbage succeeded", seed)
		}
	}
}

// TestBusRestoreRejectsMismatchedShape pins the configuration-vs-state
// split: blobs only restore onto a bus with the identical device
// complement and geometry.
func TestBusRestoreRejectsMismatchedShape(t *testing.T) {
	blob := snap.Marshal(freshBus())
	if err := snap.Unmarshal(blob, NewBus(NewConsole(), NewTimer(), NewDisk(16, 500))); err == nil {
		t.Error("restore onto a bus missing a device succeeded")
	}
	if err := snap.Unmarshal(blob, NewBus(NewTimer(), NewConsole(), NewDisk(16, 500), NewNIC())); err == nil {
		t.Error("restore onto a bus with reordered devices succeeded")
	}
	if err := snap.Unmarshal(blob, NewBus(NewConsole(), NewTimer(), NewDisk(32, 500), NewNIC())); err == nil {
		t.Error("restore onto a disk with different geometry succeeded")
	}
	if err := snap.Unmarshal(blob, NewBus(NewConsole(), NewTimer(), NewDisk(16, 900), NewNIC())); err == nil {
		t.Error("restore onto a disk with different latency succeeded")
	}
}

// TestDiskSnapshotAliasing: a snapshot must be an immutable copy. Mutating
// the live disk after capture — through Preload or through the slice
// Sector hands out — must not leak into what the blob restores.
func TestDiskSnapshotAliasing(t *testing.T) {
	src := freshBus()
	var disk *Disk
	for _, d := range src.Devices {
		if dd, ok := d.(*Disk); ok {
			disk = dd
		}
	}
	disk.Preload(3, []uint32{0x11111111, 0x22222222})
	blob := snap.Marshal(src)

	// Mutate the live disk every way a caller can.
	disk.Preload(3, []uint32{0xBAD0BAD0, 0xBAD1BAD1})
	disk.Preload(5, []uint32{0xFFFFFFFF})
	disk.Sector(3)[0] = 0xDEADBEEF

	dst := freshBus()
	if err := snap.Unmarshal(blob, dst); err != nil {
		t.Fatal(err)
	}
	var got *Disk
	for _, d := range dst.Devices {
		if dd, ok := d.(*Disk); ok {
			got = dd
		}
	}
	sec := got.Sector(3)
	if len(sec) != 2 || sec[0] != 0x11111111 || sec[1] != 0x22222222 {
		t.Errorf("restored sector 3 = %#v, want the pre-mutation image", sec)
	}
	if got.Sector(5) != nil {
		t.Error("restored disk has sector 5, preloaded only after the snapshot")
	}

	// The same isolation must hold for writes arriving the way the kernel
	// actually writes: through the port protocol (sector, write command,
	// streamed data words, completion tick).
	diskWrite := func(d *Disk, now uint64, sector uint32, words []uint32) uint64 {
		d.Tick(now)
		d.Out(PortDiskSector, sector)
		d.Out(PortDiskCmd, 2)
		for _, w := range words {
			now++
			d.Tick(now)
			d.Out(PortDiskData, w)
		}
		now += d.Latency
		d.Tick(now) // completion installs the sector
		d.Out(PortDiskAck, 1)
		return now
	}
	full := make([]uint32, disk.SectorWords)
	for i := range full {
		full[i] = 0xA0000000 + uint32(i)
	}
	now := diskWrite(disk, 10_000, 7, full)

	dst2 := freshBus()
	if err := snap.Unmarshal(blob, dst2); err != nil {
		t.Fatal(err)
	}
	var got2 *Disk
	for _, d := range dst2.Devices {
		if dd, ok := d.(*Disk); ok {
			got2 = dd
		}
	}
	if got2.Sector(7) != nil {
		t.Error("restored disk has sector 7, port-written only after the snapshot")
	}

	// And the converse: a snapshot taken after the port-protocol write
	// restores the modified sector bit-identically — the property the
	// warm-start tier needs for FS workloads that write before a capture.
	blob2 := snap.Marshal(src)
	diskWrite(disk, now+1, 7, make([]uint32, disk.SectorWords)) // clobber after capture
	dst3 := freshBus()
	if err := snap.Unmarshal(blob2, dst3); err != nil {
		t.Fatal(err)
	}
	var got3 *Disk
	for _, d := range dst3.Devices {
		if dd, ok := d.(*Disk); ok {
			got3 = dd
		}
	}
	sec7 := got3.Sector(7)
	if len(sec7) != disk.SectorWords {
		t.Fatalf("restored sector 7 has %d words, want %d", len(sec7), disk.SectorWords)
	}
	for i, w := range sec7 {
		if w != full[i] {
			t.Fatalf("restored sector 7 word %d = %#x, want %#x", i, w, full[i])
		}
	}
}

// TestDiskCaptureRestoreTwice: rollback captures share the sector map with
// the live disk copy-on-write, and the checkpoint engine restores one
// capture several times. Every mutation path after a capture — Preload, a
// port-protocol write completing in Tick, a State load — must leave the
// capture intact, on the first restore and on the second, and two captures
// sharing one map must not disturb each other.
func TestDiskCaptureRestoreTwice(t *testing.T) {
	d := NewDisk(4, 10)
	d.Preload(1, []uint32{1, 1, 1, 1})
	portWrite := func(now uint64, sector uint32, v uint32) {
		d.Tick(now)
		d.Out(PortDiskSector, sector)
		d.Out(PortDiskCmd, 2)
		for i := 0; i < d.SectorWords; i++ {
			d.Out(PortDiskData, v)
		}
		d.Tick(now + d.Latency)
		d.Out(PortDiskAck, 1)
	}
	check := func(when string, want map[uint32]uint32) {
		t.Helper()
		for sec := uint32(0); sec < 5; sec++ {
			got := d.Sector(sec)
			v, ok := want[sec]
			if !ok {
				if got != nil {
					t.Errorf("%s: sector %d = %v, want absent", when, sec, got)
				}
				continue
			}
			if len(got) != d.SectorWords || got[0] != v || got[d.SectorWords-1] != v {
				t.Errorf("%s: sector %d = %v, want all %d", when, sec, got, v)
			}
		}
	}

	capture := func() *BusUndo {
		u := new(BusUndo)
		d.saveUndo(u)
		return u
	}
	capA := capture() // {1:1}
	blobA := snap.Marshal(d)
	portWrite(100, 2, 2)
	capB := capture() // {1:1, 2:2}; shares the post-write map
	d.Preload(1, []uint32{9, 9, 9, 9})
	portWrite(200, 3, 3)
	check("live", map[uint32]uint32{1: 9, 2: 2, 3: 3})

	d.restoreUndo(capB)
	check("B restored", map[uint32]uint32{1: 1, 2: 2})
	portWrite(300, 4, 4) // mutate on top of the restored, still-shared map
	d.Preload(2, []uint32{7, 7, 7, 7})
	d.restoreUndo(capB)
	check("B restored twice", map[uint32]uint32{1: 1, 2: 2})

	d.restoreUndo(capA)
	check("A restored", map[uint32]uint32{1: 1})
	if err := snap.Unmarshal(blobA, d); err != nil {
		t.Fatal(err)
	}
	portWrite(400, 1, 5)
	check("after State load + write", map[uint32]uint32{1: 5})
	d.restoreUndo(capA)
	check("A restored twice", map[uint32]uint32{1: 1})
	d.restoreUndo(capB)
	check("B restored after A", map[uint32]uint32{1: 1, 2: 2})

	// The transfer buffer is shared with captures too: one taken mid-stream
	// keeps exactly the words streamed before it, whatever follows.
	stream := func(words ...uint32) {
		for _, w := range words {
			d.Out(PortDiskData, w)
		}
	}
	d.Tick(1000)
	d.Out(PortDiskSector, 4)
	d.Out(PortDiskCmd, 2)
	stream(1, 2)
	mid := capture()
	stream(3, 4)
	d.restoreUndo(mid)
	stream(8)
	d.restoreUndo(mid)
	stream(5, 6)
	d.Tick(1000 + d.Latency)
	if got := d.Sector(4); len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 5 || got[3] != 6 {
		t.Errorf("sector streamed across two restores of a mid-stream capture = %v, want [1 2 5 6]", got)
	}
}

// TestDiskWriteCompletesAfterLastWord pins the device-side torn-write
// guard: a write command's completion clock restarts with every streamed
// data word, so while the kernel keeps streaming (each word within the
// device latency of the last) the sector is never installed mid-stream —
// even when the whole transfer takes far longer than the latency, the
// regime where completion-at-command-time used to commit a torn sector.
func TestDiskWriteCompletesAfterLastWord(t *testing.T) {
	d := NewDisk(16, 100)
	d.Tick(0)
	d.Out(PortDiskSector, 4)
	d.Out(PortDiskCmd, 2)
	now := uint64(0)
	for i := 0; i < 16; i++ {
		// 50 units apart: the full 16-word stream takes 750 units, far past
		// the 100-unit latency measured from the command.
		now += 50
		d.Tick(now)
		if i > 0 && d.Sector(4) != nil {
			t.Fatalf("sector 4 installed after %d/16 words", i)
		}
		d.Out(PortDiskData, uint32(i))
	}
	d.Tick(now + 99)
	if d.Sector(4) != nil {
		t.Fatal("sector 4 installed before the post-stream latency elapsed")
	}
	d.Tick(now + 100)
	sec := d.Sector(4)
	if len(sec) != 16 {
		t.Fatalf("sector 4 not installed at completion time (got %d words)", len(sec))
	}
	for i, w := range sec {
		if w != uint32(i) {
			t.Fatalf("sector 4 word %d = %d, want %d", i, w, i)
		}
	}
}

// TestMemoryStateRoundTrip covers the sparse page encoding: scattered
// writes survive the round trip, pages absent from the blob come back
// zero, and geometry mismatches are rejected.
func TestMemoryStateRoundTrip(t *testing.T) {
	m := NewMemory(16 * PageSize)
	m.Write(0, 0xAABBCCDD, 4)                            // first page
	m.Write(isa.Word(5*PageSize+123), 0x55, 1)           // middle page
	m.Write(isa.Word(15*PageSize+PageSize-4), 0xFEFE, 2) // last page

	blob := snap.Marshal(m)

	dst := NewMemory(16 * PageSize)
	dst.Write(isa.Word(7*PageSize), 0x1234, 4) // must be zeroed by the restore
	if err := snap.Unmarshal(blob, dst); err != nil {
		t.Fatal(err)
	}
	if got := dst.Read(0, 4); got != 0xAABBCCDD {
		t.Errorf("page 0 word = %#x", got)
	}
	if got := dst.Read(isa.Word(5*PageSize+123), 1); got != 0x55 {
		t.Errorf("page 5 byte = %#x", got)
	}
	if got := dst.Read(isa.Word(15*PageSize+PageSize-4), 2); got != 0xFEFE {
		t.Errorf("page 15 halfword = %#x", got)
	}
	if got := dst.Read(isa.Word(7*PageSize), 4); got != 0 {
		t.Errorf("untouched page carries %#x after restore, want 0", got)
	}

	wrong := NewMemory(8 * PageSize)
	if err := snap.Unmarshal(blob, wrong); err == nil {
		t.Error("restore onto differently sized memory succeeded")
	}
}

// TestStateRejectsNonCanonical: a keyed collection has one encoding —
// ascending keys, no all-zero page — so that anything a decode accepts
// re-encodes to the identical bytes. Every row here is a well-formed blob
// that differs from a valid one only in order or redundancy.
func TestStateRejectsNonCanonical(t *testing.T) {
	disk := NewDisk(2, 500)
	disk.Preload(3, []uint32{1, 2})
	disk.Preload(9, []uint32{3, 4})
	diskBlob := snap.Marshal(disk)
	// version, words/sector, latency, frame length, count — then 16-byte
	// entries (sector, word count, two words).
	const sec0, sec1 = 21, 37

	mem := NewMemory(8 * PageSize)
	mem.Write(isa.Word(2*PageSize), 0xAA, 1)
	mem.Write(isa.Word(5*PageSize), 0xBB, 1)
	memBlob := snap.Marshal(mem)
	// version, size, count — then (index, raw page) entries.
	const page0, page1 = 13, 13 + 4 + PageSize

	for _, tc := range []struct {
		name   string
		blob   []byte
		mutate func(b []byte)
		target snap.Stater
	}{
		{"disk sectors descending", diskBlob, func(b []byte) {
			first := append([]byte(nil), b[sec0:sec1]...)
			copy(b[sec0:], b[sec1:sec1+16])
			copy(b[sec1:], first)
		}, NewDisk(2, 500)},
		{"disk sector repeated", diskBlob, func(b []byte) { copy(b[sec1:sec1+4], b[sec0:sec0+4]) }, NewDisk(2, 500)},
		{"memory pages descending", memBlob, func(b []byte) { b[page0], b[page1] = b[page1], b[page0] }, NewMemory(8 * PageSize)},
		{"memory page repeated", memBlob, func(b []byte) { b[page1] = b[page0] }, NewMemory(8 * PageSize)},
		{"memory page stored all-zero", memBlob, func(b []byte) { b[page1+4] = 0 }, NewMemory(8 * PageSize)},
	} {
		if err := snap.Unmarshal(tc.blob, tc.target); err != nil {
			t.Fatalf("%s: the unmutated blob is rejected: %v", tc.name, err)
		}
		bad := append([]byte(nil), tc.blob...)
		tc.mutate(bad)
		if bytes.Equal(bad, tc.blob) {
			t.Fatalf("%s: mutation changed nothing", tc.name)
		}
		if err := snap.Unmarshal(bad, tc.target); err == nil {
			t.Errorf("%s: decode succeeded", tc.name)
		}
	}
}

// TestTLBStateRoundTrip round-trips the architectural TLB encoding.
func TestTLBStateRoundTrip(t *testing.T) {
	var src TLB
	src.Insert(TLBEntry{VPN: 0x10, PFN: 0x20, Valid: true, User: true, Write: true})
	src.Insert(TLBEntry{VPN: 0x11, PFN: 0x21, Valid: true})
	blob := snap.Marshal(&src)

	var dst TLB
	if err := snap.Unmarshal(blob, &dst); err != nil {
		t.Fatal(err)
	}
	if dst != src {
		t.Errorf("TLB round trip mismatch:\n%+v\nvs\n%+v", dst, src)
	}
}

// FuzzSnapshotDecode drives Bus.Restore with arbitrary byte soup: it must
// reject malformed input with an error — never panic — and any blob it
// accepts must re-encode to the identical bytes (canonical encoding).
func FuzzSnapshotDecode(f *testing.F) {
	valid := snap.Marshal(populatedBus(rand.New(rand.NewSource(1))))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		b := freshBus()
		if err := snap.Unmarshal(data, b); err != nil {
			return
		}
		if again := snap.Marshal(b); !bytes.Equal(again, data) {
			t.Fatalf("accepted blob is not canonical: re-encoded %d bytes from %d input", len(again), len(data))
		}
	})
}
