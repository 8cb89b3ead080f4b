package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/fullsys"
	"repro/internal/snap"
)

// imageDigests pins every registered boot image at 1, 2 and 4 cores: the
// kernel's base, entry and code plus the device bus's snapshot bytes (the
// preloaded disk, the scripted NIC arrivals). The FS entries ignore the core
// count, so their three rows agree. A change to a generator or to the build
// path that moves any byte of any boot fails here.
var imageDigests = map[string]string{
	"Linux-2.4/1":   "646ac92ee76109cf",
	"Linux-2.4/2":   "9ec1eb3575df7d07",
	"Linux-2.4/4":   "9ec1eb3575df7d07",
	"164.gzip/1":    "47db3e91ac3f069f",
	"164.gzip/2":    "54d1850b6f819479",
	"164.gzip/4":    "54d1850b6f819479",
	"175.vpr/1":     "20dd7392c92d2b8e",
	"175.vpr/2":     "b9dd370c910f1629",
	"175.vpr/4":     "b9dd370c910f1629",
	"176.gcc/1":     "e61d07b1dc251773",
	"176.gcc/2":     "2557b095415ee133",
	"176.gcc/4":     "2557b095415ee133",
	"181.mcf/1":     "3f292bb55f5cd597",
	"181.mcf/2":     "376c0ac78681edd0",
	"181.mcf/4":     "376c0ac78681edd0",
	"186.crafty/1":  "adcbb0b460095008",
	"186.crafty/2":  "77a38e4654db87a4",
	"186.crafty/4":  "77a38e4654db87a4",
	"197.parser/1":  "e3deedf829d86f74",
	"197.parser/2":  "1bc913c663310e69",
	"197.parser/4":  "1bc913c663310e69",
	"252.eon/1":     "9d37baf904563d40",
	"252.eon/2":     "548bf0076e4558ef",
	"252.eon/4":     "548bf0076e4558ef",
	"253.perlbmk/1": "dc9f4e11587d9921",
	"253.perlbmk/2": "95919b89d3358533",
	"253.perlbmk/4": "95919b89d3358533",
	"254.gap/1":     "015142b28001f100",
	"254.gap/2":     "4ddf9526cee628fb",
	"254.gap/4":     "4ddf9526cee628fb",
	"255.vortex/1":  "1b09e0706e3a66c7",
	"255.vortex/2":  "b30d3b68fcf86430",
	"255.vortex/4":  "b30d3b68fcf86430",
	"256.bzip2/1":   "0e1233140dbda921",
	"256.bzip2/2":   "8febedb68f95bb1d",
	"256.bzip2/4":   "8febedb68f95bb1d",
	"300.twolf/1":   "66aa7cecccb8dcfb",
	"300.twolf/2":   "d3ccad6b43e7626c",
	"300.twolf/4":   "d3ccad6b43e7626c",
	"Linux-2.6/1":   "4500121b0d6b056d",
	"Linux-2.6/2":   "3e0b78cb43f01f37",
	"Linux-2.6/4":   "3e0b78cb43f01f37",
	"Sweep3D/1":     "bc201299a395d40b",
	"Sweep3D/2":     "019f2ffe2d2bc86d",
	"Sweep3D/4":     "019f2ffe2d2bc86d",
	"MySQL/1":       "1b27beeea651d698",
	"MySQL/2":       "48c220ef2b3a210d",
	"MySQL/4":       "48c220ef2b3a210d",
	"WindowsXP/1":   "9647327c6a9ce6e3",
	"WindowsXP/2":   "22f3ec14d0c48a16",
	"WindowsXP/4":   "22f3ec14d0c48a16",
	"smp-lock/1":    "78e0c0b01e90435d",
	"smp-lock/2":    "993661688bce6bab",
	"smp-lock/4":    "5c91fe5b25c79f79",
	"smp-sleep/1":   "f2b2115085a78df9",
	"smp-sleep/2":   "1dd8c2d880d5b593",
	"smp-sleep/4":   "8b32ae0a2a7ed7ce",
	"shell-fork/1":  "38d8f8c1c233944e",
	"shell-fork/2":  "38d8f8c1c233944e",
	"shell-fork/4":  "38d8f8c1c233944e",
	"logwrite/1":    "9a44a054d5e4c295",
	"logwrite/2":    "9a44a054d5e4c295",
	"logwrite/4":    "9a44a054d5e4c295",
	"nicserv/1":     "c9071314f65cf9e2",
	"nicserv/2":     "c9071314f65cf9e2",
	"nicserv/4":     "c9071314f65cf9e2",
}

func imageDigest(b *Boot) string {
	h := sha256.New()
	var w [8]byte
	binary.LittleEndian.PutUint32(w[:4], uint32(b.Kernel.Base))
	binary.LittleEndian.PutUint32(w[4:], uint32(b.Kernel.Entry))
	h.Write(w[:])
	h.Write(b.Kernel.Code)
	h.Write(snap.Marshal(fullsys.NewBus(b.Devices()...)))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestBootImagesStable(t *testing.T) {
	seen := 0
	for _, e := range Registry() {
		for _, cores := range []int{1, 2, 4} {
			key := fmt.Sprintf("%s/%d", e.Name, cores)
			b, err := e.Build(cores).Build()
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			seen++
			if got := imageDigest(b); got != imageDigests[key] {
				t.Errorf("%s: image digest %s, want %s", key, got, imageDigests[key])
			}
		}
	}
	if seen != len(imageDigests) {
		t.Errorf("built %d images, %d pinned", seen, len(imageDigests))
	}
}
