package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/diskcache"
	"repro/internal/sim"
)

// hostRow is one setting of everything host-side a Runner can vary: fleet
// width, the bit-invariant Params knobs (as the Overlay every point gets)
// and the warm-start store. None of it may move a printed character.
type hostRow struct {
	name    string
	workers int
	knobs   sim.Params
	// snapshots attaches a warm-start store over the study's directory, as
	// `fastbench -snapshot-dir` builds it. Each row opens the directory
	// afresh (a new process, as far as the memory tier can tell), so the
	// first such row of a study captures and the next resumes from disk.
	snapshots bool
}

// reference is the row every other is compared with: the zero Params —
// every knob at its engine default — on a fleet wider than the host.
var reference = hostRow{name: "reference", workers: 8}

// studyRows is the invariance table. It replaces the CI job that launched
// fastbench 32 times and diffed the outputs. What that job ran each study
// under:
//
//	table3     workers 1/8, chunk 1/512, icache off/16, superblock off/8/64,
//	           snapshots capturing/resuming
//	ablations  workers 1/8, chunk 1, icache off, superblock off/8/64
//	fig4       workers 8, snapshots off/capturing/resuming (workers 1 comes
//	           from the deleted BenchmarkFigure4FleetSpeedup)
//	smp        workers 1/8, superblock off/8/64
//	servers    workers 1/8, superblock off/64, snapshots capturing/resuming
//
// One row is new: smp under a one-slot predecode cache, where the cores of
// a target collide in the one decoded-code table they share.
//
// Every value appears, spelled out, in the name of one of the study's rows
// below; workers 8, snapshots off and each knob's default are the reference
// row. Values of different axes share a row, so the table costs renderings
// rather than launches: the axes are independent mechanisms (fleet
// scheduling, trace-buffer publish, FM fetch path, FM superblock walk,
// snapshot restore), a leak in any one still shows, and the row name lists
// what to bisect. The one dependent pair gets separate rows: with the
// predecode cache off superblocks are off too, so "icache off" and
// "superblocks off" (the cache alone) are different configurations.
var studyRows = []struct {
	study  string
	render func(Runner) (string, error)
	rows   []hostRow
}{
	{"table3", Runner.Table3, []hostRow{
		{name: "serial: workers 1, chunk 1, icache off", workers: 1, knobs: sim.Params{TraceChunk: 1, ICacheEntries: sim.Off}},
		{name: "tiny: chunk 512, icache 16, superblock 8", workers: 8, knobs: sim.Params{TraceChunk: 512, ICacheEntries: 16, SuperblockLen: 8}},
		{name: "superblocks off, snapshots capturing", workers: 8, knobs: sim.Params{SuperblockLen: sim.Off}, snapshots: true},
		{name: "superblock 64, snapshots resuming", workers: 8, knobs: sim.Params{SuperblockLen: 64}, snapshots: true},
	}},
	{"ablations", Runner.Ablations, []hostRow{
		{name: "serial: workers 1, chunk 1, icache off", workers: 1, knobs: sim.Params{TraceChunk: 1, ICacheEntries: sim.Off}},
		{name: "superblocks off", workers: 8, knobs: sim.Params{SuperblockLen: sim.Off}},
		{name: "superblock 8", workers: 8, knobs: sim.Params{SuperblockLen: 8}},
		{name: "superblock 64", workers: 8, knobs: sim.Params{SuperblockLen: 64}},
	}},
	{"fig4", Runner.Figure4And5, []hostRow{
		{name: "workers 1, snapshots capturing", workers: 1, snapshots: true},
		{name: "snapshots resuming", workers: 8, snapshots: true},
	}},
	{"smp", Runner.SMP, []hostRow{
		{name: "workers 1, superblocks off", workers: 1, knobs: sim.Params{SuperblockLen: sim.Off}},
		{name: "superblock 8", workers: 8, knobs: sim.Params{SuperblockLen: 8}},
		{name: "superblock 64", workers: 8, knobs: sim.Params{SuperblockLen: 64}},
		{name: "icache 1, superblock 8", workers: 8, knobs: sim.Params{ICacheEntries: 1, SuperblockLen: 8}},
	}},
	{"servers", Runner.Servers, []hostRow{
		{name: "workers 1, superblocks off, snapshots capturing", workers: 1, knobs: sim.Params{SuperblockLen: sim.Off}, snapshots: true},
		{name: "superblock 64, snapshots resuming", workers: 8, knobs: sim.Params{SuperblockLen: 64}, snapshots: true},
	}},
}

// TestStudyInvariance is the FAST contract for host-side settings: every
// study renders byte-for-byte the same under every row of studyRows as
// under the reference. A failure names the study and the row and prints
// the lines that moved.
func TestStudyInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every swept study several times")
	}
	for _, s := range studyRows {
		t.Run(s.study, func(t *testing.T) {
			snapDir := t.TempDir()
			var captured uint64
			render := func(t *testing.T, row hostRow) string {
				r := Runner{Fleet: sim.Fleet{Workers: row.workers}, Overlay: row.knobs}
				tel := obs.New()
				if row.snapshots {
					store, err := diskcache.New(snapDir, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					r.Overlay.Snapshots = service.NewSnapshotStore(store, tel)
				}
				out, err := s.render(r)
				if err != nil {
					t.Fatal(err)
				}
				// A resuming row that resumes nothing checks nothing: once an
				// earlier row has stored a boot, a later one must hit it.
				hits := tel.Counter("service_snapshot_hits_total").Value()
				if row.snapshots && captured > 0 && hits == 0 {
					t.Errorf("%d snapshot bytes were captured earlier but this row resumed from none", captured)
				}
				captured += tel.Counter("service_snapshot_bytes_total").Value()
				return out
			}
			want := render(t, reference)
			for _, row := range s.rows {
				t.Run(row.name, func(t *testing.T) {
					if got := render(t, row); got != want {
						t.Errorf("%s renders differently under %q than under the reference (- reference, + this row):\n%s",
							s.study, row.name, lineDiff(want, got))
					}
				})
			}
		})
	}
}

// lineDiff lists the lines at which two renderings of one table differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
