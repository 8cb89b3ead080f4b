package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fm"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/service/diskcache"
	"repro/internal/sim"
)

// The probes time single calls into the layers between the engine and the
// wire (key hashing, configure, snapshot, disk store, handler, coordinator
// hop) on the job mix's own program. They run in every traced run: these
// layers do not depend on which simulator workload is being measured, and a
// number taken beside each ladder shows whether the host was quiet.

// captureStore is a sim.SnapshotStore that keeps whatever the engine hands
// it, so the probes can hold a real boot snapshot.
type captureStore struct {
	mu    sync.Mutex
	snaps map[string]sim.Snapshot
}

func (c *captureStore) GetSnapshot(prefix string) (sim.Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.snaps[prefix]
	return s, ok
}

func (c *captureStore) PutSnapshot(s sim.Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.snaps == nil {
		c.snaps = map[string]sim.Snapshot{}
	}
	c.snaps[s.Prefix] = s
}

// timeEach returns the wall time of each of n calls, in the given unit.
func timeEach(n int, unit time.Duration, f func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/float64(unit.Nanoseconds()))
	}
	return out, nil
}

// simProbes times Params.Key, SnapshotPrefix, Engine.Configure cold and from
// a hitting snapshot store, and core.Sim Snapshot/Restore at the quiescent
// boundary the boot snapshot was taken at.
func simProbes(sz sizes) (map[string]float64, error) {
	p := cachedKeyParams(0, sz)
	m := map[string]float64{}

	calls := sz.ProbeOps * 10
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		p.MaxInstructions++
		_ = p.Key()
	}
	m["sim.key_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(calls)
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		p.DiskLatency++
		_ = p.SnapshotPrefix()
	}
	m["sim.snapshot_prefix_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(calls)

	// A cold run with a capturing store yields the boot snapshot.
	p = cachedKeyParams(0, sz)
	store := &captureStore{}
	p.Snapshots = store
	if _, err := sim.Run("fast", p); err != nil {
		return nil, err
	}
	snapshot, ok := store.GetSnapshot(p.SnapshotPrefix())

	const reps = 9
	cold := p
	cold.Snapshots = nil
	xs, err := timeEach(reps, time.Millisecond, func() error { _, err := sim.New("fast", cold); return err })
	if err != nil {
		return nil, err
	}
	m["sim.configure_cold_ms"] = median(xs)
	if !ok {
		// Toy sizes cap the run before boot completes: nothing to restore,
		// so the restore-side probes read as the cold ones.
		m["sim.configure_restore_ms"] = m["sim.configure_cold_ms"]
		m["core.snapshot_ms"], m["core.restore_ms"], m["sim.snapshot_kb"] = 0, 0, 0
		return m, nil
	}
	if xs, err = timeEach(reps, time.Millisecond, func() error { _, err := sim.New("fast", p); return err }); err != nil {
		return nil, err
	}
	m["sim.configure_restore_ms"] = median(xs)
	m["sim.snapshot_kb"] = float64(len(snapshot.Blob)) / 1024

	var restore, capture []float64
	for i := 0; i < reps; i++ {
		boot, err := buildImage(p)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.FM = fm.Config{Devices: boot.Devices(), ICacheEntries: p.ICacheEntries, SuperblockLen: p.SuperblockLen}
		cfg.MaxInstructions = p.MaxInstructions
		s, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		s.LoadProgram(boot.Kernel)
		t0 := time.Now()
		if err := s.Restore(snapshot.Blob); err != nil {
			return nil, fmt.Errorf("core.Sim.Restore: %w", err)
		}
		t1 := time.Now()
		if _, err := s.Snapshot(); err != nil {
			return nil, fmt.Errorf("core.Sim.Snapshot: %w", err)
		}
		t2 := time.Now()
		restore = append(restore, float64(t1.Sub(t0).Nanoseconds())/1e6)
		capture = append(capture, float64(t2.Sub(t1).Nanoseconds())/1e6)
	}
	m["core.restore_ms"], m["core.snapshot_ms"] = median(restore), median(capture)
	return m, nil
}

// diskProbes times diskcache.Cache puts and gets over an equal number of
// result-sized and snapshot-sized blobs (mean per operation).
func diskProbes(sz sizes, resultBlob, snapshotBlob []byte) (map[string]float64, error) {
	dir, err := os.MkdirTemp("", "fastyard-disk-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dc, err := diskcache.New(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	n := sz.ProbeOps / 4
	key := func(i int) string { return fmt.Sprintf("probe\x00%d", i) }
	blob := func(i int) []byte {
		if i%2 == 0 {
			return resultBlob
		}
		return snapshotBlob
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		dc.Put(key(i), blob(i))
	}
	put := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if got, ok := dc.Get(key(i)); !ok || len(got) != len(blob(i)) {
			return nil, fmt.Errorf("diskcache lost blob %d", i)
		}
	}
	get := time.Since(t0)
	return map[string]float64{
		"service.diskcache_put_us": float64(put.Nanoseconds()) / 1e3 / float64(n),
		"service.diskcache_get_us": float64(get.Nanoseconds()) / 1e3 / float64(n),
	}, nil
}

// handlerProbe times POST /v1/jobs of a cached key through the handler on a
// recorder: the submit path with no TCP and no client under it.
func handlerProbe(s *mixServer, sz sizes) (float64, error) {
	params, err := json.Marshal(cachedKeyParams(0, sz))
	if err != nil {
		return 0, err
	}
	body, err := json.Marshal(service.JobRequest{Engine: "fast", Params: params})
	if err != nil {
		return 0, err
	}
	h := s.srv.Handler()
	xs, err := timeEach(sz.ProbeOps, time.Microsecond, func() error {
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			return fmt.Errorf("handler submit: status %d: %s", w.Code, w.Body.String())
		}
		return nil
	})
	return median(xs), err
}

// enginePoints returns the points of the first n jobs that need an engine
// run (the warm and cold ones).
func enginePoints(seed uint64, n int, sz sizes) []sim.Point {
	var pts []sim.Point
	for i := 0; i < n; i++ {
		if j := mixJobAt(seed, i, sz); j.Class != classCached {
			pts = append(pts, sim.Point{Engine: "fast", Params: j.Params})
		}
	}
	return pts
}

// fleetProbe runs the engine-run points of the first ProbeJobs jobs through
// sim.Fleet with the workers and a warm-start store the service would use
// but no service: the ceiling the mix's points_per_s is measured against.
func fleetProbe(seed uint64, sz sizes) (float64, error) {
	dir, err := os.MkdirTemp("", "fastyard-fleet-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	dc, err := diskcache.New(dir, 0, nil)
	if err != nil {
		return 0, err
	}
	snaps := service.NewSnapshotStore(dc, nil)
	fleet := sim.Fleet{Workers: mixWorkers}
	var prefixes []sim.Point
	for k := 0; k < sz.MixPrefixes; k++ {
		p := cachedKeyParams(k, sz)
		p.Snapshots = snaps
		prefixes = append(prefixes, sim.Point{Engine: "fast", Params: p})
	}
	if err := sim.FirstErr(fleet.Run(prefixes)); err != nil {
		return 0, err
	}
	pts := enginePoints(seed, sz.ProbeJobs, sz)
	for i := range pts {
		pts[i].Params.Snapshots = snaps
	}
	t0 := time.Now()
	res := fleet.Run(pts)
	secs := time.Since(t0).Seconds()
	if err := sim.FirstErr(res); err != nil {
		return 0, err
	}
	return float64(len(pts)) / secs, nil
}

// clusterProbes stand a coordinator over two in-process workers that share
// one disk store, and time a cached submit through it against the same
// submit sent to a worker directly, then one sweep of the first ProbeJobs
// jobs' points.
func clusterProbes(seed uint64, sz sizes) (map[string]float64, error) {
	dir, err := os.MkdirTemp("", "fastyard-cluster-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var nodes []string
	for n := 0; n < 2; n++ {
		dc, err := diskcache.New(dir, 0, nil)
		if err != nil {
			return nil, err
		}
		srv := service.New(service.Config{Workers: 1, QueueDepth: mixQueue, Store: dc})
		httpd, base, served, err := listen(srv.Handler())
		if err != nil {
			return nil, err
		}
		defer func() {
			httpd.Shutdown(ctx)
			<-served
			srv.Shutdown(ctx)
		}()
		nodes = append(nodes, base)
	}
	coord, err := cluster.New(cluster.Config{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	httpd, base, served, err := listen(coord.Handler())
	if err != nil {
		return nil, err
	}
	defer func() {
		httpd.Shutdown(ctx)
		<-served
	}()

	via := newMixClient(base)
	defer via.HTTP.CloseIdleConnections()
	direct := newMixClient(nodes[0])
	defer direct.HTTP.CloseIdleConnections()
	p := cachedKeyParams(0, sz)
	// Run the point once through each path so that both submits below are
	// cache hits (the second resolves through the shared disk store).
	for _, cli := range []*client.Client{via, direct} {
		if smp := runJob(ctx, cli, mixJob{Params: p}, nil); smp.Err != nil {
			return nil, smp.Err
		}
	}
	n := sz.ProbeOps / 2
	submit := func(cli *client.Client) func() error {
		return func() error {
			v, err := cli.SubmitParams(ctx, "fast", p, 0)
			if err == nil && !v.Cached {
				err = fmt.Errorf("probe submit was not a cache hit")
			}
			return err
		}
	}
	viaUS, err := timeEach(n, time.Microsecond, submit(via))
	if err != nil {
		return nil, err
	}
	directUS, err := timeEach(n, time.Microsecond, submit(direct))
	if err != nil {
		return nil, err
	}

	sweep := sim.Sweep{Base: sim.Params{Workload: mixProgram}}
	for _, pt := range enginePoints(seed, sz.ProbeJobs, sz) {
		sweep.Variants = append(sweep.Variants, pt.Params)
	}
	t0 := time.Now()
	sv, err := via.SubmitSweep(ctx, sweep, 0)
	if err != nil {
		return nil, err
	}
	res, _, err := via.WaitSweepResult(ctx, sv.ID)
	secs := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	for _, r := range res.Results {
		if r.Error != "" {
			return nil, fmt.Errorf("cluster sweep point %d: %s", r.Index, r.Error)
		}
	}
	return map[string]float64{
		"cluster.submit_us_p50":      median(viaUS),
		"cluster.hop_overhead_us":    median(viaUS) - median(directUS),
		"cluster.sweep_points_per_s": float64(len(res.Results)) / secs,
	}, nil
}
