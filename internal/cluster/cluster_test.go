package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/service/diskcache"
	"repro/internal/service/servicetest"
)

// Test engines, shared with the service package's tests: clu-stub
// completes instantly with a params-derived result (checkable,
// byte-stable), clu-block parks until the gate opens (reachable mid-sweep
// states).
func init() { servicetest.Register("clu") }

var resetGate, openGate = servicetest.ResetGate, servicetest.OpenGate

// workerNode is one real service.Server behind an httptest listener.
type workerNode struct {
	srv *service.Server
	ts  *httptest.Server
	tel *obs.Telemetry
}

func newWorker(t *testing.T, cfg service.Config) *workerNode {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = obs.New()
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	n := &workerNode{srv: srv, ts: ts, tel: cfg.Telemetry}
	t.Cleanup(func() {
		ts.Close()
		openGate()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return n
}

// clusterHarness is a coordinator over real worker nodes, itself behind an
// httptest listener so tests drive it with the ordinary client.
type clusterHarness struct {
	workers []*workerNode
	coord   *Coordinator
	ts      *httptest.Server
	cli     *client.Client
}

func newCluster(t *testing.T, cfg Config, workers ...*workerNode) *clusterHarness {
	t.Helper()
	for _, w := range workers {
		cfg.Nodes = append(cfg.Nodes, w.ts.URL)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	cli := client.New(ts.URL)
	cli.Poll = 2 * time.Millisecond
	return &clusterHarness{workers: workers, coord: coord, ts: ts, cli: cli}
}

// nodeByName finds the coordinator's node record for a worker URL.
func (h *clusterHarness) nodeByName(t *testing.T, name string) *node {
	t.Helper()
	for _, n := range h.coord.nodes {
		if n.name == name {
			return n
		}
	}
	t.Fatalf("no node %q", name)
	return nil
}

// TestRendezvousStability: ownership is balanced-ish and removing a node
// only moves the removed node's keys — the property that keeps cache
// locality through membership changes.
func TestRendezvousStability(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	owner := func(key string, members []string) string {
		best, bestScore := "", uint64(0)
		for _, n := range members {
			if s := rendezvousScore(n, key); best == "" || s > bestScore {
				best, bestScore = n, s
			}
		}
		return best
	}
	counts := map[string]int{}
	before := map[string]string{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("fast\x00key-%d", i)
		o := owner(key, nodes)
		counts[o]++
		before[key] = o
	}
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("node %s owns zero of 300 keys: %v", n, counts)
		}
	}
	// Drop node c: every key c did not own keeps its owner.
	for key, o := range before {
		if o == "http://c" {
			continue
		}
		if got := owner(key, nodes[:2]); got != o {
			t.Fatalf("key %q moved %s → %s when an unrelated node left", key, o, got)
		}
	}
}

const sweepSpec = `{"engines":["clu-stub"],"workloads":["164.gzip","176.gcc","186.crafty","197.parser"],"base":{"max_instructions":5000}}`

// TestSweepByteIdenticalToSingleNode is the core aggregation contract: a
// coordinator sweep over two workers returns byte-for-byte the response a
// fresh single node produces for the same spec.
func TestSweepByteIdenticalToSingleNode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Reference: one fresh node, no coordinator.
	single := newWorker(t, service.Config{Workers: 2})
	scli := client.New(single.ts.URL)
	scli.Poll = 2 * time.Millisecond
	sv, err := scli.SubmitSweepRaw(ctx, json.RawMessage(sweepSpec), 0)
	if err != nil {
		t.Fatalf("single-node sweep: %v", err)
	}
	_, refBytes, err := scli.WaitSweepResult(ctx, sv.ID)
	if err != nil {
		t.Fatalf("single-node result: %v", err)
	}

	// Cluster: coordinator over two fresh workers.
	h := newCluster(t, Config{},
		newWorker(t, service.Config{Workers: 2}),
		newWorker(t, service.Config{Workers: 2}))
	cv, err := h.cli.SubmitSweepRaw(ctx, json.RawMessage(sweepSpec), 0)
	if err != nil {
		t.Fatalf("cluster sweep: %v", err)
	}
	if cv.ID != sv.ID {
		t.Fatalf("coordinator minted %s, single node %s — id sequences diverged", cv.ID, sv.ID)
	}
	_, cluBytes, err := h.cli.WaitSweepResult(ctx, cv.ID)
	if err != nil {
		t.Fatalf("cluster result: %v", err)
	}
	if !bytes.Equal(refBytes, cluBytes) {
		t.Fatalf("aggregation differs:\nsingle : %s\ncluster: %s", refBytes, cluBytes)
	}
}

// TestKillNodeMidSweep: with children parked across two nodes, killing one
// node mid-sweep reassigns its children to the survivor and the sweep
// still completes with every result present.
func TestKillNodeMidSweep(t *testing.T) {
	resetGate()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	a := newWorker(t, service.Config{Workers: 2, QueueDepth: 16})
	b := newWorker(t, service.Config{Workers: 2, QueueDepth: 16})
	h := newCluster(t, Config{ProbeInterval: 20 * time.Millisecond}, a, b)

	spec := `{"engines":["clu-block"],"workloads":["164.gzip","176.gcc","186.crafty","197.parser"],"base":{"max_instructions":100}}`
	sv, err := h.cli.SubmitSweepRaw(ctx, json.RawMessage(spec), 0)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}

	// Find a node that owns at least one child and kill it.
	h.coord.mu.Lock()
	owned := map[*node]int{}
	for _, j := range h.coord.jobs {
		owned[j.node]++
	}
	h.coord.mu.Unlock()
	var victim *workerNode
	var victimOwned int
	for _, w := range []*workerNode{a, b} {
		n := h.nodeByName(t, w.ts.URL)
		if owned[n] > 0 {
			victim, victimOwned = w, owned[n]
			break
		}
	}
	if victim == nil {
		t.Fatal("no node owns any child")
	}
	victim.ts.Close() // children parked there are gone with it

	// Release the engines and wait out the recovery: polling the sweep
	// result drives refresh → transport error → reassignment, and the
	// prober independently detects the death.
	openGate()
	out, _, err := h.cli.WaitSweepResult(ctx, sv.ID)
	if err != nil {
		t.Fatalf("sweep never recovered: %v", err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	for _, r := range out.Results {
		if r.Error != "" || len(r.Result) == 0 {
			t.Fatalf("child %d (%s) incomplete after node death: err=%q", r.Index, r.JobID, r.Error)
		}
	}
	if got := h.coord.reassignments.Value(); got < uint64(victimOwned) {
		t.Fatalf("reassignments = %d, want >= %d (children owned by killed node)", got, victimOwned)
	}
}

// TestProbeDetectsDeadNode: the background prober alone (no client
// polling) marks a dead node unhealthy, counts the probe failure, and
// reassigns its jobs.
func TestProbeDetectsDeadNode(t *testing.T) {
	resetGate()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	a := newWorker(t, service.Config{Workers: 1, QueueDepth: 16})
	b := newWorker(t, service.Config{Workers: 1, QueueDepth: 16})
	h := newCluster(t, Config{ProbeInterval: 15 * time.Millisecond}, a, b)

	v, err := h.cli.SubmitJob(ctx, "clu-block", json.RawMessage(`{"workload":"164.gzip"}`), 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	h.coord.mu.Lock()
	owner := h.coord.jobs[v.ID].node
	h.coord.mu.Unlock()
	var victim *workerNode
	if owner.name == a.ts.URL {
		victim = a
	} else {
		victim = b
	}
	victim.ts.Close()

	// No status polling: recovery must come from the prober.
	deadline := time.Now().Add(10 * time.Second)
	for h.coord.reassignments.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("prober never reassigned the dead node's job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if owner.probeFailures.Value() == 0 {
		t.Error("probe failure not counted for the dead node")
	}
	if owner.healthy.Load() {
		t.Error("dead node still marked healthy")
	}
	openGate()
	if _, err := h.cli.WaitResult(ctx, v.ID); err != nil {
		t.Fatalf("reassigned job never finished: %v", err)
	}
}

// TestStealStragglers: a sweep child stuck queued behind a busy node is
// stolen onto an idle one at aggregation time.
func TestStealStragglers(t *testing.T) {
	resetGate()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	busy := newWorker(t, service.Config{Workers: 1, QueueDepth: 8})
	idle := newWorker(t, service.Config{Workers: 1, QueueDepth: 8})
	// Prober parked (huge interval): queue depths are set by hand below.
	h := newCluster(t, Config{ProbeInterval: time.Hour, StealAfter: time.Millisecond}, busy, idle)
	busyNode := h.nodeByName(t, busy.ts.URL)
	idleNode := h.nodeByName(t, idle.ts.URL)

	// Park the busy node's only worker on a directly-submitted job.
	bcli := client.New(busy.ts.URL)
	park, err := bcli.SubmitJob(ctx, "clu-block", json.RawMessage(`{"workload":"164.gzip"}`), 0)
	if err != nil {
		t.Fatalf("park: %v", err)
	}
	for {
		pv, err := bcli.Job(ctx, park.ID)
		if err != nil {
			t.Fatal(err)
		}
		if pv.Status == service.StatusRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Force the sweep's one child onto the busy node, then restore.
	idleNode.healthy.Store(false)
	sv, err := h.cli.SubmitSweepRaw(ctx, json.RawMessage(`{"engines":["clu-block"],"workloads":["176.gcc"],"base":{}}`), 0)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	idleNode.healthy.Store(true)

	h.coord.mu.Lock()
	sw := h.coord.sweeps[sv.ID]
	child := sw.children[0]
	if child.node != busyNode {
		h.coord.mu.Unlock()
		t.Fatalf("child landed on %s, want the busy node", child.node.name)
	}
	child.assigned = time.Now().Add(-time.Minute) // long past StealAfter
	h.coord.mu.Unlock()
	busyNode.queueDepth.Store(3)
	idleNode.queueDepth.Store(0)

	h.coord.stealStragglers(ctx, sw)

	h.coord.mu.Lock()
	movedTo := child.node
	h.coord.mu.Unlock()
	if movedTo != idleNode {
		t.Fatalf("child still on %s after steal pass", movedTo.name)
	}
	if h.coord.steals.Value() != 1 {
		t.Fatalf("steals = %d, want 1", h.coord.steals.Value())
	}

	// The stolen child completes on the idle node once released.
	openGate()
	out, _, err := h.cli.WaitSweepResult(ctx, sv.ID)
	if err != nil {
		t.Fatalf("stolen sweep result: %v", err)
	}
	if out.Results[0].Error != "" || len(out.Results[0].Result) == 0 {
		t.Fatalf("stolen child incomplete: %+v", out.Results[0])
	}
	if runs := idle.tel.Metrics.Counter("service_engine_runs_total").Value(); runs != 1 {
		t.Fatalf("idle node engine runs = %d, want 1 (the stolen child)", runs)
	}
}

// TestClusterRestartServedFromDisk is the end-to-end durability
// acceptance: after every worker and the coordinator restart, a repeated
// sweep is answered entirely from the shared disk store — zero engine
// runs — with per-point result bytes identical to the first run.
func TestClusterRestartServedFromDisk(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir() // shared store directory, as NFS/bind mount would be

	buildWorkers := func() []*workerNode {
		var ws []*workerNode
		for i := 0; i < 2; i++ {
			store, err := diskcache.New(dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, newWorker(t, service.Config{Workers: 2, Store: store}))
		}
		return ws
	}

	ws1 := buildWorkers()
	h1 := newCluster(t, Config{}, ws1[0], ws1[1])
	sv1, err := h1.cli.SubmitSweepRaw(ctx, json.RawMessage(sweepSpec), 0)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	out1, _, err := h1.cli.WaitSweepResult(ctx, sv1.ID)
	if err != nil {
		t.Fatalf("first result: %v", err)
	}

	// Full cluster restart: new workers (fresh memory, fresh telemetry)
	// over the same directory, new coordinator.
	h1.ts.Close()
	h1.coord.Close()
	for _, w := range ws1 {
		w.ts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.srv.Shutdown(sctx)
		scancel()
	}

	ws2 := buildWorkers()
	h2 := newCluster(t, Config{}, ws2[0], ws2[1])
	sv2, err := h2.cli.SubmitSweepRaw(ctx, json.RawMessage(sweepSpec), 0)
	if err != nil {
		t.Fatalf("restart sweep: %v", err)
	}
	out2, _, err := h2.cli.WaitSweepResult(ctx, sv2.ID)
	if err != nil {
		t.Fatalf("restart result: %v", err)
	}

	if len(out1.Results) != len(out2.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(out1.Results), len(out2.Results))
	}
	for i := range out1.Results {
		if !bytes.Equal(out1.Results[i].Result, out2.Results[i].Result) {
			t.Fatalf("point %d bytes differ across restart:\n before %s\n after  %s",
				i, out1.Results[i].Result, out2.Results[i].Result)
		}
		if !out2.Results[i].Cached {
			t.Errorf("point %d not served from cache after restart", i)
		}
	}
	for i, w := range ws2 {
		if runs := w.tel.Metrics.Counter("service_engine_runs_total").Value(); runs != 0 {
			t.Fatalf("restarted worker %d ran %d engines, want 0 (disk-cache serve)", i, runs)
		}
	}
}

// TestClusterViewAndListing: topology and collection endpoints on the
// coordinator.
func TestClusterViewAndListing(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h := newCluster(t, Config{},
		newWorker(t, service.Config{Workers: 2}),
		newWorker(t, service.Config{Workers: 2}))

	var ids []string
	for i := 0; i < 3; i++ {
		params := fmt.Sprintf(`{"workload":"164.gzip","max_instructions":%d}`, 1000+i)
		v, err := h.cli.SubmitJob(ctx, "clu-stub", json.RawMessage(params), 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
		if _, err := h.cli.WaitResult(ctx, v.ID); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}

	// Listing: newest first, pagination cursor chains.
	l, err := h.cli.ListJobs(ctx, "", 2, "")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(l.Jobs) != 2 || l.Jobs[0].ID != ids[2] || l.Jobs[1].ID != ids[1] {
		t.Fatalf("page 1 = %+v, want [%s %s]", l.Jobs, ids[2], ids[1])
	}
	l2, err := h.cli.ListJobs(ctx, "", 2, l.NextAfter)
	if err != nil {
		t.Fatalf("list page 2: %v", err)
	}
	if len(l2.Jobs) != 1 || l2.Jobs[0].ID != ids[0] || l2.NextAfter != "" {
		t.Fatalf("page 2 = %+v next=%q", l2.Jobs, l2.NextAfter)
	}

	// Topology: both nodes healthy, placements sum to the submissions.
	raw, err := h.cli.ClusterView(ctx)
	if err != nil {
		t.Fatalf("cluster view: %v", err)
	}
	var view View
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	if len(view.Nodes) != 2 {
		t.Fatalf("view has %d nodes, want 2", len(view.Nodes))
	}
	var placed uint64
	for _, n := range view.Nodes {
		if !n.Healthy {
			t.Errorf("node %s unhealthy in a live cluster", n.Name)
		}
		placed += n.Jobs
	}
	if placed != 3 {
		t.Fatalf("placements = %d, want 3", placed)
	}
	if view.Jobs != 3 {
		t.Fatalf("view.Jobs = %d, want 3", view.Jobs)
	}
}

// TestCoordinatorJobRunsFMDefaults: a job submitted through the coordinator
// with no host knobs reaches the worker's engine as the zero Params, which
// means the FM defaults — predecode cache and superblocks on — as it does
// on a bare node (service.TestCacheHitByteIdentical).
func TestCoordinatorJobRunsFMDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled run")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := newWorker(t, service.Config{Workers: 1})
	h := newCluster(t, Config{}, w)
	v, err := h.cli.SubmitJob(ctx, "fast", json.RawMessage(`{"workload":"164.gzip","max_instructions":3000}`), 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := h.cli.WaitResult(ctx, v.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// Per-job metrics are a node-only route: ask the worker that ran it.
	jobs, err := client.New(w.ts.URL).ListJobs(ctx, "", 0, "")
	if err != nil || len(jobs.Jobs) != 1 {
		t.Fatalf("worker jobs = %+v, %v", jobs.Jobs, err)
	}
	resp, err := http.Get(w.ts.URL + "/v1/jobs/" + jobs.Jobs[0].ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prom, _ := io.ReadAll(resp.Body)
	if !regexp.MustCompile(`(?m)^fm_superblock_hits_total [1-9]`).Match(prom) {
		t.Error("coordinator job without host knobs formed no superblocks (no fm_superblock_hits_total in its metrics)")
	}
}
