// Package cluster shards the fastd /v1 API across worker nodes: a
// coordinator (fastd -coordinator -nodes host1,host2,...) that implements
// service.Backend — so the single v1 handler set of internal/service
// serves it exactly as it serves a node — but places every job on a
// worker chosen by rendezvous hashing of its content address
// (engine + sim.Params.Key() — the cache key from internal/service), so
// identical submissions always land where their result is already cached,
// and adding a node moves only ~1/N of the key space.
//
// Fault model: the coordinator health-probes every node; when a node
// fails a probe (or a proxied call hits a transport error), its
// non-terminal jobs are resubmitted to the next node in rendezvous order
// (cluster_reassignments_total) and terminal results the coordinator has
// already pulled are unaffected — child results are fetched eagerly as
// they finish, so a node death after completion loses nothing. At
// sweep-aggregation time, queued stragglers on deep-queued nodes are
// stolen onto idle ones (cluster_steals_total). Runs are deterministic, so
// a duplicated run caused by any of this races to the identical bytes.
//
// The coordinator drives nodes through internal/service/client — the same
// typed client external users get — so the node RPC surface is the public
// API by construction.
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

// Config wires a Coordinator. Nodes is the only required field.
type Config struct {
	// Nodes are the worker base URLs ("http://host:8080"). The node name
	// (the URL) is its rendezvous identity: keep it stable across
	// restarts or the key space reshuffles.
	Nodes []string
	// ProbeInterval spaces the health probes; <= 0 means 1s.
	ProbeInterval time.Duration
	// StealAfter is how long a sweep child may sit queued on its node
	// before aggregation-time polling steals it onto a less loaded one;
	// <= 0 means 3s. Negative is impossible; set very large to disable.
	StealAfter time.Duration
	// Telemetry receives the cluster_* series. Nil allocates a fresh one.
	Telemetry *obs.Telemetry
}

// Coordinator is the sharding front end. Build with New (which starts the
// prober), mount Handler, Close to stop probing.
type Coordinator struct {
	cfg   Config
	tel   *obs.Telemetry
	mux   *http.ServeMux
	nodes []*node

	reassignments *obs.Counter
	steals        *obs.Counter

	mu    sync.Mutex
	table service.Table[*remoteJob]

	stop     chan struct{}
	stopOnce sync.Once
	probers  sync.WaitGroup
}

// node is one worker as the coordinator sees it.
type node struct {
	name       string // base URL; the rendezvous identity
	cli        *client.Client
	healthy    atomic.Bool
	queueDepth atomic.Int64 // from the last successful probe

	jobs          *obs.Counter // cluster_node_jobs_total{node=}
	errors        *obs.Counter // cluster_node_errors_total{node=}
	probeFailures *obs.Counter // cluster_node_probe_failures_total{node=}
}

// probeTimeout bounds one health probe (and one probe-driven refresh).
const probeTimeout = 2 * time.Second

// remoteJob is a coordinator-tracked job: a coordinator-minted id mapped
// to (node, remote id). Its JobState is the last known view, with the ID
// rewritten to the coordinator's, and the result bytes, pulled eagerly at
// completion. A job is finished for the coordinator exactly when it is
// Settled: terminal, and for a done job the bytes are resident too — a
// done job whose bytes were not pulled yet must stay pollable, or a node
// death in that window would lose the result. All fields are guarded by
// the coordinator's mu; busy serializes the RPC-bearing operations
// (refresh, reassign, steal) per job so two pollers never race a
// reassignment.
type remoteJob struct {
	service.JobState
	engine    string
	rawParams json.RawMessage // marshaled once, forwarded on every (re)submission
	key       string          // shard key: service.JobKey(engine, params)
	timeout   time.Duration

	node     *node  // current owner; set by the placement that precedes publication
	remoteID string // the owner's id for this job
	assigned time.Time

	busy bool
}

// New builds a coordinator over cfg.Nodes and starts the prober.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = 3 * time.Second
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = obs.New()
	}
	c := &Coordinator{
		cfg:           cfg,
		tel:           cfg.Telemetry,
		reassignments: cfg.Telemetry.Counter("cluster_reassignments_total"),
		steals:        cfg.Telemetry.Counter("cluster_steals_total"),
		stop:          make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, name := range cfg.Nodes {
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate node %q", name)
		}
		seen[name] = true
		cli := client.New(name)
		// The coordinator owns retry/reassignment policy; the per-node
		// client must fail fast so a dead node is detected, not slept on.
		cli.RetryMax = 0
		n := &node{
			name:          name,
			cli:           cli,
			jobs:          cfg.Telemetry.Counter(obs.L("cluster_node_jobs_total", "node", name)),
			errors:        cfg.Telemetry.Counter(obs.L("cluster_node_errors_total", "node", name)),
			probeFailures: cfg.Telemetry.Counter(obs.L("cluster_node_probe_failures_total", "node", name)),
		}
		n.healthy.Store(true)
		c.nodes = append(c.nodes, n)
	}
	c.mux = service.NewMux(c)
	c.mux.HandleFunc("GET /v1/cluster", c.handleClusterView)
	c.probers.Add(1)
	go c.probeLoop()
	return c, nil
}

// Handler returns the coordinator's HTTP surface: the shared v1 routes
// (service.NewMux) plus GET /v1/cluster.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the prober. In-flight work on the nodes is untouched.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probers.Wait()
}

// rendezvousScore ranks node ownership of a key: the node with the
// highest score owns it. Independent per node, so removing a node only
// moves that node's keys (highest-random-weight / rendezvous hashing).
func rendezvousScore(node, key string) uint64 {
	h := sha256.Sum256([]byte(node + "\x00" + key))
	return binary.BigEndian.Uint64(h[:8])
}

// candidates returns the healthy nodes ordered by descending rendezvous
// score for key, excluding skip. The first entry is the owner; the rest
// are the reassignment order when owners fail.
func (c *Coordinator) candidates(key string, skip *node) []*node {
	type scored struct {
		n *node
		s uint64
	}
	out := make([]scored, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n == skip || !n.healthy.Load() {
			continue
		}
		out = append(out, scored{n: n, s: rendezvousScore(n.name, key)})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].s > out[k].s })
	nodes := make([]*node, len(out))
	for i, sc := range out {
		nodes[i] = sc.n
	}
	return nodes
}

// unavailable is the rejection for work no node can take right now; the
// hint gives the prober one interval to act before the client retries.
func (c *Coordinator) unavailable(format string, args ...any) *service.APIError {
	err := service.Errorf(http.StatusServiceUnavailable, service.CodeNodeUnavailable, format, args...)
	err.RetryAfterSec = int(c.cfg.ProbeInterval/time.Second) + 1
	return err
}

// assign records that n accepted j as v.
func (c *Coordinator) assign(j *remoteJob, n *node, v service.JobView) {
	n.jobs.Inc()
	c.mu.Lock()
	j.node, j.remoteID, j.assigned = n, v.ID, time.Now()
	v.ID = j.View.ID
	j.View = v
	c.mu.Unlock()
}

// place submits j to the best available node (in rendezvous order,
// excluding skip) and assigns it there, marking nodes that fail transport
// as unhealthy along the way. The error is always an *APIError: a live
// node's own rejection, or node_unavailable. Caller must hold j.busy (or
// exclusive ownership of a job not yet published).
func (c *Coordinator) place(ctx context.Context, j *remoteJob, skip *node) error {
	lastErr := c.unavailable("no healthy node available")
	for _, n := range c.candidates(j.key, skip) {
		v, err := n.cli.SubmitJob(ctx, j.engine, j.rawParams, j.timeout)
		if err == nil {
			c.assign(j, n, v)
			return nil
		}
		n.errors.Inc()
		var ae *service.APIError
		if !errors.As(err, &ae) {
			// Transport failure: the node is gone until a probe revives it.
			n.healthy.Store(false)
			lastErr = c.unavailable("node rpc failed: %v", err)
			continue
		}
		lastErr = ae
		if ae.Status != http.StatusTooManyRequests && ae.Status != http.StatusServiceUnavailable {
			// A live node rejected the job itself (bad params, unknown
			// engine): every node shares the registry, so propagate.
			// Backpressure (429/503) spills to the next node instead.
			break
		}
	}
	return lastErr
}

// acquire marks j busy for an RPC-bearing operation. Returns false when j
// is already terminal or another operation owns it.
func (c *Coordinator) acquire(j *remoteJob) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j.busy || j.Settled() {
		return false
	}
	j.busy = true
	return true
}

func (c *Coordinator) release(j *remoteJob) {
	c.mu.Lock()
	j.busy = false
	c.mu.Unlock()
}

// refreshJob polls j's owner and pulls its state forward: done jobs have
// their result bytes fetched eagerly (so a later node death loses
// nothing), transport failures trigger reassignment to the next node in
// rendezvous order, and a node that restarted and forgot the job
// (not_found) gets it resubmitted.
func (c *Coordinator) refreshJob(ctx context.Context, j *remoteJob) {
	if !c.acquire(j) {
		return
	}
	defer c.release(j)

	c.mu.Lock()
	n, rid := j.node, j.remoteID
	c.mu.Unlock()

	v, err := n.cli.Job(ctx, rid)
	if err != nil {
		n.errors.Inc()
		var ae *service.APIError
		switch {
		case !errors.As(err, &ae):
			n.healthy.Store(false)
			c.reassign(ctx, j, n)
		case ae.Code == service.CodeNotFound:
			// The node restarted and lost the job: run it again.
			c.reassign(ctx, j, nil)
		}
		return
	}
	var raw []byte
	if v.Status == service.StatusDone {
		// Nil when the bytes cannot be had yet: the job stays unsettled and
		// the next poll retries (or reassigns, if the node died in between).
		raw, _, _ = n.cli.JobResult(ctx, rid)
	}
	c.storeView(j, v, raw)
}

// storeView records the latest remote view (and the result bytes, once
// pulled) under mu, rewriting the id to the coordinator's.
func (c *Coordinator) storeView(j *remoteJob, v service.JobView, raw []byte) service.JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v.ID = j.View.ID
	j.View = v
	if raw != nil {
		j.Raw = raw
	}
	return v
}

// reassign moves j to the best node excluding failed (nil = just place it
// again). Caller must hold j.busy. No-op when no healthy node remains —
// the next probe or poll retries.
func (c *Coordinator) reassign(ctx context.Context, j *remoteJob, failed *node) {
	if c.place(ctx, j, failed) != nil {
		return
	}
	c.reassignments.Inc()
	c.pullPlaced(ctx, j)
}

// pullPlaced fetches the bytes right away when a placement landed straight
// on a cache hit, while the node is known alive. Same ownership rule as
// place.
func (c *Coordinator) pullPlaced(ctx context.Context, j *remoteJob) {
	c.mu.Lock()
	n, rid, done := j.node, j.remoteID, j.View.Status == service.StatusDone
	c.mu.Unlock()
	if !done {
		return
	}
	if raw, _, _ := n.cli.JobResult(ctx, rid); raw != nil {
		c.mu.Lock()
		j.Raw = raw
		c.mu.Unlock()
	}
}

// reassignNode re-places every non-terminal job owned by n — the
// probe-failure path.
func (c *Coordinator) reassignNode(n *node) {
	c.mu.Lock()
	var victims []*remoteJob
	c.table.Each(func(j *remoteJob) {
		if j.node == n && !j.busy && !j.Settled() {
			victims = append(victims, j)
		}
	})
	c.mu.Unlock()
	for _, j := range victims {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		c.refreshJob(ctx, j) // refresh hits the dead node and reassigns
		cancel()
	}
}

// probeLoop health-checks every node at the configured interval. A node
// that fails its probe is marked unhealthy, its probe-failure series
// bumped, and its jobs reassigned; a node that answers (even "draining")
// is healthy and publishes its queue depth for the stealing heuristic.
func (c *Coordinator) probeLoop() {
	defer c.probers.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for _, n := range c.nodes {
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			h, err := n.cli.Health(ctx)
			cancel()
			if err != nil {
				n.probeFailures.Inc()
				wasHealthy := n.healthy.Swap(false)
				if wasHealthy {
					c.reassignNode(n)
				}
				continue
			}
			n.queueDepth.Store(int64(h.QueueDepth))
			n.healthy.Store(true)
		}
	}
}

// stealStragglers is the aggregation-time work-stealing pass: children of
// sw still queued on their node past StealAfter are resubmitted to the
// healthy node with the shallowest probe-reported queue (when that is
// strictly shallower than the owner's) and cancelled best-effort on the
// old owner. Deterministic runs make the occasional double execution a
// race to identical bytes.
func (c *Coordinator) stealStragglers(ctx context.Context, sw *service.SweepRecord[*remoteJob]) {
	c.mu.Lock()
	var stuck []*remoteJob
	for _, j := range sw.Children {
		if !j.busy && j.View.Status == service.StatusQueued &&
			time.Since(j.assigned) > c.cfg.StealAfter {
			stuck = append(stuck, j)
		}
	}
	c.mu.Unlock()
	for _, j := range stuck {
		c.stealJob(ctx, j)
	}
}

// stealJob moves one queued job to the least loaded healthy node if that
// node's queue is strictly shallower than the owner's.
func (c *Coordinator) stealJob(ctx context.Context, j *remoteJob) {
	if !c.acquire(j) {
		return
	}
	defer c.release(j)

	c.mu.Lock()
	owner := j.node
	oldRemote := j.remoteID
	c.mu.Unlock()
	var target *node
	for _, n := range c.nodes {
		if n == owner || !n.healthy.Load() {
			continue
		}
		if target == nil || n.queueDepth.Load() < target.queueDepth.Load() {
			target = n
		}
	}
	if target == nil || target.queueDepth.Load() >= owner.queueDepth.Load() {
		return
	}
	v, err := target.cli.SubmitJob(ctx, j.engine, j.rawParams, j.timeout)
	if err != nil {
		var ae *service.APIError
		if !errors.As(err, &ae) {
			target.errors.Inc()
			target.healthy.Store(false)
		}
		return
	}
	c.assign(j, target, v)
	c.steals.Inc()
	// Best-effort: free the old owner's queue slot. If the job started
	// running in the race window this kills a run whose twin is now
	// queued elsewhere — identical bytes either way.
	owner.cli.Cancel(ctx, oldRemote)
}

// refreshSweep pulls every non-terminal child forward and runs the
// stealing pass. Called on every sweep status/result request — the
// coordinator has no background sweep poller; observation drives
// progress, and the prober covers node death between observations.
func (c *Coordinator) refreshSweep(ctx context.Context, sw *service.SweepRecord[*remoteJob]) {
	c.mu.Lock()
	pending := make([]*remoteJob, 0, len(sw.Children))
	for _, j := range sw.Children {
		if !j.Settled() {
			pending = append(pending, j)
		}
	}
	c.mu.Unlock()
	for _, j := range pending {
		c.refreshJob(ctx, j)
	}
	c.stealStragglers(ctx, sw)
}
