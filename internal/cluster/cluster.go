// Package cluster shards the fastd /v1 API across worker nodes: a
// coordinator (fastd -coordinator -nodes host1,host2,...) that speaks the
// exact same HTTP surface as a single node, but places every job on a
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
	"repro/internal/sim"
)

// Config wires a Coordinator. Nodes is the only required field.
type Config struct {
	// Nodes are the worker base URLs ("http://host:8080"). The node name
	// (the URL) is its rendezvous identity: keep it stable across
	// restarts or the key space reshuffles.
	Nodes []string
	// ProbeInterval spaces the health probes; <= 0 means 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe; <= 0 means 2s.
	ProbeTimeout time.Duration
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

	mu     sync.Mutex
	seq    uint64
	jobs   map[string]*remoteJob
	sweeps map[string]*remoteSweep

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

// remoteJob is a coordinator-tracked job: a coordinator-minted id mapped
// to (node, remote id). All fields are guarded by the coordinator's mu;
// busy serializes the RPC-bearing operations (refresh, reassign, steal)
// per job so two pollers never race a reassignment.
type remoteJob struct {
	id        string // coordinator id (job-%06d), what clients see
	seq       uint64
	engine    string
	rawParams json.RawMessage // forwarded verbatim on every (re)submission
	key       string          // shard key: service.JobKey(engine, params)
	timeoutMS int64
	submitted time.Time

	node     *node  // current owner (nil only before first placement)
	remoteID string // the owner's id for this job
	assigned time.Time

	busy      bool
	view      service.JobView // last known view, ID rewritten to coordinator id
	terminal  bool            // view is final and raw (for done) is resident
	raw       []byte          // result bytes, pulled eagerly at completion
	reassigns int
}

// remoteSweep is a sharded sim.Sweep: coordinator-minted sweep id plus
// children in spec order, placed independently by their shard keys.
type remoteSweep struct {
	id        string
	seq       uint64
	submitted time.Time
	points    []sim.Point
	children  []*remoteJob
}

// New builds a coordinator over cfg.Nodes and starts the prober.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
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
		jobs:          map[string]*remoteJob{},
		sweeps:        map[string]*remoteSweep{},
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
	c.mux = http.NewServeMux()
	c.routes()
	c.probers.Add(1)
	go c.probeLoop()
	return c, nil
}

// Handler returns the coordinator's HTTP surface (the same /v1 API a
// single node serves, plus GET /v1/cluster).
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

// place submits j to the best available node (in rendezvous order,
// excluding skip), marking nodes that fail transport as unhealthy along
// the way. Returns the accepting node's job view. Caller must hold j.busy
// (or exclusive ownership of a job not yet published).
func (c *Coordinator) place(ctx context.Context, j *remoteJob, skip *node) (service.JobView, *node, error) {
	var lastErr error
	for _, n := range c.candidates(j.key, skip) {
		v, err := n.cli.SubmitJob(ctx, j.engine, j.rawParams, time.Duration(j.timeoutMS)*time.Millisecond)
		if err == nil {
			n.jobs.Inc()
			return v, n, nil
		}
		lastErr = err
		var ae *client.APIError
		if !errors.As(err, &ae) {
			// Transport failure: the node is gone until a probe revives it.
			n.errors.Inc()
			n.healthy.Store(false)
			continue
		}
		n.errors.Inc()
		if ae.Status == 429 || ae.Status == 503 {
			// Backpressure: spill to the next node in rendezvous order.
			continue
		}
		// A live node rejected the job itself (bad params, unknown
		// engine): every node shares the registry, so propagate.
		return service.JobView{}, nil, err
	}
	if lastErr == nil {
		lastErr = &client.APIError{Status: 503, Code: service.CodeNodeUnavailable,
			Message: "no healthy node available", RetryAfterSec: int(c.cfg.ProbeInterval/time.Second) + 1}
	}
	return service.JobView{}, nil, lastErr
}

// acquire marks j busy for an RPC-bearing operation. Returns false when j
// is already terminal or another operation owns it.
func (c *Coordinator) acquire(j *remoteJob) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j.terminal || j.busy {
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
	if n == nil {
		c.reassign(ctx, j, nil)
		return
	}

	v, err := n.cli.Job(ctx, rid)
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) {
			n.errors.Inc()
			if ae.Code == service.CodeNotFound {
				// The node restarted and lost the job: run it again.
				c.reassign(ctx, j, nil)
			}
			return
		}
		n.errors.Inc()
		n.healthy.Store(false)
		c.reassign(ctx, j, n)
		return
	}

	var raw []byte
	if v.Status == service.StatusDone {
		res, ok, rerr := n.cli.JobResult(ctx, rid)
		if rerr != nil || !ok {
			// Couldn't pull the bytes yet; stay non-terminal and retry on
			// the next poll (or reassign if the node died in between).
			c.storeView(j, v, nil, false)
			return
		}
		raw = res
	}
	c.storeView(j, v, raw, service.Terminal(v.Status))
}

// storeView records the latest remote view under mu, rewriting the id to
// the coordinator's.
func (c *Coordinator) storeView(j *remoteJob, v service.JobView, raw []byte, terminal bool) {
	v.ID = j.id
	c.mu.Lock()
	j.view = v
	if raw != nil {
		j.raw = raw
	}
	if terminal {
		j.terminal = true
	}
	c.mu.Unlock()
}

// reassign moves j to the best node excluding failed (nil = just place it
// again). Caller must hold j.busy. No-op when no healthy node remains —
// the next probe or poll retries.
func (c *Coordinator) reassign(ctx context.Context, j *remoteJob, failed *node) {
	v, n, err := c.place(ctx, j, failed)
	if err != nil {
		return
	}
	remoteID := v.ID
	c.mu.Lock()
	j.node = n
	j.remoteID = remoteID
	j.assigned = time.Now()
	j.reassigns++
	v.ID = j.id
	j.view = v
	terminal := service.Terminal(v.Status)
	c.mu.Unlock()
	c.reassignments.Inc()
	if terminal {
		// Placed straight into a cache hit: pull the bytes now.
		if raw, ok, err := n.cli.JobResult(ctx, remoteID); err == nil && ok {
			c.mu.Lock()
			j.raw = raw
			j.terminal = true
			c.mu.Unlock()
		}
	}
}

// reassignNode re-places every non-terminal job owned by n — the
// probe-failure path.
func (c *Coordinator) reassignNode(n *node) {
	c.mu.Lock()
	var victims []*remoteJob
	for _, j := range c.jobs {
		if j.node == n && !j.terminal && !j.busy {
			victims = append(victims, j)
		}
	}
	c.mu.Unlock()
	for _, j := range victims {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
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
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
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
func (c *Coordinator) stealStragglers(ctx context.Context, sw *remoteSweep) {
	c.mu.Lock()
	var stuck []*remoteJob
	for _, j := range sw.children {
		if !j.terminal && !j.busy && j.node != nil &&
			j.view.Status == service.StatusQueued &&
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
	if owner == nil {
		return
	}
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
	v, err := target.cli.SubmitJob(ctx, j.engine, j.rawParams, time.Duration(j.timeoutMS)*time.Millisecond)
	if err != nil {
		var ae *client.APIError
		if !errors.As(err, &ae) {
			target.errors.Inc()
			target.healthy.Store(false)
		}
		return
	}
	target.jobs.Inc()
	c.steals.Inc()
	c.mu.Lock()
	j.node = target
	j.remoteID = v.ID
	j.assigned = time.Now()
	j.reassigns++
	v.ID = j.id
	j.view = v
	c.mu.Unlock()
	// Best-effort: free the old owner's queue slot. If the job started
	// running in the race window this kills a run whose twin is now
	// queued elsewhere — identical bytes either way.
	owner.cli.Cancel(ctx, oldRemote)
}

// refreshSweep pulls every non-terminal child forward and runs the
// stealing pass. Called on every sweep status/result request — the
// coordinator has no background sweep poller; observation drives
// progress, and the prober covers node death between observations.
func (c *Coordinator) refreshSweep(ctx context.Context, sw *remoteSweep) {
	c.mu.Lock()
	pending := make([]*remoteJob, 0, len(sw.children))
	for _, j := range sw.children {
		if !j.terminal {
			pending = append(pending, j)
		}
	}
	c.mu.Unlock()
	for _, j := range pending {
		c.refreshJob(ctx, j)
	}
	c.stealStragglers(ctx, sw)
}
