package cluster

// The coordinator as a service.Backend: the v1 surface itself (routes,
// decoding, validation, envelopes, framing, aggregation, pagination) lives
// once in internal/service and calls these methods, so every client —
// fastctl, the Go client, curl — is oblivious to sharding; only GET
// /v1/cluster, the topology view, is mounted here. Progress is
// observation-driven: Job and Sweep refresh the referenced work from its
// owner node before answering; the background prober covers node death
// between observations. No method holds c.mu across a node RPC.
//
// What keeps a coordinator sweep byte-identical to a single node's, now
// that the framing is shared code: ids are minted in the order a node
// would mint them, and result bytes are the worker's, stored and served
// verbatim.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

var _ service.Backend = (*Coordinator)(nil)

// Telemetry implements service.Backend.
func (c *Coordinator) Telemetry() *obs.Telemetry { return c.tel }

// Health implements service.Backend: the coordinator is up whenever it
// answers; the depth is the sum of the nodes' last probed queue depths.
func (c *Coordinator) Health() service.Health {
	h := service.Health{Status: "ok"}
	for _, n := range c.nodes {
		h.QueueDepth += int(n.queueDepth.Load())
	}
	return h
}

// mintLocked allocates the next coordinator job id and its tracking record
// for one point. The record is not yet in c.jobs — publication happens
// after placement succeeds, so a rejected submission never becomes a
// visible ghost. Caller holds c.mu.
func (c *Coordinator) mintLocked(pt sim.Point, timeout time.Duration) (*remoteJob, error) {
	raw, err := json.Marshal(pt.Params)
	if err != nil {
		return nil, fmt.Errorf("encode params of %s: %w", pt, err)
	}
	c.seq++
	return &remoteJob{
		id:        fmt.Sprintf("job-%06d", c.seq),
		engine:    pt.Engine,
		rawParams: raw,
		key:       service.JobKey(pt.Engine, pt.Params),
		timeout:   timeout,
	}, nil
}

// lookup resolves a coordinator job id.
func (c *Coordinator) lookup(id string) (*remoteJob, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, service.NotFound("job", id)
	}
	return j, nil
}

// SubmitJob implements service.Backend.
func (c *Coordinator) SubmitJob(ctx context.Context, pt sim.Point, timeout time.Duration) (service.JobView, error) {
	c.mu.Lock()
	j, err := c.mintLocked(pt, timeout)
	c.mu.Unlock()
	if err != nil {
		return service.JobView{}, err
	}
	if err := c.place(ctx, j, nil); err != nil {
		return service.JobView{}, err
	}
	c.pullPlaced(ctx, j)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobs[j.id] = j
	return j.view, nil
}

// Job implements service.Backend.
func (c *Coordinator) Job(ctx context.Context, id string) (service.JobState, error) {
	j, err := c.lookup(id)
	if err != nil {
		return service.JobState{}, err
	}
	c.refreshJob(ctx, j)
	c.mu.Lock()
	defer c.mu.Unlock()
	return j.state(), nil
}

// Jobs implements service.Backend.
func (c *Coordinator) Jobs() []service.JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]service.JobView, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, j.view)
	}
	return out
}

// CancelJob implements service.Backend.
func (c *Coordinator) CancelJob(ctx context.Context, id string) (service.JobView, error) {
	j, err := c.lookup(id)
	if err != nil {
		return service.JobView{}, err
	}
	// current refreshes j and reports where it stands now.
	current := func() (st service.JobState, n *node, rid string) {
		c.refreshJob(ctx, j)
		c.mu.Lock()
		defer c.mu.Unlock()
		return j.state(), j.node, j.remoteID
	}
	conflict := func(st service.JobState) error {
		return service.Errorf(http.StatusConflict, service.CodeConflict, "job %s already %s", id, st.View.Status)
	}
	st, n, rid := current()
	if st.Settled() {
		return service.JobView{}, conflict(st)
	}
	rv, err := n.cli.Cancel(ctx, rid)
	if err == nil {
		return c.storeView(j, rv, nil), nil
	}
	var ae *service.APIError
	if errors.As(err, &ae) {
		if ae.Code != service.CodeConflict {
			return service.JobView{}, err
		}
		// Raced to terminal on the node; report conflict in the
		// coordinator's terms.
		st, _, _ = current()
		return service.JobView{}, conflict(st)
	}
	// The owner is unreachable: honor the user's intent locally — the job
	// terminates canceled and will never be reassigned.
	n.errors.Inc()
	n.healthy.Store(false)
	v := st.View
	v.Status = service.StatusCanceled
	v.Error = "canceled; owning node unreachable"
	v.FinishedAt = time.Now()
	return c.storeView(j, v, nil), nil
}

// SubmitSweep implements service.Backend.
func (c *Coordinator) SubmitSweep(ctx context.Context, points []sim.Point, timeout time.Duration) (service.SweepState, error) {
	// Mint the whole id block first — sweep id, then children in spec
	// order — exactly the sequence a single node would produce, so ids
	// (and therefore aggregations) match a single-node run byte for byte.
	c.mu.Lock()
	c.seq++
	sw := &remoteSweep{
		id:        fmt.Sprintf("sweep-%06d", c.seq),
		submitted: time.Now(),
		points:    points,
		children:  make([]*remoteJob, len(points)),
	}
	for i, pt := range points {
		j, err := c.mintLocked(pt, timeout)
		if err != nil {
			c.mu.Unlock()
			return service.SweepState{}, err
		}
		sw.children[i] = j
	}
	c.mu.Unlock()

	// Place children in spec order. Sweep admission is all-or-nothing on a
	// single node; across nodes the closest honest equivalent is rollback:
	// any placement failure cancels the already-placed children and
	// rejects the sweep without publishing it.
	for i, j := range sw.children {
		if err := c.place(ctx, j, nil); err != nil {
			for _, prev := range sw.children[:i] {
				prev.node.cli.Cancel(ctx, prev.remoteID)
			}
			return service.SweepState{}, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range sw.children {
		c.jobs[j.id] = j
	}
	c.sweeps[sw.id] = sw
	return sw.state(), nil
}

// Sweep implements service.Backend.
func (c *Coordinator) Sweep(ctx context.Context, id string) (service.SweepState, error) {
	c.mu.Lock()
	sw, ok := c.sweeps[id]
	c.mu.Unlock()
	if !ok {
		return service.SweepState{}, service.NotFound("sweep", id)
	}
	c.refreshSweep(ctx, sw)
	c.mu.Lock()
	defer c.mu.Unlock()
	return sw.state(), nil
}

// Sweeps implements service.Backend.
func (c *Coordinator) Sweeps() []service.SweepState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]service.SweepState, 0, len(c.sweeps))
	for _, sw := range c.sweeps {
		out = append(out, sw.state())
	}
	return out
}

// NodeView is one worker in the GET /v1/cluster topology.
type NodeView struct {
	Name          string `json:"name"`
	Healthy       bool   `json:"healthy"`
	QueueDepth    int64  `json:"queue_depth"` // from the last successful probe
	Jobs          uint64 `json:"jobs"`        // placements (initial + reassigned + stolen-to)
	Errors        uint64 `json:"errors"`      // failed RPCs (transport or rejection)
	ProbeFailures uint64 `json:"probe_failures"`
}

// View is the GET /v1/cluster topology body.
type View struct {
	Nodes         []NodeView `json:"nodes"`
	Jobs          int        `json:"jobs"`   // coordinator-tracked jobs
	Sweeps        int        `json:"sweeps"` // coordinator-tracked sweeps
	Reassignments uint64     `json:"reassignments"`
	Steals        uint64     `json:"steals"`
}

func (c *Coordinator) handleClusterView(w http.ResponseWriter, r *http.Request) {
	v := View{
		Reassignments: c.reassignments.Value(),
		Steals:        c.steals.Value(),
	}
	for _, n := range c.nodes {
		v.Nodes = append(v.Nodes, NodeView{
			Name:          n.name,
			Healthy:       n.healthy.Load(),
			QueueDepth:    n.queueDepth.Load(),
			Jobs:          n.jobs.Value(),
			Errors:        n.errors.Value(),
			ProbeFailures: n.probeFailures.Value(),
		})
	}
	c.mu.Lock()
	v.Jobs, v.Sweeps = len(c.jobs), len(c.sweeps)
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, v)
}
