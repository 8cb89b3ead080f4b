package cluster

// The coordinator's HTTP surface: the same /v1 API a single node serves
// (so every client — fastctl, the Go client, curl — is oblivious to
// sharding), plus GET /v1/cluster for topology. Progress is
// observation-driven: status/result requests refresh the referenced work
// from its owner node; the background prober covers node death between
// observations. Response framing deliberately mirrors internal/service
// byte for byte (same structs, same encoder, same trailing newline), so a
// coordinator sweep aggregation is byte-identical to a single node's.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
)

func (c *Coordinator) routes() {
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmitJob)
	c.mux.HandleFunc("GET /v1/jobs", c.handleListJobs)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleJobStatus)
	c.mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleJobResult)
	c.mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleJobCancel)
	c.mux.HandleFunc("POST /v1/sweeps", c.handleSubmitSweep)
	c.mux.HandleFunc("GET /v1/sweeps", c.handleListSweeps)
	c.mux.HandleFunc("GET /v1/sweeps/{id}", c.handleSweepStatus)
	c.mux.HandleFunc("GET /v1/sweeps/{id}/result", c.handleSweepResult)
	c.mux.HandleFunc("GET /v1/engines", c.handleEngines)
	c.mux.HandleFunc("GET /v1/cluster", c.handleClusterView)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
}

// writeErr maps an error to the envelope. A node's *APIError passes
// through with its status and code (the coordinator is transparent to
// node-side rejections); anything else is a node_unavailable 503 — the
// caller should retry after the prober has had a chance to act.
func (c *Coordinator) writeErr(w http.ResponseWriter, err error) {
	var ae *client.APIError
	if errors.As(err, &ae) {
		service.WriteAPIError(w, ae.Status, service.ErrorBody{
			Code: ae.Code, Message: ae.Message, RetryAfterSec: ae.RetryAfterSec,
		})
		return
	}
	service.WriteAPIError(w, http.StatusServiceUnavailable, service.ErrorBody{
		Code:          service.CodeNodeUnavailable,
		Message:       fmt.Sprintf("node rpc failed: %v", err),
		RetryAfterSec: int(c.cfg.ProbeInterval/time.Second) + 1,
	})
}

func badParams(w http.ResponseWriter, msg string) {
	service.WriteAPIError(w, http.StatusBadRequest, service.ErrorBody{Code: service.CodeBadParams, Message: msg})
}

// decodeBody strictly decodes a bounded JSON request body, mirroring the
// node-side boundary (same limits, same rejections).
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		badParams(w, fmt.Sprintf("decode request: %v", err))
		return false
	}
	if dec.More() {
		badParams(w, "trailing data after JSON body")
		return false
	}
	return true
}

// mintJob allocates a coordinator job id and its tracking record (not yet
// published to c.jobs — publication happens after placement succeeds, so
// a rejected submission never becomes a visible ghost).
func (c *Coordinator) mintJob(engine string, rawParams json.RawMessage, p sim.Params, timeoutMS int64) *remoteJob {
	c.mu.Lock()
	c.seq++
	j := &remoteJob{
		id:        fmt.Sprintf("job-%06d", c.seq),
		seq:       c.seq,
		engine:    engine,
		rawParams: rawParams,
		timeoutMS: timeoutMS,
		submitted: time.Now(),
	}
	c.mu.Unlock()
	j.key = service.JobKey(engine, p)
	return j
}

// publishJob records a placed job under the coordinator's id.
func (c *Coordinator) publishJob(j *remoteJob, n *node, v service.JobView) {
	c.mu.Lock()
	j.node = n
	j.remoteID = v.ID
	j.assigned = time.Now()
	v.ID = j.id
	j.view = v
	j.terminal = service.Terminal(v.Status) && v.Status != service.StatusDone
	c.jobs[j.id] = j
	c.mu.Unlock()
}

func (c *Coordinator) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req service.JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	p, err := sim.DecodeParams(req.Params)
	if err != nil {
		badParams(w, err.Error())
		return
	}
	// Validate locally before burning a node round trip: the coordinator
	// runs the same binary as its nodes, so the registry and the Params
	// rules are authoritative here too.
	if !sim.Registered(req.Engine) {
		service.WriteAPIError(w, http.StatusBadRequest, service.ErrorBody{
			Code:    service.CodeUnknownEngine,
			Message: fmt.Sprintf("unknown engine %q (registered: %v)", req.Engine, sim.Names()),
		})
		return
	}
	if err := p.Validate(); err != nil {
		badParams(w, err.Error())
		return
	}
	j := c.mintJob(req.Engine, req.Params, p, req.TimeoutMS)
	v, n, perr := c.place(r.Context(), j, nil)
	if perr != nil {
		c.writeErr(w, perr)
		return
	}
	c.publishJob(j, n, v)
	if v.Status == service.StatusDone {
		// Placed straight onto a cache hit: pull the bytes while the node
		// is known alive.
		if raw, ok, err := n.cli.JobResult(r.Context(), j.remoteID); err == nil && ok {
			c.storeView(j, j.viewSnapshot(c), raw, true)
		}
	}
	c.mu.Lock()
	out := j.view
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusAccepted, out)
}

// viewSnapshot reads j.view under the coordinator lock (helper for the
// submit fast path above).
func (j *remoteJob) viewSnapshot(c *Coordinator) service.JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return j.view
}

func (c *Coordinator) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req service.SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	points := req.Sweep.Points()
	if len(points) == 0 {
		badParams(w, "sweep expands to zero points")
		return
	}
	for i, pt := range points {
		if !sim.Registered(pt.Engine) {
			service.WriteAPIError(w, http.StatusBadRequest, service.ErrorBody{
				Code:    service.CodeUnknownEngine,
				Message: fmt.Sprintf("point %d: unknown engine %q", i, pt.Engine),
			})
			return
		}
		if err := pt.Params.Validate(); err != nil {
			badParams(w, fmt.Sprintf("point %d (%s): %v", i, pt, err))
			return
		}
	}

	// Mint the whole id block first — sweep id, then children in spec
	// order — exactly the sequence a single node would produce, so ids
	// (and therefore aggregations) match a single-node run byte for byte.
	c.mu.Lock()
	c.seq++
	sw := &remoteSweep{
		id:        fmt.Sprintf("sweep-%06d", c.seq),
		seq:       c.seq,
		submitted: time.Now(),
		points:    points,
		children:  make([]*remoteJob, len(points)),
	}
	for i, pt := range points {
		c.seq++
		sw.children[i] = &remoteJob{
			id:        fmt.Sprintf("job-%06d", c.seq),
			seq:       c.seq,
			engine:    pt.Engine,
			timeoutMS: req.TimeoutMS,
			submitted: sw.submitted,
		}
	}
	c.mu.Unlock()
	for i, pt := range points {
		j := sw.children[i]
		raw, err := json.Marshal(pt.Params)
		if err != nil {
			badParams(w, fmt.Sprintf("point %d (%s): %v", i, pt, err))
			return
		}
		j.rawParams = raw
		j.key = service.JobKey(pt.Engine, pt.Params)
	}

	// Place children in spec order. Sweep admission is all-or-nothing on a
	// single node; across nodes the closest honest equivalent is rollback:
	// any placement failure cancels the already-placed children and
	// rejects the sweep without publishing it.
	placed := make([]*node, len(points))
	views := make([]service.JobView, len(points))
	for i := range points {
		v, n, err := c.place(r.Context(), sw.children[i], nil)
		if err != nil {
			for k := 0; k < i; k++ {
				placed[k].cli.Cancel(r.Context(), views[k].ID)
			}
			c.writeErr(w, err)
			return
		}
		placed[i], views[i] = n, v
	}
	c.mu.Lock()
	for i, j := range sw.children {
		j.node = placed[i]
		j.remoteID = views[i].ID
		j.assigned = time.Now()
		v := views[i]
		v.ID = j.id
		j.view = v
		j.terminal = service.Terminal(v.Status) && v.Status != service.StatusDone
		c.jobs[j.id] = j
	}
	c.sweeps[sw.id] = sw
	out := c.sweepViewLocked(sw)
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusAccepted, out)
}

// sweepViewLocked assembles the service.SweepView of a sharded sweep from
// the children's last-known views. Caller holds c.mu.
func (c *Coordinator) sweepViewLocked(sw *remoteSweep) service.SweepView {
	v := service.SweepView{
		ID:          sw.id,
		Total:       len(sw.children),
		ByStatus:    map[string]int{},
		JobIDs:      make([]string, len(sw.children)),
		SubmittedAt: sw.submitted,
	}
	terminal := 0
	for i, j := range sw.children {
		v.JobIDs[i] = j.id
		v.ByStatus[j.view.Status]++
		if j.view.Cached {
			v.Cached++
		}
		if j.terminal {
			terminal++
		}
	}
	v.Status = service.StatusRunning
	if terminal == len(sw.children) {
		v.Status = service.StatusDone
	}
	return v
}

func (c *Coordinator) lookupJob(w http.ResponseWriter, r *http.Request) (*remoteJob, bool) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		service.WriteAPIError(w, http.StatusNotFound, service.ErrorBody{
			Code: service.CodeNotFound, Message: fmt.Sprintf("no job %q", r.PathValue("id")),
		})
	}
	return j, ok
}

func (c *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupJob(w, r)
	if !ok {
		return
	}
	c.refreshJob(r.Context(), j)
	c.mu.Lock()
	v := j.view
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, v)
}

func (c *Coordinator) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupJob(w, r)
	if !ok {
		return
	}
	c.refreshJob(r.Context(), j)
	c.mu.Lock()
	v, raw, terminal := j.view, j.raw, j.terminal
	c.mu.Unlock()
	switch {
	case terminal && v.Status == service.StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(raw)
		w.Write([]byte("\n"))
	case terminal:
		service.WriteAPIError(w, http.StatusConflict, service.ErrorBody{
			Code:    service.CodeConflict,
			Message: fmt.Sprintf("job %s %s: %s", j.id, v.Status, v.Error),
		})
	default:
		service.WriteJSON(w, http.StatusAccepted, v)
	}
}

func (c *Coordinator) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupJob(w, r)
	if !ok {
		return
	}
	c.refreshJob(r.Context(), j)
	c.mu.Lock()
	terminal, v, n, rid := j.terminal, j.view, j.node, j.remoteID
	c.mu.Unlock()
	if terminal {
		service.WriteAPIError(w, http.StatusConflict, service.ErrorBody{
			Code: service.CodeConflict, Message: fmt.Sprintf("job %s already %s", j.id, v.Status),
		})
		return
	}
	if n != nil {
		rv, err := n.cli.Cancel(r.Context(), rid)
		if err == nil {
			c.storeView(j, rv, nil, service.Terminal(rv.Status))
			c.mu.Lock()
			out := j.view
			c.mu.Unlock()
			service.WriteJSON(w, http.StatusOK, out)
			return
		}
		var ae *client.APIError
		if errors.As(err, &ae) {
			if ae.Code == service.CodeConflict {
				// Raced to terminal on the node; report conflict in the
				// coordinator's terms.
				c.refreshJob(r.Context(), j)
				c.mu.Lock()
				st := j.view.Status
				c.mu.Unlock()
				service.WriteAPIError(w, http.StatusConflict, service.ErrorBody{
					Code: service.CodeConflict, Message: fmt.Sprintf("job %s already %s", j.id, st),
				})
				return
			}
			c.writeErr(w, err)
			return
		}
		// The owner is unreachable: honor the user's intent locally — the
		// job terminates canceled and will never be reassigned.
		n.errors.Inc()
		n.healthy.Store(false)
	}
	v.Status = service.StatusCanceled
	v.Error = "canceled; owning node unreachable"
	v.FinishedAt = time.Now()
	c.storeView(j, v, nil, true)
	c.mu.Lock()
	out := j.view
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, out)
}

func (c *Coordinator) lookupSweep(w http.ResponseWriter, r *http.Request) (*remoteSweep, bool) {
	c.mu.Lock()
	sw, ok := c.sweeps[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		service.WriteAPIError(w, http.StatusNotFound, service.ErrorBody{
			Code: service.CodeNotFound, Message: fmt.Sprintf("no sweep %q", r.PathValue("id")),
		})
	}
	return sw, ok
}

func (c *Coordinator) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := c.lookupSweep(w, r)
	if !ok {
		return
	}
	c.refreshSweep(r.Context(), sw)
	c.mu.Lock()
	v := c.sweepViewLocked(sw)
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, v)
}

func (c *Coordinator) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	sw, ok := c.lookupSweep(w, r)
	if !ok {
		return
	}
	c.refreshSweep(r.Context(), sw)
	c.mu.Lock()
	v := c.sweepViewLocked(sw)
	if v.Status != service.StatusDone {
		c.mu.Unlock()
		service.WriteJSON(w, http.StatusAccepted, v)
		return
	}
	out := service.SweepResults{ID: sw.id, Results: make([]service.SweepResult, len(sw.children))}
	for i, j := range sw.children {
		out.Results[i] = service.SweepResult{
			Index:  i,
			JobID:  j.id,
			Point:  sw.points[i].String(),
			Cached: j.view.Cached,
			Result: json.RawMessage(j.raw),
			Error:  j.view.Error,
		}
	}
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleListJobs(w http.ResponseWriter, r *http.Request) {
	status, limit, afterSeq, err := service.ParseListQuery(r.URL.Query(), service.KnownStatus)
	if err != nil {
		badParams(w, err.Error())
		return
	}
	type row struct {
		seq  uint64
		view service.JobView
	}
	c.mu.Lock()
	rows := make([]row, 0, len(c.jobs))
	for _, j := range c.jobs {
		if afterSeq != 0 && j.seq >= afterSeq {
			continue
		}
		if status != "" && j.view.Status != status {
			continue
		}
		rows = append(rows, row{seq: j.seq, view: j.view})
	}
	c.mu.Unlock()
	sort.Slice(rows, func(i, k int) bool { return rows[i].seq > rows[k].seq })
	out := service.JobList{Jobs: []service.JobView{}}
	for i, rw := range rows {
		if i == limit {
			out.NextAfter = out.Jobs[len(out.Jobs)-1].ID
			break
		}
		out.Jobs = append(out.Jobs, rw.view)
	}
	service.WriteJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	status, limit, afterSeq, err := service.ParseListQuery(r.URL.Query(), func(s string) bool {
		return s == service.StatusRunning || s == service.StatusDone
	})
	if err != nil {
		badParams(w, err.Error())
		return
	}
	type row struct {
		seq  uint64
		view service.SweepView
	}
	c.mu.Lock()
	rows := make([]row, 0, len(c.sweeps))
	for _, sw := range c.sweeps {
		if afterSeq != 0 && sw.seq >= afterSeq {
			continue
		}
		v := c.sweepViewLocked(sw)
		if status != "" && v.Status != status {
			continue
		}
		rows = append(rows, row{seq: sw.seq, view: v})
	}
	c.mu.Unlock()
	sort.Slice(rows, func(i, k int) bool { return rows[i].seq > rows[k].seq })
	out := service.SweepList{Sweeps: []service.SweepView{}}
	for i, rw := range rows {
		if i == limit {
			out.NextAfter = out.Sweeps[len(out.Sweeps)-1].ID
			break
		}
		out.Sweeps = append(out.Sweeps, rw.view)
	}
	service.WriteJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleEngines(w http.ResponseWriter, r *http.Request) {
	// Same binary as the nodes, so the local registry is authoritative —
	// no fan-out needed.
	var out []service.EngineView
	for _, name := range sim.Names() {
		eng, err := sim.New(name, sim.Params{Workload: "164.gzip"})
		if err != nil {
			service.WriteAPIError(w, http.StatusInternalServerError,
				service.ErrorBody{Code: service.CodeInternal, Message: err.Error()})
			return
		}
		out = append(out, service.EngineView{Name: name, Description: eng.Describe()})
	}
	service.WriteJSON(w, http.StatusOK, out)
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

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.tel.Metrics.WritePrometheus(w)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	depth := 0
	for _, n := range c.nodes {
		depth += int(n.queueDepth.Load())
	}
	service.WriteJSON(w, http.StatusOK, service.Health{Status: "ok", QueueDepth: depth})
}
