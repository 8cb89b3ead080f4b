package service

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Backend is everything the v1 HTTP surface needs from whatever executes
// the work. The surface itself — routes, strict decoding, validation,
// error envelopes, result framing, sweep aggregation, pagination — is
// written once over it (NewMux); *Server (local queue, worker pool, cache
// tiers) and cluster.Coordinator (placement across worker nodes) are the
// two implementations, so "the coordinator serves the identical surface"
// is a property the compiler checks.
//
// Submissions arrive decoded and validated: every point names a registered
// engine and carries Params that passed Validate. A timeout <= 0 means the
// backend's default. Failures the client should see are *APIError; any
// other error is answered 500 internal. Ids are "job-%06d" / "sweep-%06d"
// over one admission sequence, which is also the listing order. Returned
// views, states and byte slices are snapshots the caller may keep; the
// bytes are read-only.
type Backend interface {
	SubmitJob(ctx context.Context, pt sim.Point, timeout time.Duration) (JobView, error)
	// Job reports one job as of now (a coordinator polls the owner first).
	Job(ctx context.Context, id string) (JobState, error)
	// CancelJob answers conflict for a job that is already terminal.
	CancelJob(ctx context.Context, id string) (JobView, error)
	// Jobs is every tracked job, in any order, without refreshing anything.
	Jobs() []JobView

	// SubmitSweep admits every point or none; children are in spec order.
	SubmitSweep(ctx context.Context, points []sim.Point, timeout time.Duration) (SweepState, error)
	Sweep(ctx context.Context, id string) (SweepState, error)
	Sweeps() []SweepState

	Health() Health
	// Telemetry is the registry GET /metrics dumps.
	Telemetry() *obs.Telemetry
}

// JobState is a job as a Backend reports it: the wire view plus the
// canonical result bytes once they are resident.
type JobState struct {
	View JobView
	Raw  []byte
}

// Settled reports whether the job has reached its resting state as far as
// a client can tell. A done job without resident bytes is not settled: a
// coordinator learns "done" one RPC before it has pulled the result, and a
// sweep aggregated in that window would have a hole in it.
func (j JobState) Settled() bool {
	if j.View.Status == StatusDone {
		return j.Raw != nil
	}
	return Terminal(j.View.Status)
}

// SweepState is a sweep as a Backend reports it: the expanded points and
// one JobState per point, both in spec order.
type SweepState struct {
	ID          string
	SubmittedAt time.Time
	Points      []sim.Point
	Children    []JobState
}

// JobRequest is the POST /v1/jobs body. Params stays raw so the strict
// decode (sim.DecodeParams — unknown fields, trailing data) is the single
// authority for the overlay schema. Exported: the typed client assembles
// the exact same body.
type JobRequest struct {
	Engine    string          `json:"engine"`
	Params    json.RawMessage `json:"params"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

// SweepRequest is the POST /v1/sweeps body.
type SweepRequest struct {
	Sweep     sim.Sweep `json:"sweep"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
}

// SweepResult is one spec-order slot of GET /v1/sweeps/{id}/result.
type SweepResult struct {
	Index  int             `json:"index"`
	JobID  string          `json:"job_id"`
	Point  string          `json:"point"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// SweepResults is the GET /v1/sweeps/{id}/result body: every expanded
// point in spec order.
type SweepResults struct {
	ID      string        `json:"id"`
	Results []SweepResult `json:"results"`
}

// EngineView is one element of GET /v1/engines.
type EngineView struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// WorkloadView is one element of GET /v1/workloads.
type WorkloadView struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// Health is the GET /healthz body; any Status but "ok" answers 503.
type Health struct {
	Status     string `json:"status"` // "ok" | "draining"
	QueueDepth int    `json:"queue_depth"`
}

// api is the v1 handler set over one Backend.
type api struct{ b Backend }

// NewMux mounts the shared v1 surface over b and returns the mux, so a
// backend can add the routes that are genuinely its own (the node's
// per-job metrics and snapshot index, the coordinator's topology view).
// Anything no route matches — an unknown path, a wrong method — answers
// the not_found envelope like every other /v1 failure.
func NewMux(b Backend) *http.ServeMux {
	a := api{b}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.submitJob)
	mux.HandleFunc("GET /v1/jobs", a.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", a.jobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", a.jobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancelJob)
	mux.HandleFunc("POST /v1/sweeps", a.submitSweep)
	mux.HandleFunc("GET /v1/sweeps", a.listSweeps)
	mux.HandleFunc("GET /v1/sweeps/{id}", a.sweepStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", a.sweepResult)
	mux.HandleFunc("GET /v1/engines", a.engines)
	mux.HandleFunc("GET /v1/workloads", a.workloads)
	mux.HandleFunc("GET /metrics", a.metrics)
	mux.HandleFunc("GET /healthz", a.health)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, Errorf(http.StatusNotFound, CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
	})
	return mux
}

// maxBodyBytes bounds request bodies: the largest legitimate submission is
// a sweep spec a few KB long; anything bigger is a client bug or abuse.
const maxBodyBytes = 1 << 20

// invalid writes a bad-submission rejection and counts it in the
// service_jobs_rejected_total family of the backend's registry.
func (a api) invalid(w http.ResponseWriter, err *APIError) {
	a.b.Telemetry().Counter(obs.L("service_jobs_rejected_total", "reason", "invalid")).Inc()
	writeError(w, err)
}

// decodeBody strictly decodes a bounded JSON request body into dst.
func (a api) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		a.invalid(w, Errorf(http.StatusBadRequest, CodeBadParams, "decode request: %v", err))
		return false
	}
	if dec.More() {
		a.invalid(w, Errorf(http.StatusBadRequest, CodeBadParams, "trailing data after JSON body"))
		return false
	}
	return true
}

// checkPoint is the admission check every point passes before a backend
// sees it (so before any queue slot or node round trip is spent on it).
// index < 0 words the rejection for a single job, otherwise for that slot
// of a sweep.
func checkPoint(index int, pt sim.Point) *APIError {
	if !sim.Registered(pt.Engine) {
		if index < 0 {
			return Errorf(http.StatusBadRequest, CodeUnknownEngine, "unknown engine %q (registered: %v)", pt.Engine, sim.Names())
		}
		return Errorf(http.StatusBadRequest, CodeUnknownEngine, "point %d: unknown engine %q", index, pt.Engine)
	}
	if err := pt.Params.Validate(); err != nil {
		if index < 0 {
			return Errorf(http.StatusBadRequest, CodeBadParams, "%v", err)
		}
		return Errorf(http.StatusBadRequest, CodeBadParams, "point %d (%s): %v", index, pt, err)
	}
	return nil
}

func (a api) submitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !a.decodeBody(w, r, &req) {
		return
	}
	p, err := sim.DecodeParams(req.Params)
	if err != nil {
		a.invalid(w, Errorf(http.StatusBadRequest, CodeBadParams, "%v", err))
		return
	}
	pt := sim.Point{Engine: req.Engine, Params: p}
	if bad := checkPoint(-1, pt); bad != nil {
		a.invalid(w, bad)
		return
	}
	v, err := a.b.SubmitJob(r.Context(), pt, time.Duration(req.TimeoutMS)*time.Millisecond)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, v)
}

func (a api) jobStatus(w http.ResponseWriter, r *http.Request) {
	j, err := a.b.Job(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, j.View)
}

// jobResult serves the canonical result JSON — the exact bytes marshaled
// when the run (or its cache ancestor) completed, so identical submissions
// are byte-identical on the wire, through any number of hops.
func (a api) jobResult(w http.ResponseWriter, r *http.Request) {
	j, err := a.b.Job(r.Context(), r.PathValue("id"))
	switch {
	case err != nil:
		writeError(w, err)
	case !j.Settled():
		WriteJSON(w, http.StatusAccepted, j.View)
	case j.View.Status == StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(j.Raw)
		w.Write([]byte("\n"))
	default:
		writeError(w, Errorf(http.StatusConflict, CodeConflict, "job %s %s: %s", j.View.ID, j.View.Status, j.View.Error))
	}
}

func (a api) cancelJob(w http.ResponseWriter, r *http.Request) {
	v, err := a.b.CancelJob(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

func (a api) submitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !a.decodeBody(w, r, &req) {
		return
	}
	points := req.Sweep.Points()
	if len(points) == 0 {
		writeError(w, Errorf(http.StatusBadRequest, CodeBadParams, "sweep expands to zero points"))
		return
	}
	for i, pt := range points {
		if bad := checkPoint(i, pt); bad != nil {
			a.invalid(w, bad)
			return
		}
	}
	sw, err := a.b.SubmitSweep(r.Context(), points, time.Duration(req.TimeoutMS)*time.Millisecond)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, sweepView(sw))
}

func (a api) sweepStatus(w http.ResponseWriter, r *http.Request) {
	sw, err := a.b.Sweep(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, sweepView(sw))
}

// sweepResult aggregates the children's results in spec order once every
// one has settled; until then it answers 202 with the roll-up.
func (a api) sweepResult(w http.ResponseWriter, r *http.Request) {
	sw, err := a.b.Sweep(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if v := sweepView(sw); v.Status != StatusDone {
		WriteJSON(w, http.StatusAccepted, v)
		return
	}
	out := SweepResults{ID: sw.ID, Results: make([]SweepResult, len(sw.Children))}
	for i, j := range sw.Children {
		out.Results[i] = SweepResult{
			Index:  i,
			JobID:  j.View.ID,
			Point:  sw.Points[i].String(),
			Cached: j.View.Cached,
			Result: json.RawMessage(j.Raw),
			Error:  j.View.Error,
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// sweepView rolls the children up into the wire view: running until every
// child has settled.
func sweepView(sw SweepState) SweepView {
	v := SweepView{
		ID:          sw.ID,
		Status:      StatusDone,
		Total:       len(sw.Children),
		ByStatus:    map[string]int{},
		JobIDs:      make([]string, len(sw.Children)),
		SubmittedAt: sw.SubmittedAt,
	}
	for i, j := range sw.Children {
		v.JobIDs[i] = j.View.ID
		v.ByStatus[j.View.Status]++
		if j.View.Cached {
			v.Cached++
		}
		if !j.Settled() {
			v.Status = StatusRunning
		}
	}
	return v
}

func (a api) listJobs(w http.ResponseWriter, r *http.Request) {
	q, err := parseListQuery(r.URL.Query(), KnownStatus)
	if err != nil {
		writeError(w, err)
		return
	}
	jobs, next := page(a.b.Jobs(), q, func(v JobView) (string, string) { return v.ID, v.Status })
	WriteJSON(w, http.StatusOK, JobList{Jobs: jobs, NextAfter: next})
}

func (a api) listSweeps(w http.ResponseWriter, r *http.Request) {
	q, err := parseListQuery(r.URL.Query(), knownSweepStatus)
	if err != nil {
		writeError(w, err)
		return
	}
	states := a.b.Sweeps()
	views := make([]SweepView, len(states))
	for i, sw := range states {
		views[i] = sweepView(sw)
	}
	sweeps, next := page(views, q, func(v SweepView) (string, string) { return v.ID, v.Status })
	WriteJSON(w, http.StatusOK, SweepList{Sweeps: sweeps, NextAfter: next})
}

// engines lists the local registry: a coordinator runs the same binary as
// its nodes, so it is authoritative there too and no fan-out is needed.
func (a api) engines(w http.ResponseWriter, r *http.Request) {
	var out []EngineView
	for _, name := range sim.Names() {
		desc, _ := sim.Describe(name)
		out = append(out, EngineView{Name: name, Description: desc})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (a api) workloads(w http.ResponseWriter, r *http.Request) {
	var out []WorkloadView
	for _, e := range workload.Registry() {
		out = append(out, WorkloadView{Name: e.Name, Description: e.Description})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (a api) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	a.b.Telemetry().Metrics.WritePrometheus(w)
}

func (a api) health(w http.ResponseWriter, r *http.Request) {
	h := a.b.Health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}
