package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Job states. A job is terminal in done, failed or canceled; cached jobs
// are born terminal (done with Cached=true) and never occupy a queue slot.
// Exported: the typed client and the cluster coordinator dispatch on them.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Terminal reports whether status is a resting state (done, failed or
// canceled) from which a job never moves again.
func Terminal(status string) bool {
	switch status {
	case StatusDone, StatusFailed, StatusCanceled:
		return true
	}
	return false
}

// KnownStatus reports whether status names a job state at all — the guard
// behind the ?status= list filter.
func KnownStatus(status string) bool {
	switch status {
	case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled:
		return true
	}
	return false
}

// job is one accepted simulation. Mutable fields are guarded by the
// server's mu; done closes exactly once, at the terminal transition, so
// waiters can block without polling.
type job struct {
	id      string
	seq     uint64 // admission order; the pagination cursor
	engine  string
	params  sim.Params
	key     string // content address; see jobKey
	timeout time.Duration

	tel *obs.Telemetry // per-job registry, served at /v1/jobs/{id}/metrics

	status    string
	cached    bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // non-nil while running
	result    sim.Result
	raw       []byte // canonical result JSON; read-only once set
	errMsg    string

	done chan struct{}
}

// jobKey combines the engine name with the Params content address into the
// cache key. Engines model different cost structures over the same target,
// so the same Params under two engines are two different results. The
// cluster coordinator uses the same key as its shard address, so a point
// always lands on the node whose cache can already hold it.
func jobKey(engine string, p sim.Params) string {
	return engine + "\x00" + p.Key()
}

// JobKey is jobKey for external callers (the cluster coordinator shards on
// it).
func JobKey(engine string, p sim.Params) string { return jobKey(engine, p) }

// JobView is the stable JSON shape of GET /v1/jobs/{id} and the elements
// of GET /v1/jobs.
type JobView struct {
	ID          string    `json:"id"`
	Engine      string    `json:"engine"`
	Status      string    `json:"status"`
	Cached      bool      `json:"cached"`
	Key         string    `json:"key,omitempty"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`  // zero until the job leaves the queue
	FinishedAt  time.Time `json:"finished_at"` // zero until the job is terminal
}

// view snapshots a job under the server lock.
func (s *Server) view(j *job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked(j)
}

func (s *Server) viewLocked(j *job) JobView {
	return JobView{
		ID:          j.id,
		Engine:      j.engine,
		Status:      j.status,
		Cached:      j.cached,
		Key:         j.key,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
}

// submitJob validates, resolves the cache, and either completes the job
// instantly (hit) or enqueues it (miss). The whole step holds mu, so a
// sweep's batch of submissions is atomic with respect to draining and
// queue capacity.
func (s *Server) submitJob(engine string, p sim.Params, timeout time.Duration) (*job, error) {
	if !sim.Registered(engine) {
		s.rejected("invalid").Inc()
		return nil, &httpError{status: 400, code: CodeUnknownEngine,
			msg: fmt.Sprintf("unknown engine %q (registered: %v)", engine, sim.Names())}
	}
	if err := p.Validate(); err != nil {
		s.rejected("invalid").Inc()
		return nil, &httpError{status: 400, code: CodeBadParams, msg: err.Error()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.admitLocked(engine, p, timeout)
	if err != nil {
		return nil, err
	}
	return j, nil
}

// admitLocked is the mu-held core of submission, shared by single jobs and
// sweep fan-out. It never blocks: a full queue is a 429, not a wait.
func (s *Server) admitLocked(engine string, p sim.Params, timeout time.Duration) (*job, error) {
	if s.draining {
		s.rejected("draining").Inc()
		return nil, &httpError{status: 503, code: CodeDraining, retryAfter: 10, msg: "server is draining"}
	}
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		seq:       s.seq,
		engine:    engine,
		params:    p,
		key:       jobKey(engine, p),
		timeout:   timeout,
		tel:       obs.New(),
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if res, raw, ok := s.cache.get(j.key); ok {
		j.status = StatusDone
		j.cached = true
		j.result, j.raw = res, raw
		j.finished = j.submitted
		close(j.done)
		s.jobs[j.id] = j
		s.jobsSubmitted.Inc()
		s.jobsByStatus("cached").Inc()
		return j, nil
	}
	j.status = StatusQueued
	select {
	case s.queue <- j:
	default:
		s.rejected("queue_full").Inc()
		return nil, &httpError{status: 429, code: CodeQueueFull, retryAfter: s.retryAfterSeconds(), msg: "job queue is full"}
	}
	s.jobs[j.id] = j
	s.jobsSubmitted.Inc()
	s.queueDepth.Set(int64(len(s.queue)))
	return j, nil
}

// retryAfterSeconds turns the recent per-job wall-time average into a
// Retry-After hint: with W workers a queue slot frees roughly every
// avg/W seconds. Falls back to 1s before any job has finished.
func (s *Server) retryAfterSeconds() int {
	n := s.jobSeconds.Count()
	if n == 0 {
		return 1
	}
	per := s.jobSeconds.Sum() / float64(n) / float64(s.cfg.Workers)
	if per < 1 {
		return 1
	}
	if per > 60 {
		return 60
	}
	return int(per + 0.5)
}

// worker drains the queue until it is closed and empty (graceful drain).
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.queueDepth.Set(int64(len(s.queue)))
		s.runJob(j)
	}
}

// runJob executes one dequeued job under its deadline and records the
// terminal state. A job canceled while queued is skipped; a key that
// became resident while the job waited (an identical submission finished
// first) is served from cache without an engine run.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.status != StatusQueued {
		s.mu.Unlock()
		return
	}
	if res, raw, ok := s.cache.get(j.key); ok {
		j.status = StatusDone
		j.cached = true
		j.result, j.raw = res, raw
		j.finished = time.Now()
		close(j.done)
		s.jobsByStatus("cached").Inc()
		s.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), j.timeout)
	j.cancel = cancel
	s.mu.Unlock()
	defer cancel()
	s.queueWait.Observe(j.started.Sub(j.submitted).Seconds())

	p := j.params
	if p.Telemetry == nil {
		p.Telemetry = j.tel
	}
	// Warm-start tier: the engine resumes from a stored boot snapshot when
	// one matches, or captures one for the next run of this boot prefix.
	// Never overrides a caller-supplied store.
	if p.Snapshots == nil && s.snaps != nil {
		p.Snapshots = s.snaps
	}
	s.engineRuns.Inc()
	res, err := sim.RunContext(ctx, j.engine, p)
	finished := time.Now()
	s.jobSeconds.Observe(finished.Sub(j.started).Seconds())

	s.mu.Lock()
	defer s.mu.Unlock()
	j.finished = finished
	j.cancel = nil
	switch {
	case err == nil:
		raw, merr := json.Marshal(res)
		if merr != nil {
			j.status = StatusFailed
			j.errMsg = fmt.Sprintf("encode result: %v", merr)
			break
		}
		j.status = StatusDone
		j.result, j.raw = res, raw
		s.cache.put(j.key, res, raw)
	case errors.Is(err, context.DeadlineExceeded):
		j.status = StatusFailed
		j.errMsg = fmt.Sprintf("deadline exceeded after %s: %v", j.timeout, err)
	case errors.Is(err, context.Canceled):
		j.status = StatusCanceled
		j.errMsg = err.Error()
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
	s.jobsByStatus(j.status).Inc()
	close(j.done)
}

// cancelLocked moves a job toward termination: a queued job terminates
// immediately (the worker will skip it), a running job gets its context
// cancelled and terminates when the engine notices. Terminal jobs are
// left alone (reported false).
func (s *Server) cancelLocked(j *job) bool {
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.errMsg = "canceled while queued"
		j.finished = time.Now()
		s.jobsByStatus(StatusCanceled).Inc()
		close(j.done)
		return true
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return true
	}
	return false
}

// sweepJob is one fanned-out sim.Sweep: child jobs in spec order, each an
// ordinary job (cache-resolved or queued) that GET /v1/sweeps/{id}/result
// aggregates back in spec order.
type sweepJob struct {
	id        string
	seq       uint64 // admission order; the pagination cursor
	submitted time.Time
	points    []sim.Point
	children  []*job
}

// SweepView is the stable JSON shape of GET /v1/sweeps/{id} and the
// elements of GET /v1/sweeps.
type SweepView struct {
	ID          string         `json:"id"`
	Status      string         `json:"status"` // running until every child is terminal
	Total       int            `json:"total"`
	ByStatus    map[string]int `json:"by_status"`
	Cached      int            `json:"cached"`
	JobIDs      []string       `json:"job_ids"`
	SubmittedAt time.Time      `json:"submitted_at"`
}

func (s *Server) sweepViewLocked(sw *sweepJob) SweepView {
	v := SweepView{
		ID:          sw.id,
		Total:       len(sw.children),
		ByStatus:    map[string]int{},
		JobIDs:      make([]string, len(sw.children)),
		SubmittedAt: sw.submitted,
	}
	terminal := 0
	for i, j := range sw.children {
		v.JobIDs[i] = j.id
		v.ByStatus[j.status]++
		if j.cached {
			v.Cached++
		}
		if Terminal(j.status) {
			terminal++
		}
	}
	v.Status = StatusRunning
	if terminal == len(sw.children) {
		v.Status = StatusDone
	}
	return v
}

// submitSweep expands the spec and admits every point atomically: either
// the whole sweep is accepted (cache hits resolved, the rest enqueued) or
// nothing is, so a half-admitted sweep can never wedge the queue.
func (s *Server) submitSweep(spec sim.Sweep, timeout time.Duration) (*sweepJob, error) {
	points := spec.Points()
	if len(points) == 0 {
		return nil, &httpError{status: 400, code: CodeBadParams, msg: "sweep expands to zero points"}
	}
	for i, pt := range points {
		if !sim.Registered(pt.Engine) {
			s.rejected("invalid").Inc()
			return nil, &httpError{status: 400, code: CodeUnknownEngine,
				msg: fmt.Sprintf("point %d: unknown engine %q", i, pt.Engine)}
		}
		if err := pt.Params.Validate(); err != nil {
			s.rejected("invalid").Inc()
			return nil, &httpError{status: 400, code: CodeBadParams, msg: fmt.Sprintf("point %d (%s): %v", i, pt, err)}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected("draining").Inc()
		return nil, &httpError{status: 503, code: CodeDraining, retryAfter: 10, msg: "server is draining"}
	}
	// All-or-nothing capacity check: points not already resident must all
	// fit in the queue's free space right now.
	need := 0
	for _, pt := range points {
		if !s.cache.contains(jobKey(pt.Engine, pt.Params)) {
			need++
		}
	}
	if free := cap(s.queue) - len(s.queue); need > free {
		s.rejected("queue_full").Inc()
		return nil, &httpError{status: 429, code: CodeQueueFull, retryAfter: s.retryAfterSeconds(),
			msg: fmt.Sprintf("sweep needs %d queue slots, %d free", need, free)}
	}
	s.seq++
	sw := &sweepJob{
		id:        fmt.Sprintf("sweep-%06d", s.seq),
		seq:       s.seq,
		submitted: time.Now(),
		points:    points,
		children:  make([]*job, len(points)),
	}
	for i, pt := range points {
		j, err := s.admitLocked(pt.Engine, pt.Params, timeout)
		if err != nil {
			// Capacity was checked above; only a concurrent drain could get
			// here, and draining flips under mu — so this is unreachable.
			// Fail closed anyway rather than leak a half-built sweep.
			for _, prev := range sw.children[:i] {
				s.cancelLocked(prev)
			}
			return nil, err
		}
		sw.children[i] = j
	}
	s.sweeps[sw.id] = sw
	s.sweepsTotal.Inc()
	return sw, nil
}

// contains reports residency without touching hit/miss accounting or LRU
// order — the sweep capacity pre-check must not distort cache metrics.
// Memory-resident entries only: a disk-store hit still resolves at admit
// time, the pre-check just stays conservative about queue slots.
func (c *resultCache) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}
