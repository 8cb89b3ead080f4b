package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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

// job is one accepted simulation: its wire state (view and, once done,
// the canonical result bytes, read-only once set) plus what running it
// takes. Mutable fields are guarded by the server's mu.
type job struct {
	JobState
	params  sim.Params
	timeout time.Duration

	tel    *obs.Telemetry     // per-job registry, served at /v1/jobs/{id}/metrics
	cancel context.CancelFunc // non-nil while running
}

// JobKey combines the engine name with the Params content address into the
// cache key. Engines model different cost structures over the same target,
// so the same Params under two engines are two different results. The
// cluster coordinator uses the same key as its shard address, so a point
// always lands on the node whose cache can already hold it.
func JobKey(engine string, p sim.Params) string {
	return engine + "\x00" + p.Key()
}

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

// SubmitJob implements Backend: resolve the cache, and either complete the
// job instantly (hit) or enqueue it (miss).
func (s *Server) SubmitJob(_ context.Context, pt sim.Point, timeout time.Duration) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.admitLocked(pt, timeout)
	if err != nil {
		return JobView{}, err
	}
	return j.View, nil
}

// Job implements Backend.
func (s *Server) Job(_ context.Context, id string) (JobState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.table.Job(id)
	if err != nil {
		return JobState{}, err
	}
	return j.JobState, nil
}

// CancelJob implements Backend.
func (s *Server) CancelJob(_ context.Context, id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.table.Job(id)
	if err != nil {
		return JobView{}, err
	}
	if !s.cancelLocked(j) {
		return JobView{}, Errorf(http.StatusConflict, CodeConflict, "job %s already %s", id, j.View.Status)
	}
	return j.View, nil
}

// Jobs implements Backend.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Jobs()
}

// drainingLocked is the rejection every admission path answers once
// Shutdown has begun (nil before).
func (s *Server) drainingLocked() error {
	if !s.draining {
		return nil
	}
	s.rejected("draining").Inc()
	return &APIError{Status: http.StatusServiceUnavailable, Code: CodeDraining, RetryAfterSec: 10, Message: "server is draining"}
}

// queueFullLocked builds the backpressure rejection.
func (s *Server) queueFullLocked(format string, args ...any) error {
	s.rejected("queue_full").Inc()
	err := Errorf(http.StatusTooManyRequests, CodeQueueFull, format, args...)
	err.RetryAfterSec = s.retryAfterSeconds()
	return err
}

// admitLocked is the mu-held core of submission, shared by single jobs and
// sweep fan-out. It never blocks: a full queue is a 429, not a wait.
func (s *Server) admitLocked(pt sim.Point, timeout time.Duration) (*job, error) {
	if err := s.drainingLocked(); err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	j := &job{
		JobState: JobState{View: JobView{
			ID:          s.table.NextJobID(),
			Engine:      pt.Engine,
			Key:         JobKey(pt.Engine, pt.Params),
			SubmittedAt: time.Now(),
		}},
		params:  pt.Params,
		timeout: timeout,
		tel:     obs.New(),
	}
	if raw, ok := s.cache.get(j.View.Key); ok {
		j.View.Status, j.View.Cached, j.View.FinishedAt, j.Raw = StatusDone, true, j.View.SubmittedAt, raw
		s.table.Add(j)
		s.jobsSubmitted.Inc()
		s.jobsByStatus("cached").Inc()
		return j, nil
	}
	j.View.Status = StatusQueued
	select {
	case s.queue <- j:
	default:
		return nil, s.queueFullLocked("job queue is full")
	}
	s.table.Add(j)
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
	if j.View.Status != StatusQueued {
		s.mu.Unlock()
		return
	}
	if raw, ok := s.cache.get(j.View.Key); ok {
		j.View.Status, j.View.Cached, j.View.FinishedAt, j.Raw = StatusDone, true, time.Now(), raw
		s.jobsByStatus("cached").Inc()
		s.mu.Unlock()
		return
	}
	started := time.Now()
	j.View.Status, j.View.StartedAt = StatusRunning, started
	ctx, cancel := context.WithTimeout(context.Background(), j.timeout)
	j.cancel = cancel
	s.mu.Unlock()
	defer cancel()
	s.queueWait.Observe(started.Sub(j.View.SubmittedAt).Seconds())

	p := j.params
	if p.Telemetry == nil {
		p.Telemetry = j.tel
	}
	// Warm-start tier: the engine resumes from a stored boot snapshot when
	// one matches, or captures one for the next run of this boot prefix.
	// Never overrides a caller-supplied store.
	if p.Snapshots == nil {
		p.Snapshots = s.snaps
	}
	s.engineRuns.Inc()
	res, err := sim.RunContext(ctx, j.View.Engine, p)
	finished := time.Now()
	s.jobSeconds.Observe(finished.Sub(started).Seconds())

	s.mu.Lock()
	defer s.mu.Unlock()
	j.View.FinishedAt = finished
	j.cancel = nil
	switch {
	case err == nil:
		raw, merr := json.Marshal(res)
		if merr != nil {
			j.View.Status, j.View.Error = StatusFailed, fmt.Sprintf("encode result: %v", merr)
			break
		}
		j.View.Status, j.Raw = StatusDone, raw
		s.cache.put(j.View.Key, raw)
	case errors.Is(err, context.DeadlineExceeded):
		j.View.Status, j.View.Error = StatusFailed, fmt.Sprintf("deadline exceeded after %s: %v", j.timeout, err)
	case errors.Is(err, context.Canceled):
		j.View.Status, j.View.Error = StatusCanceled, err.Error()
	default:
		j.View.Status, j.View.Error = StatusFailed, err.Error()
	}
	s.jobsByStatus(j.View.Status).Inc()
}

// cancelLocked moves a job toward termination: a queued job terminates
// immediately (the worker will skip it), a running job gets its context
// cancelled and terminates when the engine notices. Terminal jobs are
// left alone (reported false).
func (s *Server) cancelLocked(j *job) bool {
	switch j.View.Status {
	case StatusQueued:
		j.View.Status, j.View.Error, j.View.FinishedAt = StatusCanceled, "canceled while queued", time.Now()
		s.jobsByStatus(StatusCanceled).Inc()
		return true
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return true
	}
	return false
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

// SubmitSweep implements Backend, admitting every point atomically: either
// the whole sweep is accepted (cache hits resolved, the rest enqueued) or
// nothing is, so a half-admitted sweep can never wedge the queue. Each
// child is an ordinary job that GET /v1/sweeps/{id}/result aggregates back
// in spec order.
func (s *Server) SubmitSweep(_ context.Context, points []sim.Point, timeout time.Duration) (SweepState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.drainingLocked(); err != nil {
		return SweepState{}, err
	}
	// All-or-nothing capacity check: points not already resident must all
	// fit in the queue's free space right now.
	need := 0
	for _, pt := range points {
		if !s.cache.contains(JobKey(pt.Engine, pt.Params)) {
			need++
		}
	}
	if free := cap(s.queue) - len(s.queue); need > free {
		return SweepState{}, s.queueFullLocked("sweep needs %d queue slots, %d free", need, free)
	}
	sw := s.table.NewSweep(points)
	for i, pt := range points {
		j, err := s.admitLocked(pt, timeout)
		if err != nil {
			// Capacity was checked above; only a concurrent drain could get
			// here, and draining flips under mu — so this is unreachable.
			// Fail closed anyway rather than leak a half-built sweep.
			for _, prev := range sw.Children[:i] {
				s.cancelLocked(prev)
			}
			return SweepState{}, err
		}
		sw.Children[i] = j
	}
	s.table.AddSweep(sw)
	s.sweepsTotal.Inc()
	return sw.State(), nil
}

// Sweep implements Backend.
func (s *Server) Sweep(_ context.Context, id string) (SweepState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, err := s.table.Sweep(id)
	if err != nil {
		return SweepState{}, err
	}
	return sw.State(), nil
}

// Sweeps implements Backend.
func (s *Server) Sweeps() []SweepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Sweeps()
}
