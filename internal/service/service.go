// Package service turns the simulator registry into a multi-tenant batch
// backend: a zero-external-dependency HTTP job server (exposed as
// cmd/fastd) that accepts engine + sim.Params submissions, drains them
// through a bounded queue and worker pool, and — because runs are
// deterministic (locked by the golden and invariance tests of
// internal/sim) — serves repeated submissions from a content-addressed
// result cache keyed by engine name + sim.Params.Key() without simulating.
//
// API (all request/response bodies are JSON; unknown fields are rejected;
// every non-2xx response — an unmatched route included — is an APIError
// envelope with a stable code). The surface is written once, over the
// Backend interface (api.go); Server is the local implementation and adds
// the two node-only routes, /v1/jobs/{id}/metrics and /v1/snapshots:
//
//	POST   /v1/jobs             {"engine","params","timeout_ms"} → 202 job view
//	GET    /v1/jobs             list, newest first (?status=&limit=&after=)
//	GET    /v1/jobs/{id}        job view (status, cache flag, timestamps)
//	GET    /v1/jobs/{id}/result 200 canonical sim.Result | 202 while pending
//	GET    /v1/jobs/{id}/metrics per-job Prometheus dump
//	DELETE /v1/jobs/{id}        cancel (queued → skipped, running → ctx cancel)
//	POST   /v1/sweeps           {"sweep","timeout_ms"} → 202 sweep view
//	GET    /v1/sweeps           list, newest first (?status=&limit=&after=)
//	GET    /v1/sweeps/{id}      sweep view (per-status child counts)
//	GET    /v1/sweeps/{id}/result spec-order aggregation of child results
//	GET    /v1/engines          registry names + descriptions
//	GET    /v1/workloads        workload registry names + descriptions
//	GET    /v1/snapshots        memory-resident warm-start snapshot index
//	GET    /metrics             server-wide Prometheus dump (service_* series
//	                            plus every per-run series of runs that
//	                            inherited the server telemetry)
//	GET    /healthz             liveness + drain state + queue depth
//
// Production behaviors: a full queue answers 429 with a Retry-After
// estimated from recent job wall times; every job runs under a deadline
// enforced through Engine.RunContext; Shutdown drains gracefully (stop
// accepting, finish queued and in-flight work, or cancel it when the drain
// context expires). The in-memory result LRU can be backed by a Store
// (internal/service/diskcache) so the cache survives restarts and can be
// shared cluster-wide; internal/cluster shards this API across many nodes.
package service

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config sizes the server. The zero value is a usable single-host default.
type Config struct {
	// Workers is the simulation worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the backlog of accepted-but-not-started jobs;
	// <= 0 means 64. A full queue rejects submissions with 429.
	QueueDepth int
	// CacheEntries caps the in-memory content-addressed result cache;
	// 0 means 256, negative disables the memory tier.
	CacheEntries int
	// Store, when non-nil, persistently backs the memory cache: puts are
	// written through, memory misses fall back to it (and promote). See
	// internal/service/diskcache for the disk implementation.
	Store Store
	// Snapshots, when non-nil, persistently backs the warm-start snapshot
	// tier; nil falls back to Store, so one shared disk directory carries
	// both results and boot snapshots cluster-wide.
	Snapshots Store
	// DisableWarmStart turns the snapshot tier off entirely: every run
	// boots cold and captures nothing. Results are bit-identical either
	// way (experiments.TestStudyInvariance locks this); the switch only exists
	// to trade the snapshot disk/memory footprint back for boot time.
	DisableWarmStart bool
	// DefaultTimeout is the per-job deadline applied when a submission
	// carries no timeout_ms; <= 0 means 10 minutes.
	DefaultTimeout time.Duration
	// Telemetry receives the service_* series and, transitively, the
	// engine/fleet series of every run (each job also keeps a private
	// registry for /v1/jobs/{id}/metrics). Nil allocates a fresh one.
	Telemetry *obs.Telemetry
}

// Server is the job service. Build with New (which starts the worker
// pool), mount Handler on an http.Server, and Shutdown to drain.
type Server struct {
	cfg   Config
	tel   *obs.Telemetry
	mux   *http.ServeMux
	cache *tier[[]byte]
	snaps *snapshotStore // nil when warm starts are disabled
	queue chan *job

	mu       sync.Mutex
	draining bool
	table    Table[*job]

	workers sync.WaitGroup

	jobsSubmitted *obs.Counter
	engineRuns    *obs.Counter
	sweepsTotal   *obs.Counter
	queueDepth    *obs.Gauge
	queueWait     *obs.Histogram
	jobSeconds    *obs.Histogram
}

var _ Backend = (*Server)(nil)

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	switch {
	case cfg.CacheEntries == 0:
		cfg.CacheEntries = 256
	case cfg.CacheEntries < 0:
		cfg.CacheEntries = 0 // memory tier disabled
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Minute
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = obs.New()
	}
	s := &Server{
		cfg:           cfg,
		tel:           cfg.Telemetry,
		cache:         newResultCache(cfg.CacheEntries, cfg.Store, cfg.Telemetry),
		queue:         make(chan *job, cfg.QueueDepth),
		jobsSubmitted: cfg.Telemetry.Counter("service_jobs_submitted_total"),
		engineRuns:    cfg.Telemetry.Counter("service_engine_runs_total"),
		sweepsTotal:   cfg.Telemetry.Counter("service_sweeps_total"),
		queueDepth:    cfg.Telemetry.Gauge("service_queue_depth"),
		queueWait:     cfg.Telemetry.Histogram("service_queue_wait_seconds", obs.SecondsBuckets),
		jobSeconds:    cfg.Telemetry.Histogram("service_job_seconds", obs.SecondsBuckets),
	}
	if !cfg.DisableWarmStart {
		backing := cfg.Snapshots
		if backing == nil {
			backing = cfg.Store
		}
		s.snaps = newSnapshotStore(backing, cfg.Telemetry)
	}
	s.mux = NewMux(s)
	s.mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	s.mux.HandleFunc("GET /v1/snapshots", s.handleSnapshots)
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// jobsByStatus resolves the service_jobs_total{status=...} series.
func (s *Server) jobsByStatus(status string) *obs.Counter {
	return s.tel.Counter(obs.L("service_jobs_total", "status", status))
}

// rejected resolves the service_jobs_rejected_total{reason=...} series.
func (s *Server) rejected(reason string) *obs.Counter {
	return s.tel.Counter(obs.L("service_jobs_rejected_total", "reason", reason))
}

// Handler returns the HTTP surface: the shared v1 routes (NewMux) plus the
// two that only a node can answer.
func (s *Server) Handler() http.Handler { return s.mux }

// Telemetry implements Backend.
func (s *Server) Telemetry() *obs.Telemetry { return s.tel }

// Health implements Backend.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{Status: "ok", QueueDepth: len(s.queue)}
	if s.draining {
		h.Status = "draining"
	}
	return h
}

func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, err := s.table.Job(r.PathValue("id"))
	s.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	j.tel.Metrics.WritePrometheus(w)
}

// Shutdown drains the server: new submissions are refused with 503, the
// queue is closed, and workers finish queued and in-flight jobs. If ctx
// expires first, every remaining queued job is canceled, every running
// job's context is cancelled, and Shutdown still waits for the workers to
// observe that before returning ctx's error. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	s.table.Each(func(j *job) { s.cancelLocked(j) })
	s.mu.Unlock()
	<-drained
	return ctx.Err()
}
