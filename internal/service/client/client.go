// Package client is the typed Go client of the fastd /v1 API
// (internal/service): submit jobs and sweeps, wait for results, list and
// cancel work — context-aware throughout, with non-2xx responses decoded
// into *APIError (the service's error envelope plus the HTTP status) and 429/503 backpressure honored via Retry-After with capped backoff.
//
// Everything that drives the API programmatically goes through this
// package: cmd/fastctl (the operator CLI), scripts/service_smoke.sh via
// fastctl, and internal/cluster — the coordinator speaks to its worker
// nodes with the same client an external user would, so the node RPC
// surface can never drift from the public one.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// Client talks to one fastd node (or coordinator). The zero value is not
// usable; build with New. Fields may be adjusted before first use.
type Client struct {
	base string
	// HTTP is the underlying transport client. Per-call deadlines come
	// from the caller's context, not a transport timeout.
	HTTP *http.Client
	// RetryMax bounds the automatic retries of a request answered 429 or
	// 503 with a Retry-After hint. 0 disables retrying.
	RetryMax int
	// RetryCap caps one backoff sleep regardless of the server's hint.
	RetryCap time.Duration
	// Poll is the status-poll interval of the Wait helpers.
	Poll time.Duration
}

// New builds a client for the node at base (e.g. "http://127.0.0.1:8080").
func New(base string) *Client {
	return &Client{
		base:     strings.TrimRight(base, "/"),
		HTTP:     &http.Client{},
		RetryMax: 4,
		RetryCap: 5 * time.Second,
		Poll:     25 * time.Millisecond,
	}
}

// Base returns the node URL this client targets.
func (c *Client) Base() string { return c.base }

// APIError is a non-2xx response: the service's error envelope plus the
// HTTP status — the very type the server side returns and writes. Dispatch
// on Code (the service.Code* constants).
type APIError = service.APIError

// ErrorCode extracts the stable code from an error returned by this
// package ("" when err is not an *APIError).
func ErrorCode(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// do issues one request and decodes a 2xx JSON body into out (skipped when
// out is nil). Non-2xx bodies become *APIError; transport failures are
// returned as-is (the cluster coordinator dispatches on that difference:
// an APIError came from a live node, anything else means the node is gone).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	raw, _, err := c.doRaw(ctx, method, path, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// doRaw issues one request and returns the exact 2xx body bytes and status
// code. Non-2xx responses become *APIError.
func (c *Client) doRaw(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		ae := &APIError{}
		if json.Unmarshal(raw, ae) != nil || ae.Code == "" {
			// Not an envelope (a proxy's error page, a draining /healthz).
			*ae = APIError{Code: service.CodeInternal, Message: strings.TrimSpace(string(raw))}
		}
		ae.Status = resp.StatusCode
		if ae.RetryAfterSec == 0 {
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				ae.RetryAfterSec = s
			}
		}
		return nil, resp.StatusCode, ae
	}
	return raw, resp.StatusCode, nil
}

// doRetry wraps do with the backpressure contract: a 429/503 APIError is
// retried up to RetryMax times, sleeping the server's Retry-After hint
// capped at RetryCap (1s when the server gave none), context-aware.
func (c *Client) doRetry(ctx context.Context, method, path string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.do(ctx, method, path, body, out)
		var ae *APIError
		if err == nil || attempt >= c.RetryMax ||
			!errors.As(err, &ae) || (ae.Status != 429 && ae.Status != 503) {
			return err
		}
		wait := time.Duration(ae.RetryAfterSec) * time.Second
		if wait <= 0 {
			wait = time.Second
		}
		if wait > c.RetryCap {
			wait = c.RetryCap
		}
		if err := sleep(ctx, wait); err != nil {
			return err
		}
	}
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// SubmitJob submits params (a strict sim.Params JSON overlay, e.g.
// {"workload":"164.gzip"}) to engine. timeout <= 0 uses the server's
// default deadline. 429/503 are retried per the client's backoff policy.
func (c *Client) SubmitJob(ctx context.Context, engine string, params json.RawMessage, timeout time.Duration) (service.JobView, error) {
	if len(params) == 0 {
		params = json.RawMessage(`{}`)
	}
	body, err := json.Marshal(service.JobRequest{Engine: engine, Params: params, TimeoutMS: timeout.Milliseconds()})
	if err != nil {
		return service.JobView{}, err
	}
	var v service.JobView
	return v, c.doRetry(ctx, "POST", "/v1/jobs", body, &v)
}

// SubmitParams is SubmitJob for an already-typed sim.Params.
func (c *Client) SubmitParams(ctx context.Context, engine string, p sim.Params, timeout time.Duration) (service.JobView, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return service.JobView{}, err
	}
	return c.SubmitJob(ctx, engine, raw, timeout)
}

// Job fetches one job view.
func (c *Client) Job(ctx context.Context, id string) (service.JobView, error) {
	var v service.JobView
	return v, c.do(ctx, "GET", "/v1/jobs/"+url.PathEscape(id), nil, &v)
}

// Cancel cancels a job (queued → terminal immediately, running → engine
// context cancelled). A terminal job answers conflict.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobView, error) {
	var v service.JobView
	return v, c.do(ctx, "DELETE", "/v1/jobs/"+url.PathEscape(id), nil, &v)
}

// JobResult fetches a job's canonical result bytes. ok=false with a nil
// error means the job is still pending (202). A failed or canceled job
// returns a conflict *APIError. The returned bytes are the node's exact
// marshaled result (trailing newline framing removed).
func (c *Client) JobResult(ctx context.Context, id string) (json.RawMessage, bool, error) {
	raw, status, err := c.doRaw(ctx, "GET", "/v1/jobs/"+url.PathEscape(id)+"/result", nil)
	if err != nil {
		return nil, false, err
	}
	if status == http.StatusAccepted {
		return nil, false, nil
	}
	return bytes.TrimSuffix(raw, []byte("\n")), true, nil
}

// WaitResult polls until the job is terminal and returns its canonical
// result bytes. A failed or canceled job surfaces as the server's
// conflict *APIError; ctx bounds the wait.
func (c *Client) WaitResult(ctx context.Context, id string) (json.RawMessage, error) {
	for {
		raw, ok, err := c.JobResult(ctx, id)
		if err != nil {
			return nil, err
		}
		if ok {
			return raw, nil
		}
		if err := sleep(ctx, c.Poll); err != nil {
			return nil, err
		}
	}
}

// SubmitSweep submits a typed sweep spec. 429/503 are retried per the
// backoff policy — sweep admission is all-or-nothing server-side, so a
// retry never duplicates points.
func (c *Client) SubmitSweep(ctx context.Context, spec sim.Sweep, timeout time.Duration) (service.SweepView, error) {
	body, err := json.Marshal(service.SweepRequest{Sweep: spec, TimeoutMS: timeout.Milliseconds()})
	if err != nil {
		return service.SweepView{}, err
	}
	var v service.SweepView
	return v, c.doRetry(ctx, "POST", "/v1/sweeps", body, &v)
}

// SubmitSweepRaw submits a raw sweep spec (the JSON object that would sit
// under "sweep" in the request body), preserving the caller's bytes.
func (c *Client) SubmitSweepRaw(ctx context.Context, spec json.RawMessage, timeout time.Duration) (service.SweepView, error) {
	body, err := json.Marshal(struct {
		Sweep     json.RawMessage `json:"sweep"`
		TimeoutMS int64           `json:"timeout_ms,omitempty"`
	}{Sweep: spec, TimeoutMS: timeout.Milliseconds()})
	if err != nil {
		return service.SweepView{}, err
	}
	var v service.SweepView
	return v, c.doRetry(ctx, "POST", "/v1/sweeps", body, &v)
}

// Sweep fetches one sweep view.
func (c *Client) Sweep(ctx context.Context, id string) (service.SweepView, error) {
	var v service.SweepView
	return v, c.do(ctx, "GET", "/v1/sweeps/"+url.PathEscape(id), nil, &v)
}

// SweepResult fetches the spec-order aggregation. ok=false with a nil
// error means some child is still pending (202). raw carries the exact
// aggregation bytes (newline framing removed) for byte-identical
// comparisons; the decoded form is returned alongside.
func (c *Client) SweepResult(ctx context.Context, id string) (service.SweepResults, json.RawMessage, bool, error) {
	raw, status, err := c.doRaw(ctx, "GET", "/v1/sweeps/"+url.PathEscape(id)+"/result", nil)
	if err != nil {
		return service.SweepResults{}, nil, false, err
	}
	if status == http.StatusAccepted {
		return service.SweepResults{}, nil, false, nil
	}
	var out service.SweepResults
	if err := json.Unmarshal(raw, &out); err != nil {
		return service.SweepResults{}, nil, false, err
	}
	return out, bytes.TrimSuffix(raw, []byte("\n")), true, nil
}

// WaitSweepResult polls until every child of the sweep is terminal and
// returns the spec-order aggregation (decoded and exact bytes).
func (c *Client) WaitSweepResult(ctx context.Context, id string) (service.SweepResults, json.RawMessage, error) {
	for {
		out, raw, ok, err := c.SweepResult(ctx, id)
		if err != nil {
			return service.SweepResults{}, nil, err
		}
		if ok {
			return out, raw, nil
		}
		if err := sleep(ctx, c.Poll); err != nil {
			return service.SweepResults{}, nil, err
		}
	}
}

// listPath assembles a collection URL from the shared pagination triple.
func listPath(base, status string, limit int, after string) string {
	q := url.Values{}
	if status != "" {
		q.Set("status", status)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if after != "" {
		q.Set("after", after)
	}
	if enc := q.Encode(); enc != "" {
		return base + "?" + enc
	}
	return base
}

// ListJobs fetches one page of jobs, newest first. Page with
// after = the previous page's NextAfter until it comes back empty.
func (c *Client) ListJobs(ctx context.Context, status string, limit int, after string) (service.JobList, error) {
	var v service.JobList
	return v, c.do(ctx, "GET", listPath("/v1/jobs", status, limit, after), nil, &v)
}

// ListSweeps fetches one page of sweeps, newest first.
func (c *Client) ListSweeps(ctx context.Context, status string, limit int, after string) (service.SweepList, error) {
	var v service.SweepList
	return v, c.do(ctx, "GET", listPath("/v1/sweeps", status, limit, after), nil, &v)
}

// Engines lists the node's engine registry.
func (c *Client) Engines(ctx context.Context) ([]service.EngineView, error) {
	var v []service.EngineView
	return v, c.do(ctx, "GET", "/v1/engines", nil, &v)
}

// Workloads lists the server's workload registry (names a job's
// params.workload may name, with descriptions).
func (c *Client) Workloads(ctx context.Context) ([]service.WorkloadView, error) {
	var v []service.WorkloadView
	return v, c.do(ctx, "GET", "/v1/workloads", nil, &v)
}

// Health probes /healthz. A draining node answers 503 — that still counts
// as alive, so the 503 envelope is folded into the view rather than
// returned as an error; only transport failures error.
func (c *Client) Health(ctx context.Context) (service.Health, error) {
	raw, _, err := c.doRaw(ctx, "GET", "/healthz", nil)
	var ae *APIError
	if errors.As(err, &ae) {
		// Draining nodes answer 503 with the health body, not an envelope.
		raw, err = []byte(ae.Message), nil
	}
	if err != nil {
		return service.Health{}, err
	}
	var h service.Health
	if jerr := json.Unmarshal(raw, &h); jerr != nil || h.Status == "" {
		return service.Health{}, fmt.Errorf("malformed health body %q", raw)
	}
	return h, nil
}

// Snapshots lists the node's memory-resident warm-start snapshots.
func (c *Client) Snapshots(ctx context.Context) ([]service.SnapshotView, error) {
	var v []service.SnapshotView
	return v, c.do(ctx, "GET", "/v1/snapshots", nil, &v)
}

// Metrics fetches the node's Prometheus dump.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	raw, _, err := c.doRaw(ctx, "GET", "/metrics", nil)
	return raw, err
}

// ClusterView fetches GET /v1/cluster (coordinator nodes only) as raw
// JSON; the shape is internal/cluster.View, left undecoded here to keep
// this package independent of the coordinator.
func (c *Client) ClusterView(ctx context.Context) (json.RawMessage, error) {
	raw, _, err := c.doRaw(ctx, "GET", "/v1/cluster", nil)
	return raw, err
}
