package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/servicetest"
)

// The fake engines ("svc-stub" completes instantly with a params-derived
// result, "svc-block" parks on the gate) live in servicetest, shared with
// the cluster tests.
func init() { servicetest.Register("svc") }

var resetGate, openGate = servicetest.ResetGate, servicetest.OpenGate

// harness spins up a server + httptest listener and tears both down.
type harness struct {
	t   *testing.T
	srv *service.Server
	ts  *httptest.Server
	tel *obs.Telemetry
}

func newHarness(t *testing.T, cfg service.Config) *harness {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = obs.New()
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	h := &harness{t: t, srv: srv, ts: ts, tel: cfg.Telemetry}
	t.Cleanup(func() {
		ts.Close()
		openGate() // never leave workers parked on the gate
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return h
}

func (h *harness) counter(name string) uint64 { return h.tel.Metrics.Counter(name).Value() }

// do issues a request and decodes the JSON body into a generic map.
func (h *harness) do(method, path string, body string) (int, map[string]any, http.Header) {
	h.t.Helper()
	req, err := http.NewRequest(method, h.ts.URL+path, strings.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			h.t.Fatalf("%s %s: non-JSON body %q", method, path, raw)
		}
	}
	return resp.StatusCode, m, resp.Header
}

// raw issues a request and returns the exact response bytes.
func (h *harness) raw(method, path, body string) (int, []byte) {
	h.t.Helper()
	req, err := http.NewRequest(method, h.ts.URL+path, strings.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// submit posts a job and returns its id.
func (h *harness) submit(body string) string {
	h.t.Helper()
	code, m, _ := h.do("POST", "/v1/jobs", body)
	if code != http.StatusAccepted {
		h.t.Fatalf("submit %s: status %d, body %v", body, code, m)
	}
	return m["id"].(string)
}

// wait polls a job until it reaches a terminal state and returns its view.
func (h *harness) wait(id string) map[string]any {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, m, _ := h.do("GET", "/v1/jobs/"+id, "")
		if code != http.StatusOK {
			h.t.Fatalf("status %s: %d %v", id, code, m)
		}
		switch m["status"] {
		case "done", "failed", "canceled":
			return m
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

// waitStatus polls until a job reports the wanted (non-terminal) status.
func (h *harness) waitStatus(id, want string) {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, m, _ := h.do("GET", "/v1/jobs/"+id, "")
		if m["status"] == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("job %s never reached status %q", id, want)
}

// TestJobLifecycle walks the happy path end to end on the stub engine:
// accepted view → terminal status → result derived from the submitted
// params → per-job metrics endpoint.
func TestJobLifecycle(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 2, QueueDepth: 8})
	id := h.submit(`{"engine":"svc-stub","params":{"workload":"164.gzip","max_instructions":777}}`)
	view := h.wait(id)
	if view["status"] != "done" || view["cached"] != false {
		t.Fatalf("view = %v", view)
	}
	code, res, _ := h.do("GET", "/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result: %d %v", code, res)
	}
	if res["instructions"] != float64(777) || res["engine"] != "svc-stub" {
		t.Errorf("result = %v", res)
	}
	if code, _ := h.raw("GET", "/v1/jobs/"+id+"/metrics", ""); code != http.StatusOK {
		t.Errorf("per-job metrics: %d", code)
	}
	if code, _, _ := h.do("GET", "/v1/jobs/nope", ""); code != http.StatusNotFound {
		t.Errorf("missing job: %d", code)
	}
	if got := h.counter("service_jobs_submitted_total"); got != 1 {
		t.Errorf("service_jobs_submitted_total = %d", got)
	}
	if got := h.counter(obs.L("service_jobs_total", "status", "done")); got != 1 {
		t.Errorf("service_jobs_total{done} = %d", got)
	}
}

// TestCacheHitByteIdentical is the acceptance bar verbatim: the second of
// two identical submissions — here a real Figure-4-style point on the fast
// engine — is served from cache with byte-identical result JSON, a cache
// hit recorded and no second engine run.
func TestCacheHitByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled run")
	}
	h := newHarness(t, service.Config{Workers: 2, QueueDepth: 8})
	body := `{"engine":"fast","params":{"workload":"164.gzip","predictor":"gshare","max_instructions":3000}}`
	id1 := h.submit(body)
	if v := h.wait(id1); v["status"] != "done" {
		t.Fatalf("first run: %v", v)
	}
	// A job that names no host knob runs the FM at its defaults — predecode
	// cache and superblocks on — not with both silently off.
	_, jobProm := h.raw("GET", "/v1/jobs/"+id1+"/metrics", "")
	if !regexp.MustCompile(`(?m)^fm_superblock_hits_total [1-9]`).Match(jobProm) {
		t.Error("job without host knobs formed no superblocks (no fm_superblock_hits_total in its metrics)")
	}
	// Spell the same simulation differently: explicit defaults must land on
	// the same content address.
	id2 := h.submit(`{"engine":"fast","params":{"workload":"164.gzip","predictor":"gshare","link":"drc","max_instructions":3000,"icache_entries":16}}`)
	v2 := h.wait(id2)
	if v2["status"] != "done" || v2["cached"] != true {
		t.Fatalf("second run should be a cache hit: %v", v2)
	}
	_, raw1 := h.raw("GET", "/v1/jobs/"+id1+"/result", "")
	_, raw2 := h.raw("GET", "/v1/jobs/"+id2+"/result", "")
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("cached result not byte-identical:\n%s\n%s", raw1, raw2)
	}
	if hits := h.counter("service_cache_hits_total"); hits != 1 {
		t.Errorf("service_cache_hits_total = %d, want 1", hits)
	}
	if runs := h.counter("service_engine_runs_total"); runs != 1 {
		t.Errorf("service_engine_runs_total = %d, want 1 (hit must not simulate)", runs)
	}
	// The scrape surface carries the series.
	_, prom := h.raw("GET", "/metrics", "")
	if !strings.Contains(string(prom), "service_cache_hits_total 1") {
		t.Errorf("/metrics missing cache-hit series:\n%s", prom)
	}
}

// TestQueueFull429 pins the backpressure contract: with one worker parked
// and a one-slot queue occupied, the next submission bounces with 429 and
// a Retry-After hint, and previously accepted work still completes.
func TestQueueFull429(t *testing.T) {
	resetGate()
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 1})
	id1 := h.submit(`{"engine":"svc-block","params":{"workload":"164.gzip","max_instructions":1}}`)
	h.waitStatus(id1, "running")
	id2 := h.submit(`{"engine":"svc-block","params":{"workload":"164.gzip","max_instructions":2}}`)
	code, m, hdr := h.do("POST", "/v1/jobs", `{"engine":"svc-block","params":{"workload":"164.gzip","max_instructions":3}}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submission: %d %v", code, m)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	if got := h.counter(obs.L("service_jobs_rejected_total", "reason", "queue_full")); got != 1 {
		t.Errorf("rejected{queue_full} = %d", got)
	}
	openGate()
	if v := h.wait(id1); v["status"] != "done" {
		t.Errorf("job1: %v", v)
	}
	if v := h.wait(id2); v["status"] != "done" {
		t.Errorf("job2: %v", v)
	}
}

// TestJobTimeout checks the per-job deadline flows through RunContext: a
// parked engine is cancelled at timeout_ms and the job fails loudly.
func TestJobTimeout(t *testing.T) {
	resetGate()
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 4})
	id := h.submit(`{"engine":"svc-block","params":{"workload":"164.gzip"},"timeout_ms":50}`)
	v := h.wait(id)
	if v["status"] != "failed" || !strings.Contains(v["error"].(string), "deadline exceeded") {
		t.Fatalf("timed-out job: %v", v)
	}
	code, m, _ := h.do("GET", "/v1/jobs/"+id+"/result", "")
	if code != http.StatusConflict {
		t.Errorf("failed job result: %d %v", code, m)
	}
}

// TestEnginePanicFailsJobOnly: a panic inside an engine run ends that one
// job as failed, with the panic in its error; the worker survives it, the
// server keeps answering /healthz and the next job runs.
func TestEnginePanicFailsJobOnly(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 4})
	v := h.wait(h.submit(`{"engine":"svc-panic","params":{"workload":"164.gzip"}}`))
	if v["status"] != "failed" || !strings.Contains(v["error"].(string), "panicked: injected engine bug") {
		t.Fatalf("panicking job: %v", v)
	}
	if code, _ := h.raw("GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("/healthz after an engine panic: %d", code)
	}
	next := h.wait(h.submit(`{"engine":"svc-stub","params":{"workload":"164.gzip","max_instructions":5}}`))
	if next["status"] != "done" {
		t.Errorf("job after the panicking one: %v", next)
	}
}

// TestJobCancel covers DELETE in both preemption windows: a running job is
// cancelled through its context, a queued job terminates without running.
func TestJobCancel(t *testing.T) {
	resetGate()
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 4})
	running := h.submit(`{"engine":"svc-block","params":{"workload":"164.gzip","max_instructions":10}}`)
	h.waitStatus(running, "running")
	queued := h.submit(`{"engine":"svc-block","params":{"workload":"164.gzip","max_instructions":20}}`)
	if code, m, _ := h.do("DELETE", "/v1/jobs/"+queued, ""); code != http.StatusOK || m["status"] != "canceled" {
		t.Fatalf("cancel queued: %d %v", code, m)
	}
	if code, _, _ := h.do("DELETE", "/v1/jobs/"+running, ""); code != http.StatusOK {
		t.Fatalf("cancel running: %d", code)
	}
	if v := h.wait(running); v["status"] != "canceled" {
		t.Errorf("running job after cancel: %v", v)
	}
	if code, _, _ := h.do("DELETE", "/v1/jobs/"+queued, ""); code != http.StatusConflict {
		t.Errorf("double cancel: %d", code)
	}
	// The engine run count proves the queued job never started.
	if runs := h.counter("service_engine_runs_total"); runs != 1 {
		t.Errorf("service_engine_runs_total = %d, want 1", runs)
	}
}

// TestGracefulDrain: Shutdown stops intake with 503, lets queued and
// in-flight jobs finish, and returns nil inside the drain budget.
func TestGracefulDrain(t *testing.T) {
	resetGate()
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 4})
	inflight := h.submit(`{"engine":"svc-block","params":{"workload":"164.gzip","max_instructions":1}}`)
	h.waitStatus(inflight, "running")
	queued := h.submit(`{"engine":"svc-block","params":{"workload":"164.gzip","max_instructions":2}}`)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- h.srv.Shutdown(ctx)
	}()
	// Intake flips to draining before the workers finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, _ := h.do("GET", "/healthz", "")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _, _ := h.do("POST", "/v1/jobs", `{"engine":"svc-stub","params":{"workload":"164.gzip"}}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: %d", code)
	}
	openGate()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := h.wait(inflight); v["status"] != "done" {
		t.Errorf("in-flight job after drain: %v", v)
	}
	if v := h.wait(queued); v["status"] != "done" {
		t.Errorf("queued job after drain: %v", v)
	}
}

// TestDrainDeadlineCancelsInFlight: when the drain budget expires the
// server cancels what is still running instead of hanging.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	resetGate()
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 4})
	id := h.submit(`{"engine":"svc-block","params":{"workload":"164.gzip"}}`)
	h.waitStatus(id, "running")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if v := h.wait(id); v["status"] != "canceled" {
		t.Errorf("in-flight job after forced drain: %v", v)
	}
}

// TestSweepSpecOrderUnder4Workers is the concurrency acceptance bar: a
// 64-point sweep against a 4-worker pool (exercised under `make race`)
// completes with results aggregated in spec order.
func TestSweepSpecOrderUnder4Workers(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 4, QueueDepth: 128})
	var variants []string
	for i := 0; i < 64; i++ {
		variants = append(variants, fmt.Sprintf(`{"max_instructions":%d}`, 1000+i))
	}
	body := fmt.Sprintf(`{"sweep":{"engines":["svc-stub"],"workloads":["164.gzip"],"variants":[%s]}}`,
		strings.Join(variants, ","))
	code, m, _ := h.do("POST", "/v1/sweeps", body)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit: %d %v", code, m)
	}
	id := m["id"].(string)
	if m["total"] != float64(64) {
		t.Fatalf("sweep expanded to %v points", m["total"])
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, m, _ = h.do("GET", "/v1/sweeps/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("sweep status: %d %v", code, m)
		}
		if m["status"] == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished: %v", m)
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, res, _ := h.do("GET", "/v1/sweeps/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("sweep result: %d %v", code, res)
	}
	results := res["results"].([]any)
	if len(results) != 64 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		slot := r.(map[string]any)
		if slot["index"] != float64(i) {
			t.Errorf("slot %d has index %v", i, slot["index"])
		}
		if slot["error"] != nil && slot["error"] != "" {
			t.Errorf("slot %d failed: %v", i, slot["error"])
			continue
		}
		got := slot["result"].(map[string]any)
		if got["instructions"] != float64(1000+i) {
			t.Errorf("slot %d: instructions %v, want %d (spec-order aggregation broken)", i, got["instructions"], 1000+i)
		}
	}
	if got := h.counter("service_sweeps_total"); got != 1 {
		t.Errorf("service_sweeps_total = %d", got)
	}
}

// TestConcurrentSubmissions fires 64 independent client submissions at a
// 4-worker pool and checks every one completes with its own result.
func TestConcurrentSubmissions(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 4, QueueDepth: 128})
	ids := make([]string, 64)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"engine":"svc-stub","params":{"workload":"164.gzip","max_instructions":%d}}`, 5000+i)
			req, _ := http.NewRequest("POST", h.ts.URL+"/v1/jobs", strings.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var m map[string]any
			json.NewDecoder(resp.Body).Decode(&m)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submission %d: %d %v", i, resp.StatusCode, m)
				return
			}
			ids[i] = m["id"].(string)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, id := range ids {
		v := h.wait(id)
		if v["status"] != "done" {
			t.Errorf("job %d (%s): %v", i, id, v)
			continue
		}
		_, res, _ := h.do("GET", "/v1/jobs/"+id+"/result", "")
		if res["instructions"] != float64(5000+i) {
			t.Errorf("job %d: instructions %v, want %d", i, res["instructions"], 5000+i)
		}
	}
}

// TestSweepAdmissionAtomic: a sweep that does not fit in the queue's free
// space is rejected whole — no child jobs leak into the queue.
func TestSweepAdmissionAtomic(t *testing.T) {
	resetGate()
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 2})
	id := h.submit(`{"engine":"svc-block","params":{"workload":"164.gzip","max_instructions":1}}`)
	h.waitStatus(id, "running")
	body := `{"sweep":{"engines":["svc-block"],"workloads":["164.gzip"],"variants":[{"max_instructions":11},{"max_instructions":12},{"max_instructions":13}]}}`
	code, m, hdr := h.do("POST", "/v1/sweeps", body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("oversized sweep: %d %v", code, m)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	// The queue is untouched: a 2-point sweep still fits.
	body2 := `{"sweep":{"engines":["svc-stub"],"workloads":["164.gzip"],"variants":[{"max_instructions":21},{"max_instructions":22}]}}`
	if code, m, _ := h.do("POST", "/v1/sweeps", body2); code != http.StatusAccepted {
		t.Fatalf("follow-up sweep: %d %v", code, m)
	}
	openGate()
}

// TestRejectUnknownFields pins strictness at every decode layer of the API.
func TestRejectUnknownFields(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 4})
	for name, body := range map[string]string{
		"top-level typo":   `{"enigne":"fast","params":{}}`,
		"params typo":      `{"engine":"fast","params":{"warkload":"164.gzip"}}`,
		"unknown engine":   `{"engine":"hasim","params":{}}`,
		"unknown workload": `{"engine":"fast","params":{"workload":"no-such-app"}}`,
		"bad rollback":     `{"engine":"fast","params":{"rollback":"undo-log"}}`,
		"trailing garbage": `{"engine":"fast","params":{}} x`,
		"params trailing":  `{"engine":"fast","params":{"bpp":true} }x`,
	} {
		if code, m, _ := h.do("POST", "/v1/jobs", body); code != http.StatusBadRequest {
			t.Errorf("%s: %d %v", name, code, m)
		}
	}
	if code, m, _ := h.do("POST", "/v1/sweeps", `{"sweep":{"base":{"warkload":"x"}}}`); code != http.StatusBadRequest {
		t.Errorf("sweep nested typo: %d %v", code, m)
	}
}

// TestEnginesEndpoint: the registry (including the test stubs) is listed.
func TestEnginesEndpoint(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 1})
	code, body := h.raw("GET", "/v1/engines", "")
	if code != http.StatusOK {
		t.Fatalf("engines: %d", code)
	}
	var engines []map[string]any
	if err := json.Unmarshal(body, &engines); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range engines {
		names[e["name"].(string)] = true
	}
	for _, want := range []string{"fast", "fast-parallel", "monolithic", "gems", "lockstep", "fsbcache"} {
		if !names[want] {
			t.Errorf("engine %q missing from /v1/engines", want)
		}
	}
}

// TestWorkloadsEndpoint: the workload registry — boot, SPEC-alike, SMP and
// the toyFS server workloads — is discoverable over the API with
// non-empty descriptions.
func TestWorkloadsEndpoint(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 1})
	code, body := h.raw("GET", "/v1/workloads", "")
	if code != http.StatusOK {
		t.Fatalf("workloads: %d", code)
	}
	var views []map[string]any
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, v := range views {
		name := v["name"].(string)
		names[name] = true
		if v["description"].(string) == "" {
			t.Errorf("workload %q has no description", name)
		}
	}
	for _, want := range []string{"Linux-2.4", "164.gzip", "smp-lock", "shell-fork", "logwrite", "nicserv"} {
		if !names[want] {
			t.Errorf("workload %q missing from /v1/workloads", want)
		}
	}
}
