package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
)

// envelope reads the code/retry_after_sec fields of an error body map.
func envelopeCode(t *testing.T, m map[string]any) string {
	t.Helper()
	code, _ := m["code"].(string)
	if code == "" {
		t.Fatalf("response is not an error envelope: %v", m)
	}
	if msg, _ := m["message"].(string); msg == "" {
		t.Errorf("envelope %q has no message: %v", code, m)
	}
	return code
}

// conformanceBackends are the two real implementations of service.Backend
// the conformance tests run against: one node, and a coordinator over two
// nodes. The v1 surface is one handler set, so every shared row must read
// the same on both.
var conformanceBackends = []struct {
	name string
	new  func(t *testing.T) *harness
}{
	{"node", func(t *testing.T) *harness { return newHarness(t, service.Config{Workers: 1, QueueDepth: 1}) }},
	{"coordinator", newCoordinatorHarness},
}

// newCoordinatorHarness fronts two one-worker nodes with a coordinator and
// returns a harness aimed at the coordinator's listener.
func newCoordinatorHarness(t *testing.T) *harness {
	t.Helper()
	var nodes []string
	for i := 0; i < 2; i++ {
		nodes = append(nodes, newHarness(t, service.Config{Workers: 1, QueueDepth: 8}).ts.URL)
	}
	tel := obs.New()
	coord, err := cluster.New(cluster.Config{Nodes: nodes, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	return &harness{t: t, ts: ts, tel: tel}
}

// TestErrorEnvelopeCodes is the conformance table of the v1 surface: every
// failure path (and the routes whose mere presence is the contract) with
// its HTTP status, stable envelope code, Content-Type and Retry-After, on
// both backends. Rows marked for one backend are the genuine differences:
// queue capacity exists only on a node, and the two node-only routes
// answer not_found on a coordinator.
func TestErrorEnvelopeCodes(t *testing.T) {
	resetGate()
	type backend struct {
		name       string
		h          *harness
		doneID     string
		canceledID string
	}
	var backends []backend
	for _, b := range conformanceBackends {
		h := b.new(t)
		// A finished job for the per-job routes.
		doneID := h.submit(`{"engine":"svc-stub","params":{"workload":"164.gzip","max_instructions":9}}`)
		h.wait(doneID)
		// A terminal (canceled) job for the conflict paths: park a worker
		// on one blocking job, then cancel a second. On the node (one
		// worker, one queue slot) the second never runs and keeps the slot
		// occupied — the parked worker never dequeues it — so the
		// queue-full rows reject naturally.
		h.waitStatus(h.submit(`{"engine":"svc-block","params":{"workload":"164.gzip"}}`), "running")
		canceledID := h.submit(`{"engine":"svc-block","params":{"workload":"176.gcc"}}`)
		if st, m, _ := h.do("DELETE", "/v1/jobs/"+canceledID, ""); st != http.StatusOK {
			t.Fatalf("%s: cancel: %d %v", b.name, st, m)
		}
		h.waitStatus(canceledID, "canceled")
		backends = append(backends, backend{b.name, h, doneID, canceledID})
	}

	cases := []struct {
		name         string
		method, path string // {done} and {canceled} expand to the seeded job ids
		body         string
		wantStatus   int
		wantCode     string // "" = a success: only status and Content-Type are checked
		only         string // "" = both backends
	}{
		{"malformed body", "POST", "/v1/jobs", `{`, 400, service.CodeBadParams, ""},
		{"unknown request field", "POST", "/v1/jobs", `{"engine":"fast","bogus":1}`, 400, service.CodeBadParams, ""},
		{"trailing data", "POST", "/v1/jobs", `{"engine":"fast","params":{"workload":"164.gzip"}} {}`, 400, service.CodeBadParams, ""},
		{"unknown params field", "POST", "/v1/jobs", `{"engine":"fast","params":{"frobnicate":1}}`, 400, service.CodeBadParams, ""},
		{"unknown engine", "POST", "/v1/jobs", `{"engine":"warp-drive","params":{"workload":"164.gzip"}}`, 400, service.CodeUnknownEngine, ""},
		{"invalid params", "POST", "/v1/jobs", `{"engine":"fast","params":{"workload":"no-such-workload"}}`, 400, service.CodeBadParams, ""},
		{"negative issue width", "POST", "/v1/jobs", `{"engine":"fast","params":{"workload":"164.gzip","issue_width":-3}}`, 400, service.CodeBadParams, ""},
		{"poll cadence below resteer-only", "POST", "/v1/jobs", `{"engine":"fast","params":{"workload":"164.gzip","poll_every_bbs":-7}}`, 400, service.CodeBadParams, ""},
		{"unknown predictor", "POST", "/v1/jobs", `{"engine":"fast","params":{"workload":"164.gzip","predictor":"nope"}}`, 400, service.CodeBadParams, ""},
		{"queue full", "POST", "/v1/jobs", `{"engine":"svc-block","params":{"workload":"186.crafty"}}`, 429, service.CodeQueueFull, "node"},
		{"job not found", "GET", "/v1/jobs/job-999999", "", 404, service.CodeNotFound, ""},
		{"result not found", "GET", "/v1/jobs/job-999999/result", "", 404, service.CodeNotFound, ""},
		{"cancel not found", "DELETE", "/v1/jobs/job-999999", "", 404, service.CodeNotFound, ""},
		{"result of canceled job", "GET", "/v1/jobs/{canceled}/result", "", 409, service.CodeConflict, ""},
		{"cancel terminal job", "DELETE", "/v1/jobs/{canceled}", "", 409, service.CodeConflict, ""},
		{"sweep not found", "GET", "/v1/sweeps/sweep-999999", "", 404, service.CodeNotFound, ""},
		{"sweep result not found", "GET", "/v1/sweeps/sweep-999999/result", "", 404, service.CodeNotFound, ""},
		{"sweep invalid point", "POST", "/v1/sweeps", `{"sweep":{"workloads":["no-such-workload"],"base":{}}}`, 400, service.CodeBadParams, ""},
		// The sweep spec decodes as strictly as a job's params, nested
		// objects included.
		{"sweep spec typo", "POST", "/v1/sweeps", `{"sweep":{"engine":["fast"]}}`, 400, service.CodeBadParams, ""},
		{"sweep unknown base field", "POST", "/v1/sweeps", `{"sweep":{"base":{"warkload":"x"}}}`, 400, service.CodeBadParams, ""},
		{"sweep unknown variant field", "POST", "/v1/sweeps", `{"sweep":{"variants":[{"icache":1}]}}`, 400, service.CodeBadParams, ""},
		{"sweep trailing data", "POST", "/v1/sweeps", `{"sweep":{"base":{}}} trailing`, 400, service.CodeBadParams, ""},
		{"sweep unknown engine", "POST", "/v1/sweeps", `{"sweep":{"engines":["warp-drive"],"base":{"workload":"164.gzip"}}}`, 400, service.CodeUnknownEngine, ""},
		{"sweep over capacity", "POST", "/v1/sweeps", `{"sweep":{"engines":["svc-block"],"workloads":["164.gzip","176.gcc","186.crafty"],"base":{}}}`, 429, service.CodeQueueFull, "node"},
		{"list bad status", "GET", "/v1/jobs?status=zombie", "", 400, service.CodeBadParams, ""},
		{"list bad limit", "GET", "/v1/jobs?limit=-1", "", 400, service.CodeBadParams, ""},
		{"list bad cursor", "GET", "/v1/jobs?after=nonsense", "", 400, service.CodeBadParams, ""},
		{"sweep list bad status", "GET", "/v1/sweeps?status=queued", "", 400, service.CodeBadParams, ""},
		// One mux, one catch-all: whatever no route matches is the envelope.
		{"unknown route", "GET", "/v1/nope", "", 404, service.CodeNotFound, ""},
		{"wrong method", "PUT", "/v1/jobs", `{}`, 404, service.CodeNotFound, ""},
		{"outside v1", "GET", "/nope", "", 404, service.CodeNotFound, ""},
		// Same binary, same registries: both backends answer both listings.
		{"engines served", "GET", "/v1/engines", "", 200, "", ""},
		{"workloads served", "GET", "/v1/workloads", "", 200, "", ""},
		// The node-only routes: present on a node, the envelope elsewhere.
		{"snapshots on node", "GET", "/v1/snapshots", "", 200, "", "node"},
		{"snapshots on coordinator", "GET", "/v1/snapshots", "", 404, service.CodeNotFound, "coordinator"},
		{"job metrics on coordinator", "GET", "/v1/jobs/{done}/metrics", "", 404, service.CodeNotFound, "coordinator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, b := range backends {
				if tc.only != "" && tc.only != b.name {
					continue
				}
				t.Run(b.name, func(t *testing.T) {
					path := strings.NewReplacer("{done}", b.doneID, "{canceled}", b.canceledID).Replace(tc.path)
					req, err := http.NewRequest(tc.method, b.h.ts.URL+path, strings.NewReader(tc.body))
					if err != nil {
						t.Fatal(err)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					raw, _ := io.ReadAll(resp.Body)
					if resp.StatusCode != tc.wantStatus {
						t.Fatalf("%s %s: status %d, want %d (%s)", tc.method, path, resp.StatusCode, tc.wantStatus, raw)
					}
					if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
						t.Fatalf("%s %s: Content-Type %q, want application/json (%s)", tc.method, path, ct, raw)
					}
					if tc.wantCode == "" {
						return
					}
					var m map[string]any
					if err := json.Unmarshal(raw, &m); err != nil {
						t.Fatalf("%s %s: body is not JSON: %q", tc.method, path, raw)
					}
					if code := envelopeCode(t, m); code != tc.wantCode {
						t.Fatalf("%s %s: code %q, want %q", tc.method, path, code, tc.wantCode)
					}
					ra, _ := m["retry_after_sec"].(float64)
					if backoff := tc.wantStatus == 429 || tc.wantStatus == 503; backoff != (resp.Header.Get("Retry-After") != "") || backoff != (ra > 0) {
						t.Errorf("status %d with Retry-After %q and retry_after_sec %v", tc.wantStatus, resp.Header.Get("Retry-After"), ra)
					}
				})
			}
		})
	}
	openGate()
}

// TestErrorEnvelopeDraining covers the draining rejection, which needs a
// dedicated server mid-shutdown.
func TestErrorEnvelopeDraining(t *testing.T) {
	h := newHarness(t, service.Config{Workers: 1, QueueDepth: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", `{"engine":"fast","params":{"workload":"164.gzip"}}`},
		{"/v1/sweeps", `{"sweep":{"engines":["fast"],"base":{"workload":"164.gzip"}}}`},
	} {
		st, m, _ := h.do("POST", tc.path, tc.body)
		if st != 503 {
			t.Fatalf("POST %s while draining: status %d (%v)", tc.path, st, m)
		}
		if code := envelopeCode(t, m); code != service.CodeDraining {
			t.Fatalf("POST %s while draining: code %q, want %q", tc.path, code, service.CodeDraining)
		}
	}
}

// TestListPagination exercises the cursor walk over /v1/jobs and
// /v1/sweeps on both backends: newest-first order, page boundaries,
// exhaustion, and the status filter.
func TestListPagination(t *testing.T) {
	for _, b := range conformanceBackends {
		t.Run(b.name, func(t *testing.T) { listPagination(t, b.new(t)) })
	}
}

func listPagination(t *testing.T, h *harness) {
	// submit posts body, waiting out 429s: the node backend's queue is one
	// deep, and on a loaded host its worker may not have taken the previous
	// submission yet.
	submit := func(path, body string) (int, map[string]any) {
		for {
			st, m, _ := h.do("POST", path, body)
			if st != http.StatusTooManyRequests {
				return st, m
			}
			time.Sleep(time.Millisecond)
		}
	}

	// 5 instantly-completing jobs with distinct params, submitted in order.
	var ids []string
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"engine":"svc-stub","params":{"workload":"164.gzip","max_instructions":%d}}`, 1000+i)
		st, m := submit("/v1/jobs", body)
		if st != http.StatusAccepted {
			t.Fatalf("submit %d: %d %v", i, st, m)
		}
		ids = append(ids, m["id"].(string))
	}
	waitDone := func(id string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			_, m, _ := h.do("GET", "/v1/jobs/"+id, "")
			if m["status"] == "done" {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("job %s never finished", id)
	}
	for _, id := range ids {
		waitDone(id)
	}

	listIDs := func(path string) ([]string, string) {
		t.Helper()
		st, raw := h.raw("GET", path, "")
		if st != 200 {
			t.Fatalf("GET %s: %d %s", path, st, raw)
		}
		var out struct {
			Jobs []struct {
				ID string `json:"id"`
			} `json:"jobs"`
			NextAfter string `json:"next_after"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var got []string
		for _, j := range out.Jobs {
			got = append(got, j.ID)
		}
		return got, out.NextAfter
	}

	// Full listing: newest first = reverse submission order.
	got, next := listIDs("/v1/jobs")
	if next != "" {
		t.Fatalf("full listing set next_after=%q", next)
	}
	if len(got) != 5 {
		t.Fatalf("full listing: %d jobs, want 5", len(got))
	}
	for i := range got {
		if want := ids[len(ids)-1-i]; got[i] != want {
			t.Fatalf("listing[%d] = %s, want %s (newest first)", i, got[i], want)
		}
	}

	// Page with limit=2: 2+2+1, cursors chaining, no overlap.
	var pages [][]string
	after := ""
	for {
		path := "/v1/jobs?limit=2"
		if after != "" {
			path += "&after=" + after
		}
		page, na := listIDs(path)
		pages = append(pages, page)
		if na == "" {
			break
		}
		after = na
	}
	if len(pages) != 3 || len(pages[0]) != 2 || len(pages[1]) != 2 || len(pages[2]) != 1 {
		t.Fatalf("page shape %v, want [2 2 1]", pages)
	}
	var walked []string
	for _, p := range pages {
		walked = append(walked, p...)
	}
	for i := range walked {
		if want := ids[len(ids)-1-i]; walked[i] != want {
			t.Fatalf("cursor walk[%d] = %s, want %s", i, walked[i], want)
		}
	}

	// Boundary: limit exactly the population → one page, no cursor (the
	// cursor only appears when more entries remain).
	got, next = listIDs("/v1/jobs?limit=5")
	if len(got) != 5 || next != "" {
		t.Fatalf("limit=5: %d jobs next_after=%q, want 5 and empty", len(got), next)
	}

	// Cursor past the oldest: empty page, no next_after.
	got, next = listIDs("/v1/jobs?after=" + ids[0])
	if len(got) != 0 || next != "" {
		t.Fatalf("after oldest: %v next=%q, want empty", got, next)
	}

	// Status filter: all done, none failed.
	if got, _ = listIDs("/v1/jobs?status=done"); len(got) != 5 {
		t.Fatalf("status=done: %d jobs, want 5", len(got))
	}
	if got, _ = listIDs("/v1/jobs?status=failed"); len(got) != 0 {
		t.Fatalf("status=failed: %v, want none", got)
	}

	// Sweeps listing: 3 sweeps, newest first, paginated at 2.
	var sweepIDs []string
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"sweep":{"engines":["svc-stub"],"base":{"workload":"164.gzip","max_instructions":%d}}}`, 2000+i)
		st, m := submit("/v1/sweeps", body)
		if st != http.StatusAccepted {
			t.Fatalf("sweep %d: %d %v", i, st, m)
		}
		sweepIDs = append(sweepIDs, m["id"].(string))
	}
	st, raw := h.raw("GET", "/v1/sweeps?limit=2", "")
	if st != 200 {
		t.Fatalf("GET /v1/sweeps: %d %s", st, raw)
	}
	var sl struct {
		Sweeps []struct {
			ID string `json:"id"`
		} `json:"sweeps"`
		NextAfter string `json:"next_after"`
	}
	if err := json.Unmarshal(raw, &sl); err != nil {
		t.Fatal(err)
	}
	if len(sl.Sweeps) != 2 || sl.Sweeps[0].ID != sweepIDs[2] || sl.Sweeps[1].ID != sweepIDs[1] {
		t.Fatalf("sweep page %v, want [%s %s]", sl.Sweeps, sweepIDs[2], sweepIDs[1])
	}
	if sl.NextAfter != sweepIDs[1] {
		t.Fatalf("sweep next_after %q, want %q", sl.NextAfter, sweepIDs[1])
	}
	st, raw = h.raw("GET", "/v1/sweeps?limit=2&after="+sl.NextAfter, "")
	if st != 200 {
		t.Fatalf("GET /v1/sweeps page 2: %d %s", st, raw)
	}
	sl.Sweeps, sl.NextAfter = nil, ""
	if err := json.Unmarshal(raw, &sl); err != nil {
		t.Fatal(err)
	}
	if len(sl.Sweeps) != 1 || sl.Sweeps[0].ID != sweepIDs[0] || sl.NextAfter != "" {
		t.Fatalf("sweep page 2 %v next=%q, want [%s] and no cursor", sl.Sweeps, sl.NextAfter, sweepIDs[0])
	}
}
