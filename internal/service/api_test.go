package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

// fakeBackend is a service.Backend of canned answers: no engines, no
// queue, no nodes. It is what lets the shared handlers be tested as a
// layer of their own.
type fakeBackend struct {
	jobs    map[string]service.JobState
	sweeps  map[string]service.SweepState
	err     error // when set, every fallible operation fails with it
	health  service.Health
	tel     *obs.Telemetry
	submits int
}

func (f *fakeBackend) SubmitJob(context.Context, sim.Point, time.Duration) (service.JobView, error) {
	f.submits++
	return service.JobView{ID: "job-000001", Status: service.StatusQueued}, f.err
}
func (f *fakeBackend) Job(_ context.Context, id string) (service.JobState, error) {
	return f.jobs[id], f.err
}
func (f *fakeBackend) CancelJob(_ context.Context, id string) (service.JobView, error) {
	return f.jobs[id].View, f.err
}
func (f *fakeBackend) Jobs() (out []service.JobView) {
	for _, j := range f.jobs {
		out = append(out, j.View)
	}
	return out
}
func (f *fakeBackend) SubmitSweep(_ context.Context, points []sim.Point, _ time.Duration) (service.SweepState, error) {
	f.submits++
	return service.SweepState{ID: "sweep-000001", Points: points, Children: make([]service.JobState, len(points))}, f.err
}
func (f *fakeBackend) Sweep(_ context.Context, id string) (service.SweepState, error) {
	return f.sweeps[id], f.err
}
func (f *fakeBackend) Sweeps() (out []service.SweepState) {
	for _, sw := range f.sweeps {
		out = append(out, sw)
	}
	return out
}
func (f *fakeBackend) Health() service.Health    { return f.health }
func (f *fakeBackend) Telemetry() *obs.Telemetry { return f.tel }

// call drives one request through NewMux(f) without a socket.
func call(f *fakeBackend, method, path, body string) (*http.Response, string) {
	if f.tel == nil {
		f.tel = obs.New()
	}
	rec := httptest.NewRecorder()
	service.NewMux(f).ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	resp := rec.Result()
	raw, _ := io.ReadAll(resp.Body)
	return resp, string(raw)
}

func jobState(id, status string, raw string) service.JobState {
	st := service.JobState{View: service.JobView{ID: id, Status: status}}
	if raw != "" {
		st.Raw = []byte(raw)
	}
	return st
}

// TestHandlersErrorMapping: whatever error a backend returns, the shared
// layer answers the envelope — an *APIError with its own status, code and
// Retry-After (wrapped or not), anything else as 500 internal — on every
// operation that can fail.
func TestHandlersErrorMapping(t *testing.T) {
	classes := []struct {
		err        error
		status     int
		code       string
		retryAfter string
	}{
		{service.Errorf(400, service.CodeBadParams, "bad"), 400, service.CodeBadParams, ""},
		{service.NotFound("job", "job-000009"), 404, service.CodeNotFound, ""},
		{service.Errorf(409, service.CodeConflict, "already done"), 409, service.CodeConflict, ""},
		{&service.APIError{Status: 429, Code: service.CodeQueueFull, Message: "full", RetryAfterSec: 3}, 429, service.CodeQueueFull, "3"},
		{&service.APIError{Status: 503, Code: service.CodeDraining, Message: "bye", RetryAfterSec: 10}, 503, service.CodeDraining, "10"},
		{fmt.Errorf("placing: %w", &service.APIError{Status: 503, Code: service.CodeNodeUnavailable, Message: "none", RetryAfterSec: 2}), 503, service.CodeNodeUnavailable, "2"},
		{errors.New("disk on fire"), 500, service.CodeInternal, ""},
	}
	ops := []struct{ method, path, body string }{
		{"POST", "/v1/jobs", `{"engine":"fast","params":{"workload":"164.gzip"}}`},
		{"GET", "/v1/jobs/job-000001", ""},
		{"GET", "/v1/jobs/job-000001/result", ""},
		{"DELETE", "/v1/jobs/job-000001", ""},
		{"POST", "/v1/sweeps", `{"sweep":{"base":{"workload":"164.gzip"}}}`},
		{"GET", "/v1/sweeps/sweep-000001", ""},
		{"GET", "/v1/sweeps/sweep-000001/result", ""},
	}
	for _, c := range classes {
		for _, op := range ops {
			resp, body := call(&fakeBackend{err: c.err}, op.method, op.path, op.body)
			var env service.APIError
			if err := json.Unmarshal([]byte(body), &env); err != nil {
				t.Fatalf("%s %s on %v: body %q is not an envelope", op.method, op.path, c.err, body)
			}
			if resp.StatusCode != c.status || env.Code != c.code || env.Message == "" ||
				resp.Header.Get("Retry-After") != c.retryAfter ||
				resp.Header.Get("Content-Type") != "application/json" {
				t.Errorf("%s %s on %v: %d %q Retry-After=%q Content-Type=%q, want %d %q %q",
					op.method, op.path, c.err, resp.StatusCode, body, resp.Header.Get("Retry-After"),
					resp.Header.Get("Content-Type"), c.status, c.code, c.retryAfter)
			}
		}
	}
}

// TestHandlersRejectBeforeBackend: a submission that fails decoding or
// validation never reaches the backend, and is counted as invalid in the
// backend's registry.
func TestHandlersRejectBeforeBackend(t *testing.T) {
	f := &fakeBackend{}
	for _, req := range []struct{ path, body string }{
		{"/v1/jobs", `{`},
		{"/v1/jobs", `{"engine":"fast","params":{}} trailing`},
		{"/v1/jobs", `{"engine":"fast","params":{"frobnicate":1}}`},
		{"/v1/jobs", `{"engine":"warp-drive","params":{}}`},
		{"/v1/jobs", `{"engine":"fast","params":{"workload":"no-such-workload"}}`},
		{"/v1/jobs", `{"engine":"fast","params":{"workload":"` + strings.Repeat("x", 1<<20) + `"}}`},
		{"/v1/sweeps", `{"sweep":{"engines":["warp-drive"]}}`},
		{"/v1/sweeps", `{"sweep":{"workloads":["164.gzip","no-such-workload"]}}`},
	} {
		if resp, body := call(f, "POST", req.path, req.body); resp.StatusCode != 400 {
			t.Errorf("POST %s %.60q: %d %s", req.path, req.body, resp.StatusCode, body)
		}
	}
	if f.submits != 0 {
		t.Errorf("%d invalid submissions reached the backend", f.submits)
	}
	if got := f.tel.Metrics.Counter(obs.L("service_jobs_rejected_total", "reason", "invalid")).Value(); got != 8 {
		t.Errorf("rejected{invalid} = %d, want 8", got)
	}
	if resp, body := call(f, "POST", "/v1/jobs", `{"engine":"fast","params":{"workload":"164.gzip"}}`); resp.StatusCode != 202 || f.submits != 1 {
		t.Errorf("valid submission: %d %s (submits=%d)", resp.StatusCode, body, f.submits)
	}
}

// TestHandlersResultFraming: 202 + view while the job is unsettled — which
// includes "done" before the bytes are resident — 200 + the exact bytes +
// newline once done, 409 for the other terminal states.
func TestHandlersResultFraming(t *testing.T) {
	f := &fakeBackend{jobs: map[string]service.JobState{
		"job-000001": jobState("job-000001", service.StatusQueued, ""),
		"job-000002": jobState("job-000002", service.StatusRunning, ""),
		"job-000003": jobState("job-000003", service.StatusDone, ""),
		"job-000004": jobState("job-000004", service.StatusDone, `{"ipc": 0.5 }`),
		"job-000005": jobState("job-000005", service.StatusFailed, ""),
		"job-000006": jobState("job-000006", service.StatusCanceled, ""),
	}}
	for id, want := range map[string]int{
		"job-000001": 202, "job-000002": 202, "job-000003": 202,
		"job-000004": 200, "job-000005": 409, "job-000006": 409,
	} {
		resp, body := call(f, "GET", "/v1/jobs/"+id+"/result", "")
		if resp.StatusCode != want {
			t.Errorf("%s result: %d, want %d (%s)", id, resp.StatusCode, want, body)
		}
		switch want {
		case 200:
			if body != `{"ipc": 0.5 }`+"\n" {
				t.Errorf("%s result body %q is not the backend's bytes + newline", id, body)
			}
		case 202:
			if !strings.Contains(body, `"id":"`+id+`"`) {
				t.Errorf("%s pending body %q is not the job view", id, body)
			}
		}
	}
}

// TestHandlersSweepAggregation: the roll-up stays running until every
// child has settled; the aggregation is then assembled in spec order from
// the children's views and bytes.
func TestHandlersSweepAggregation(t *testing.T) {
	points := sim.Sweep{Workloads: []string{"164.gzip", "176.gcc", "181.mcf"}}.Points()
	sw := service.SweepState{ID: "sweep-000001", Points: points, Children: []service.JobState{
		jobState("job-000002", service.StatusDone, `{"n":0}`),
		jobState("job-000003", service.StatusDone, ""), // done, bytes not pulled yet
		jobState("job-000004", service.StatusFailed, ""),
	}}
	sw.Children[0].View.Cached = true
	sw.Children[2].View.Error = "boom"
	f := &fakeBackend{sweeps: map[string]service.SweepState{sw.ID: sw}}

	resp, body := call(f, "GET", "/v1/sweeps/sweep-000001/result", "")
	var view service.SweepView
	if err := json.Unmarshal([]byte(body), &view); err != nil || resp.StatusCode != 202 {
		t.Fatalf("unsettled sweep: %d %s", resp.StatusCode, body)
	}
	if view.Status != service.StatusRunning || view.Total != 3 || view.Cached != 1 ||
		view.ByStatus[service.StatusDone] != 2 || view.ByStatus[service.StatusFailed] != 1 ||
		strings.Join(view.JobIDs, ",") != "job-000002,job-000003,job-000004" {
		t.Fatalf("roll-up = %+v", view)
	}

	sw.Children[1].Raw = []byte(`{"n":1}`)
	if resp, body = call(f, "GET", "/v1/sweeps/sweep-000001", ""); resp.StatusCode != 200 || !strings.Contains(body, `"status":"done"`) {
		t.Fatalf("settled sweep view: %d %s", resp.StatusCode, body)
	}
	resp, body = call(f, "GET", "/v1/sweeps/sweep-000001/result", "")
	want := `{"id":"sweep-000001","results":[` +
		`{"index":0,"job_id":"job-000002","point":"fast/164.gzip","cached":true,"result":{"n":0}},` +
		`{"index":1,"job_id":"job-000003","point":"fast/176.gcc","cached":false,"result":{"n":1}},` +
		`{"index":2,"job_id":"job-000004","point":"fast/181.mcf","cached":false,"error":"boom"}]}` + "\n"
	if resp.StatusCode != 200 || body != want {
		t.Fatalf("aggregation: %d\n got %s\nwant %s", resp.StatusCode, body, want)
	}
}

// TestHandlersPaging: newest first by the sequence the ids carry (past the
// %06d width too), next_after only while older matching rows remain, and
// a cursor naming an id the backend no longer holds still pages — the
// property bounded job tables will need.
func TestHandlersPaging(t *testing.T) {
	f := &fakeBackend{jobs: map[string]service.JobState{}, sweeps: map[string]service.SweepState{}}
	for _, n := range []int{1, 2, 3, 5, 8, 1000000} {
		id := fmt.Sprintf("job-%06d", n)
		status := service.StatusDone
		if n%2 == 0 {
			status = service.StatusFailed
		}
		f.jobs[id] = jobState(id, status, "")
	}
	list := func(query string) (ids []string, next string) {
		t.Helper()
		resp, body := call(f, "GET", "/v1/jobs"+query, "")
		var out service.JobList
		if err := json.Unmarshal([]byte(body), &out); err != nil || resp.StatusCode != 200 || out.Jobs == nil {
			t.Fatalf("GET /v1/jobs%s: %d %s", query, resp.StatusCode, body)
		}
		for _, j := range out.Jobs {
			ids = append(ids, j.ID)
		}
		return ids, out.NextAfter
	}
	for _, tc := range []struct{ query, want, next string }{
		{"", "job-1000000,job-000008,job-000005,job-000003,job-000002,job-000001", ""},
		{"?limit=6", "job-1000000,job-000008,job-000005,job-000003,job-000002,job-000001", ""},
		{"?limit=4", "job-1000000,job-000008,job-000005,job-000003", "job-000003"},
		{"?limit=4&after=job-000003", "job-000002,job-000001", ""},
		{"?after=job-000007", "job-000005,job-000003,job-000002,job-000001", ""}, // job-000007 was never there
		{"?after=job-000001", "", ""},
		{"?status=failed&limit=2", "job-1000000,job-000008", "job-000008"},
		{"?status=failed&limit=2&after=job-000008", "job-000002", ""},
		{"?status=queued", "", ""},
	} {
		ids, next := list(tc.query)
		if strings.Join(ids, ",") != tc.want || next != tc.next {
			t.Errorf("GET /v1/jobs%s = %v next=%q, want %s next=%q", tc.query, ids, next, tc.want, tc.next)
		}
	}

	// Sweeps page through the same function; their status is the roll-up.
	f.sweeps["sweep-000004"] = service.SweepState{ID: "sweep-000004", Children: []service.JobState{jobState("job-000005", service.StatusRunning, "")}}
	f.sweeps["sweep-000006"] = service.SweepState{ID: "sweep-000006", Children: []service.JobState{jobState("job-000007", service.StatusFailed, "")}}
	for query, want := range map[string]string{
		"?limit=1":        `{"sweeps":[{"id":"sweep-000006","status":"done",`,
		"?status=running": `{"sweeps":[{"id":"sweep-000004","status":"running",`,
	} {
		if _, body := call(f, "GET", "/v1/sweeps"+query, ""); !strings.HasPrefix(body, want) {
			t.Errorf("GET /v1/sweeps%s = %s, want prefix %s", query, body, want)
		}
	}
	if _, body := call(f, "GET", "/v1/sweeps?limit=1", ""); !strings.Contains(body, `"next_after":"sweep-000006"`) {
		t.Errorf("first sweep page of two has no cursor: %s", body)
	}
}

// TestHandlersHealthAndCatchAll: /healthz answers 503 for any status but
// ok, and whatever no route matches is the not_found envelope.
func TestHandlersHealthAndCatchAll(t *testing.T) {
	if resp, _ := call(&fakeBackend{health: service.Health{Status: "ok", QueueDepth: 2}}, "GET", "/healthz", ""); resp.StatusCode != 200 {
		t.Errorf("healthy: %d", resp.StatusCode)
	}
	if resp, body := call(&fakeBackend{health: service.Health{Status: "draining"}}, "GET", "/healthz", ""); resp.StatusCode != 503 || !strings.Contains(body, `"status":"draining"`) {
		t.Errorf("draining: %d %s", resp.StatusCode, body)
	}
	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/nope"}, {"PUT", "/v1/jobs"}, {"POST", "/v1/jobs/job-000001"}, {"GET", "/v1/snapshots"}, {"GET", "/"},
	} {
		resp, body := call(&fakeBackend{}, req.method, req.path, "")
		if resp.StatusCode != 404 || resp.Header.Get("Content-Type") != "application/json" || !strings.HasPrefix(body, `{"code":"not_found","message":"`) {
			t.Errorf("%s %s: %d %q %s", req.method, req.path, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
	}
}
