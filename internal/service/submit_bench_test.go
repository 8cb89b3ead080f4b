package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// Layer benchmark for the job service alone: one op is submit → result
// through the v1 handlers (decode, validate, key, admit, queue, worker,
// result cache, encode) with the instant fake engine behind them, so no
// simulation time dilutes it. Every job is a distinct cache miss. Run it
// time-based (make bench-layers), never 1x.
func BenchmarkSubmitResult(b *testing.B) {
	srv := service.New(service.Config{Workers: 1, QueueDepth: 8})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	h := srv.Handler()
	call := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := call("POST", "/v1/jobs", fmt.Sprintf(`{"engine":"svc-stub","params":{"workload":"164.gzip","max_instructions":%d}}`, i+1))
		if w.Code != http.StatusAccepted {
			b.Fatalf("submit: %d %s", w.Code, w.Body)
		}
		var view struct{ ID string }
		if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
			b.Fatal(err)
		}
		for {
			w = call("GET", "/v1/jobs/"+view.ID+"/result", "")
			if w.Code == http.StatusOK {
				break
			}
			if w.Code != http.StatusAccepted {
				b.Fatalf("result: %d %s", w.Code, w.Body)
			}
			runtime.Gosched() // the worker goroutine has the job
		}
	}
}
