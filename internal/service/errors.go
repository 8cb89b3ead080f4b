package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Stable machine-readable error codes. Every non-2xx /v1 response carries
// exactly one of these in its APIError envelope; clients dispatch on the code, the
// message is for humans. Codes are part of the API contract (DESIGN.md
// §11): add freely, never rename or repurpose.
const (
	// CodeBadParams: the request body failed strict decoding or parameter
	// validation (unknown fields, trailing data, out-of-range values,
	// unknown workloads, malformed query parameters).
	CodeBadParams = "bad_params"
	// CodeUnknownEngine: the engine name is not in the registry.
	CodeUnknownEngine = "unknown_engine"
	// CodeQueueFull: the bounded job queue has no free slot (or not enough
	// free slots for a whole sweep). Retry after RetryAfterSec.
	CodeQueueFull = "queue_full"
	// CodeDraining: the server is shutting down and refuses new work.
	CodeDraining = "draining"
	// CodeNotFound: no job/sweep with that id.
	CodeNotFound = "not_found"
	// CodeConflict: the request is valid but the resource's state forbids
	// it (cancelling a terminal job, reading the result of a failed one).
	CodeConflict = "conflict"
	// CodeInternal: the server broke; the message says how.
	CodeInternal = "internal"
	// CodeNodeUnavailable (cluster only): the worker node owning the
	// resource is unreachable and the coordinator has no replacement yet.
	CodeNodeUnavailable = "node_unavailable"
)

// APIError is the one error type of the /v1 API, end to end: backends
// return it, the shared handlers write it as the response envelope, and the
// typed client decodes that envelope back into it (client.APIError is an
// alias), so a node-side rejection crosses the coordinator unchanged. Every
// non-2xx /v1 response body is exactly its JSON form. Code is stable and
// machine-readable (the Code* constants); RetryAfterSec, when non-zero,
// mirrors the Retry-After header on 429/503 responses.
type APIError struct {
	Status        int    `json:"-"` // HTTP status code
	Code          string `json:"code"`
	Message       string `json:"message"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s (http %d): %s", e.Code, e.Status, e.Message)
}

// Errorf builds an APIError with a formatted message.
func Errorf(status int, code, format string, args ...any) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// NotFound is the rejection for an id no backend table holds; kind is
// "job" or "sweep".
func NotFound(kind, id string) *APIError {
	return Errorf(http.StatusNotFound, CodeNotFound, "no %s %q", kind, id)
}

// writeError is the one error→envelope mapping: an *APIError is written
// as-is (with its Retry-After header when it carries a hint), anything
// else is a 500 internal.
func writeError(w http.ResponseWriter, err error) {
	var ae *APIError
	if !errors.As(err, &ae) {
		ae = Errorf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
	if ae.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", ae.RetryAfterSec))
	}
	WriteJSON(w, ae.Status, ae)
}

// WriteJSON writes v as a compact JSON body with a trailing newline — the
// canonical response framing of the whole /v1 surface.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
