package service

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// Collection listing: GET /v1/jobs and GET /v1/sweeps enumerate accepted
// work newest-first with cursor pagination, so operators can inspect the
// backlog without scraping metrics.
//
// Query parameters (shared by both endpoints):
//
//	status= filter to one job/sweep state (jobs: queued|running|done|
//	        failed|canceled; sweeps: running|done). Empty = all.
//	limit=  page size, 1..MaxListLimit; 0/absent = DefaultListLimit.
//	after=  cursor: return entries strictly older than this id (the
//	        next_after value of the previous page). Absent = newest.
//
// The response carries next_after only while older matching entries
// remain, so a client pages with `after = next_after` until it is empty.
const (
	DefaultListLimit = 50
	MaxListLimit     = 500
)

// JobList is the GET /v1/jobs body.
type JobList struct {
	Jobs      []JobView `json:"jobs"`
	NextAfter string    `json:"next_after,omitempty"`
}

// SweepList is the GET /v1/sweeps body.
type SweepList struct {
	Sweeps    []SweepView `json:"sweeps"`
	NextAfter string      `json:"next_after,omitempty"`
}

// listQuery is the parsed ?status=&limit=&after= triple. afterSeq is the
// cursor id's admission sequence number; 0 means "start at newest".
type listQuery struct {
	status   string
	limit    int
	afterSeq uint64
}

// parseListQuery validates the shared listing parameters. knownStatus
// guards the status filter (job and sweep states differ); the after cursor
// is any well-formed id — it need not name a live entry, so a page cursor
// stays valid even if its last entry is gone by the next request.
func parseListQuery(v url.Values, knownStatus func(string) bool) (listQuery, error) {
	q := listQuery{status: v.Get("status"), limit: DefaultListLimit}
	if q.status != "" && !knownStatus(q.status) {
		return q, Errorf(http.StatusBadRequest, CodeBadParams, "unknown status %q", q.status)
	}
	if raw := v.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return q, Errorf(http.StatusBadRequest, CodeBadParams, "limit must be a non-negative integer, got %q", raw)
		}
		if n > 0 {
			q.limit = min(n, MaxListLimit)
		}
	}
	if after := v.Get("after"); after != "" {
		seq, err := idSeq(after)
		if err != nil {
			return q, Errorf(http.StatusBadRequest, CodeBadParams, "%v", err)
		}
		q.afterSeq = seq
	}
	return q, nil
}

// idSeq recovers the admission sequence number from a job/sweep id
// ("job-000123" → 123). Ordering by the numeric suffix instead of the id
// string keeps newest-first correct past the %06d formatting width.
func idSeq(id string) (uint64, error) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0, fmt.Errorf("malformed id %q", id)
	}
	n, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed id %q", id)
	}
	return n, nil
}

// knownSweepStatus guards the sweep list filter: a sweep is only ever
// running (some child not settled) or done.
func knownSweepStatus(status string) bool {
	return status == StatusRunning || status == StatusDone
}

// page is the one newest-first cursor pager: it keeps the rows matching
// the status filter and older than the cursor, orders them by the
// admission sequence their ids carry, and cuts one page. next is set only
// while older matching rows remain. key returns a row's (id, status).
func page[T any](rows []T, q listQuery, key func(T) (id, status string)) (out []T, next string) {
	type keyed struct {
		seq uint64
		row T
	}
	kept := make([]keyed, 0, len(rows))
	for _, row := range rows {
		id, status := key(row)
		seq, _ := idSeq(id)
		if (q.afterSeq != 0 && seq >= q.afterSeq) || (q.status != "" && status != q.status) {
			continue
		}
		kept = append(kept, keyed{seq, row})
	}
	sort.Slice(kept, func(i, k int) bool { return kept[i].seq > kept[k].seq })
	out = make([]T, 0, min(len(kept), q.limit))
	for _, k := range kept {
		if len(out) == q.limit {
			next, _ = key(out[len(out)-1])
			break
		}
		out = append(out, k.row)
	}
	return out, next
}
