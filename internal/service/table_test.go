package service_test

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/sim"
)

// TestTable: jobs and sweeps draw their ids from one admission sequence,
// unknown ids answer a not_found envelope naming the kind, Each and Len
// see exactly what was added, and the listings report each record as it
// stands now, not as it was added.
func TestTable(t *testing.T) {
	var tb service.Table[*service.JobState]
	job := func() *service.JobState {
		j := &service.JobState{View: service.JobView{ID: tb.NextJobID(), Status: service.StatusQueued}}
		tb.Add(j)
		return j
	}

	first := job()
	sw := tb.NewSweep(sim.Sweep{Workloads: []string{"164.gzip"}}.Points())
	child := job()
	sw.Children[0] = child
	tb.AddSweep(sw)
	if got := first.View.ID + "," + sw.ID + "," + child.View.ID; got != "job-000001,sweep-000002,job-000003" {
		t.Fatalf("minted %s, want one sequence job-000001,sweep-000002,job-000003", got)
	}

	for _, lookup := range []struct {
		kind string
		err  error
	}{
		{"job", func() error { _, err := tb.Job("job-000002"); return err }()},
		{"sweep", func() error { _, err := tb.Sweep("sweep-000001"); return err }()},
	} {
		var ae *service.APIError
		if !errors.As(lookup.err, &ae) || ae.Status != 404 || ae.Code != service.CodeNotFound ||
			!strings.HasPrefix(ae.Message, "no "+lookup.kind+" ") {
			t.Errorf("unknown %s: %v, want a not_found envelope naming the kind", lookup.kind, lookup.err)
		}
	}
	if j, err := tb.Job(child.View.ID); err != nil || j != child {
		t.Errorf("Job(%s) = %p, %v; want the record added", child.View.ID, j, err)
	}
	if got, err := tb.Sweep(sw.ID); err != nil || got != sw {
		t.Errorf("Sweep(%s) = %p, %v; want the record added", sw.ID, got, err)
	}

	var each []string
	tb.Each(func(j *service.JobState) { each = append(each, j.View.ID) })
	sort.Strings(each)
	if jobs, sweeps := tb.Len(); jobs != 2 || sweeps != 1 || strings.Join(each, ",") != "job-000001,job-000003" {
		t.Errorf("Len = %d jobs, %d sweeps; Each saw %v", jobs, sweeps, each)
	}

	child.View.Status, child.Raw = service.StatusDone, []byte(`{}`)
	status := map[string]string{}
	for _, v := range tb.Jobs() {
		status[v.ID] = v.Status
	}
	if status["job-000001"] != service.StatusQueued || status["job-000003"] != service.StatusDone || len(status) != 2 {
		t.Errorf("Jobs reports %v, want job-000001 queued and job-000003 done", status)
	}
	sweeps := tb.Sweeps()
	if len(sweeps) != 1 || sweeps[0].ID != sw.ID || len(sweeps[0].Children) != 1 || !sweeps[0].Children[0].Settled() {
		t.Errorf("Sweeps = %+v, want %s with its one child settled", sweeps, sw.ID)
	}
}
