package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/service/diskcache"
	"repro/internal/sim"
)

// The job mix: an in-process fastd on a real loopback listener, driven by
// the typed client from closed-loop callers that share one seeded job list.
// A caller waiting for its result is a closed loop: the next job is sent
// only when the previous result is in, so a slower server receives less
// load.

const (
	mixProgram = "253.perlbmk" // boots in ~16k instructions, then user code
	mixClients = 2
	mixWorkers = 2
	mixQueue   = 64
	mixPoll    = 2 * time.Millisecond
	// mixPrefixBase/Step are the disk latencies of the prefilled boot
	// prefixes; cold jobs use mixColdBase+i, which no other job shares.
	mixPrefixBase = 200
	mixPrefixStep = 10
	mixColdBase   = 1000
)

type jobClass int

const (
	classCached jobClass = iota // resubmits a prefilled key
	classWarm                   // prefilled boot prefix, never-seen cap
	classCold                   // never-seen boot prefix
)

var classNames = [...]string{"cached", "warm", "cold"}

// mixJob is one generated input. Everything about it is a pure function of
// (seed, index): the server only ever sees Params.
type mixJob struct {
	Index  int
	Class  jobClass
	Key    int // classCached: index into the prefilled keys
	Params sim.Params
}

// cachedKeyParams is the k-th prefilled point: the keys spread round-robin
// over the boot prefixes, so prefilling them also captures every prefix's
// snapshot.
func cachedKeyParams(k int, sz sizes) sim.Params {
	return sim.Params{
		Workload:        mixProgram,
		DiskLatency:     mixPrefixBase + mixPrefixStep*(k%sz.MixPrefixes),
		MaxInstructions: sz.MixBaseCap + 2000 + 100*uint64(k/sz.MixPrefixes),
	}
}

// mixBlock is how many consecutive jobs hold the mix exactly: 8 cached, 7
// warm and 5 cold in every 20, in an order the seed decides. Drawing each
// job's class on its own would let the cold share of a run wander by ±6 %
// from seed to seed, and a cold job costs three warm ones.
const mixBlock = 20

func mixClassAt(seed uint64, i int) jobClass {
	var slots [mixBlock]jobClass
	for k := range slots {
		switch {
		case k < 8:
			slots[k] = classCached
		case k < 15:
			slots[k] = classWarm
		default:
			slots[k] = classCold
		}
	}
	h := splitmix(seed ^ uint64(i/mixBlock)*0x9e3779b97f4a7c15)
	for k := mixBlock - 1; k > 0; k-- {
		h = splitmix(h)
		j := int(h % uint64(k+1))
		slots[k], slots[j] = slots[j], slots[k]
	}
	return slots[i%mixBlock]
}

// mixJobAt generates job i: 40% cached, 35% warm, 25% cold.
func mixJobAt(seed uint64, i int, sz sizes) mixJob {
	h := splitmix(seed*0x9e3779b97f4a7c15 + uint64(i))
	j := mixJob{Index: i, Class: mixClassAt(seed, i)}
	switch j.Class {
	case classCached:
		j.Key = int((h >> 8) % uint64(sz.MixCachedKeys))
		j.Params = cachedKeyParams(j.Key, sz)
	case classWarm:
		// The cap is the job's position in a 1000-wide window that starts
		// where the seed says, and the prefix advances with the position and
		// once more with each wrap, so no (prefix, cap) pair repeats in
		// 1000×prefixes jobs and none collides with a cached key (those
		// caps start 2000 above the base).
		n := i + int(splitmix(seed)%1000)
		j.Params = sim.Params{
			Workload:        mixProgram,
			DiskLatency:     mixPrefixBase + mixPrefixStep*((n+n/1000)%sz.MixPrefixes),
			MaxInstructions: sz.MixBaseCap + 1000 + uint64(n%1000),
		}
	case classCold:
		j.Params = sim.Params{
			Workload:        mixProgram,
			DiskLatency:     mixColdBase + i,
			MaxInstructions: sz.MixBaseCap + (h>>8)%2000,
		}
	}
	return j
}

// mixServer is one fastd as cmd/fastd wires it: worker pool, bounded queue,
// memory LRU over a disk store in a temp directory, warm-start on.
type mixServer struct {
	srv     *service.Server
	httpd   *http.Server
	served  chan struct{}
	dir     string
	Base    string
	Prefill [][]byte // result bytes of the prefilled keys
}

// listen serves h on a fresh loopback port until the returned server is
// shut down; served closes when Serve has returned.
func listen(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	httpd := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		httpd.Serve(ln) // returns ErrServerClosed at stop
	}()
	return httpd, "http://" + ln.Addr().String(), served, nil
}

// startMixServer is the set-up of the job mix: temp dir, disk store, server,
// listener, and the prefill of the cached keys through the real client.
func startMixServer(sz sizes) (*mixServer, error) {
	dir, err := os.MkdirTemp("", "fastyard-mix-")
	if err != nil {
		return nil, err
	}
	store, err := diskcache.New(dir, 0, nil)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &mixServer{dir: dir}
	s.srv = service.New(service.Config{Workers: mixWorkers, QueueDepth: mixQueue, Store: store})
	if s.httpd, s.Base, s.served, err = listen(s.srv.Handler()); err != nil {
		s.stop()
		return nil, err
	}
	s.Prefill = make([][]byte, sz.MixCachedKeys)
	cli := newMixClient(s.Base)
	var next atomic.Int64
	errs := make(chan error, mixClients)
	for c := 0; c < mixClients; c++ {
		go func() {
			for {
				k := int(next.Add(1)) - 1
				if k >= sz.MixCachedKeys {
					errs <- nil
					return
				}
				smp := runJob(context.Background(), cli, mixJob{Class: classCold, Params: cachedKeyParams(k, sz)}, nil)
				if smp.Err != nil {
					errs <- fmt.Errorf("prefill key %d: %w", k, smp.Err)
					return
				}
				s.Prefill[k] = smp.Raw
			}
		}()
	}
	for c := 0; c < mixClients; c++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the server, closes the listener and removes the store.
func (s *mixServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.httpd != nil {
		s.httpd.Shutdown(ctx)
		<-s.served
	}
	if s.srv != nil {
		s.srv.Shutdown(ctx)
	}
	os.RemoveAll(s.dir)
}

func newMixClient(base string) *client.Client {
	cli := client.New(base)
	cli.Poll = mixPoll
	// One transport per client set, so idle connections can be dropped
	// when the run ends.
	cli.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixClients}}
	return cli
}

// jobSample is one job as its caller saw it.
type jobSample struct {
	Job     mixJob
	Latency time.Duration // submit → result bytes
	Raw     []byte
	Err     error

	// Traced runs only.
	Submit, Result, PollGap time.Duration
	View                    service.JobView
}

// runJob is the caller's side of one job: submit, then poll for the result
// exactly as client.WaitResult does. When rec is non-nil the caller's steps
// and the server's own timestamps become the job's spans.
func runJob(ctx context.Context, cli *client.Client, job mixJob, rec *spanRecorder) jobSample {
	smp := jobSample{Job: job}
	t0 := time.Now()
	view, err := cli.SubmitParams(ctx, "fast", job.Params, 0)
	t1 := time.Now()
	if err != nil {
		smp.Err = err
		return smp
	}
	var tg, tr time.Time
	for {
		tg = time.Now()
		raw, ok, err := cli.JobResult(ctx, view.ID)
		tr = time.Now()
		if err != nil {
			smp.Err = err
			return smp
		}
		if ok {
			smp.Raw = raw
			break
		}
		time.Sleep(cli.Poll)
	}
	smp.Latency = tr.Sub(t0)
	if rec == nil {
		return smp
	}
	if smp.View, err = cli.Job(ctx, view.ID); err != nil {
		smp.Err = err
		return smp
	}
	smp.Submit, smp.Result = t1.Sub(t0), tr.Sub(tg)
	trace := fmt.Sprintf("%s/job%d", mixName, job.Index)
	root := rec.add("client.job."+classNames[job.Class], trace, 0, t0, tr)
	rec.add("client.submit", trace, root, t0, t1)
	if v := smp.View; !v.Cached {
		rec.add("service.queue", trace, root, v.SubmittedAt, v.StartedAt)
		rec.add("service.engine", trace, root, v.StartedAt, v.FinishedAt)
		rec.add("client.poll_gap", trace, root, v.FinishedAt, tg)
		smp.PollGap = tg.Sub(v.FinishedAt)
	}
	rec.add("client.result", trace, root, tg, tr)
	return smp
}

// mixOutcome is the raw outcome of one timed region of the mix.
type mixOutcome struct {
	Samples  []jobSample
	Elapsed  time.Duration // first submit → last result, summed over the segments
	AtRef    time.Duration // Elapsed at the reference host speed
	AllocB   uint64
	Before   map[string]float64 // /metrics scrape before the region
	After    map[string]float64
	Failures []string
}

// mixSegment is how long the clients run between two readings of the host's
// speed. At a segment's end each client finishes the job it holds, so about
// half a job's latency of one client idles per segment: 0.5 % of 3 s.
const mixSegment = 3 * time.Second

// runMix drives the mix for budget (or for exactly sz.MixJobs jobs when that
// is set), starting at job index first. The region is cut into segments with
// a reading of the host's speed between them.
func runMix(s *mixServer, clock *hostClock, sz sizes, seed uint64, first int, budget time.Duration, rec *spanRecorder) mixOutcome {
	cli := newMixClient(s.Base)
	defer cli.HTTP.CloseIdleConnections()
	ctx := context.Background()
	out := mixOutcome{Before: scrape(ctx, cli)}
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	clock.mark()
	for end := time.Now().Add(budget); ; {
		deadline := time.Now().Add(mixSegment)
		if deadline.After(end) {
			deadline = end
		}
		a0 := allocated()
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < mixClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if sz.MixJobs == 0 && !time.Now().Before(deadline) {
						return
					}
					i := int(next.Add(1)) - 1
					if sz.MixJobs > 0 && i >= first+sz.MixJobs {
						return
					}
					smp := runJob(ctx, cli, mixJobAt(seed, i, sz), rec)
					mu.Lock()
					out.Samples = append(out.Samples, smp)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		out.AllocB += allocated() - a0
		out.Elapsed += elapsed
		out.AtRef += time.Duration(float64(elapsed) * clock.lap())
		if sz.MixJobs > 0 || !time.Now().Before(end) {
			break
		}
	}
	out.After = scrape(ctx, cli)
	return out
}

// scrape reads the server's Prometheus dump into name → value.
func scrape(ctx context.Context, cli *client.Client) map[string]float64 {
	out := map[string]float64{}
	raw, err := cli.Metrics(ctx)
	if err != nil {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out
}

// verifyMix checks the outputs of a region: every job must have succeeded,
// every cached job must return its prefill bytes, and a seeded sample of
// the warm and cold jobs, re-run through plain sim.Run with no snapshot
// store and no service, must match byte for byte.
func verifyMix(s *mixServer, out *mixOutcome, sz sizes, seed uint64) (attempted, failed int) {
	fail := func(smp *jobSample, format string, args ...any) {
		if smp.Err == nil {
			smp.Err = fmt.Errorf(format, args...)
		}
		failed++
		out.Failures = append(out.Failures, fmt.Sprintf("job %d (%s): %v", smp.Job.Index, classNames[smp.Job.Class], smp.Err))
	}
	var engineRun []*jobSample
	for i := range out.Samples {
		smp := &out.Samples[i]
		attempted++
		switch {
		case smp.Err != nil:
			fail(smp, "")
		case smp.Job.Class == classCached && !bytes.Equal(smp.Raw, s.Prefill[smp.Job.Key]):
			fail(smp, "cached result differs from its prefill bytes")
		case smp.Job.Class != classCached:
			engineRun = append(engineRun, smp)
		}
	}
	// Seeded sample without replacement: a partial Fisher-Yates shuffle.
	n := sz.MixVerify
	if n > len(engineRun) {
		n = len(engineRun)
	}
	h := seed
	points := make([]sim.Point, n)
	for k := 0; k < n; k++ {
		h = splitmix(h)
		pick := k + int(h%uint64(len(engineRun)-k))
		engineRun[k], engineRun[pick] = engineRun[pick], engineRun[k]
		points[k] = sim.Point{Engine: "fast", Params: engineRun[k].Job.Params}
	}
	for k, pr := range (sim.Fleet{Workers: mixWorkers}).Run(points) {
		want, err := json.Marshal(pr.Result)
		switch {
		case pr.Err != nil:
			fail(engineRun[k], "reference run: %v", pr.Err)
		case err != nil:
			fail(engineRun[k], "encode reference: %v", err)
		case !bytes.Equal(want, engineRun[k].Raw):
			fail(engineRun[k], "result differs from a plain sim.Run of the same point")
		}
	}
	return attempted, failed
}

// latencies returns the submit→result latencies, in ms, of the successful
// jobs of one class (or of all classes for class < 0).
func (o mixOutcome) latencies(class jobClass) []float64 {
	var ms []float64
	for _, smp := range o.Samples {
		if smp.Err == nil && (class < 0 || smp.Job.Class == class) {
			ms = append(ms, float64(smp.Latency.Nanoseconds())/1e6)
		}
	}
	return ms
}

// delivered sums the committed instructions of every returned result.
func (o mixOutcome) delivered() (inst uint64, jobs int) {
	for _, smp := range o.Samples {
		if smp.Err != nil {
			continue
		}
		var r struct {
			Instructions uint64 `json:"instructions"`
		}
		if json.Unmarshal(smp.Raw, &r) == nil {
			inst += r.Instructions
			jobs++
		}
	}
	return inst, jobs
}

// mixEndToEnd folds a timed region into the end-to-end metrics (set-up time
// is the caller's). Wall time counts at the reference host speed.
func mixEndToEnd(o mixOutcome) map[string]float64 {
	inst, jobs := o.delivered()
	secs := o.AtRef.Seconds()
	return map[string]float64{
		"host_kips":          ratio(float64(inst), secs) / 1e3,
		"alloc_mb_per_minst": ratio(float64(o.AllocB), float64(inst)),
		"points_per_s":       ratio(float64(jobs), secs),
	}
}

// mixLayers folds a traced region into the service-layer metrics.
func mixLayers(o mixOutcome) map[string]float64 {
	var submit, result, queue, gap, engCold, engWarm []float64
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for _, smp := range o.Samples {
		if smp.Err != nil {
			continue
		}
		submit = append(submit, us(smp.Submit))
		result = append(result, us(smp.Result))
		v := smp.View
		if v.Cached {
			continue
		}
		queue = append(queue, ms(v.StartedAt.Sub(v.SubmittedAt)))
		gap = append(gap, ms(smp.PollGap))
		if eng := ms(v.FinishedAt.Sub(v.StartedAt)); smp.Job.Class == classCold {
			engCold = append(engCold, eng)
		} else {
			engWarm = append(engWarm, eng)
		}
	}
	delta := func(name string) float64 { return o.After[name] - o.Before[name] }
	all := o.latencies(-1)
	tail := tailPercentile(len(all))
	return map[string]float64{
		"service.submit_us_p50":      median(submit),
		"service.result_us_p50":      median(result),
		"service.cached_job_ms_p50":  median(o.latencies(classCached)),
		"service.warm_job_ms_p50":    median(o.latencies(classWarm)),
		"service.cold_job_ms_p50":    median(o.latencies(classCold)),
		"service.queue_wait_ms_p50":  median(queue),
		"service.engine_ms_p50_cold": median(engCold),
		"service.engine_ms_p50_warm": median(engWarm),
		"service.poll_gap_ms_p50":    median(gap),
		"service.cache_hit_ratio": ratio(delta("service_cache_hits_total"),
			delta("service_cache_hits_total")+delta("service_cache_misses_total")),
		"service.snapshot_hit_ratio": ratio(delta("service_snapshot_hits_total"),
			delta("service_snapshot_hits_total")+delta("service_snapshot_misses_total")),
		"service.engine_runs":  delta("service_engine_runs_total"),
		"service.job_ms_tail":  percentile(all, float64(tail)),
		"service.job_tail_pct": float64(tail),
		"service.jobs_n":       float64(len(all)),
	}
}
