package main

import (
	"math"
	"sort"
)

// metricDef is one row of the benchmark's metric tables. The end-to-end rows
// mirror BENCHMARK.json (bench_test.go holds the two together); per-layer
// rows carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	Bound  float64
}

// endToEnd are the metrics a user of the system sees, measured untraced.
// Every workload reports every one of them (the driver contract), so each
// has one definition that holds on a simulator run and on the service mix:
// an operation is one complete repetition of the workload's simulator
// point(s), or one job.
//
// Wall times count at the reference host speed (hostspeed.go). The bounds on
// the host-time metrics are as wide as the contract allows: three times the
// usual run-to-run spread on the 2-core sandbox after scaling and 1.6 times
// the worst seen (README, "Numbers at this commit"). The allocation metric repeats to six digits on
// the simulator workloads and keeps a tight bound.
var endToEnd = []metricDef{
	// wall time before the first timed operation: image builds and a short
	// warm-up run, or server start and cache prefill; the median of setupReps
	// set-ups.
	{"setup_s", "s", "lower", 0.25},
	// 10^3 committed target instructions delivered per host second: the
	// instructions of one repetition over the median repetition wall time
	// of sim.New+Engine.Run, or the instructions of every returned result
	// over the timed region of the job mix.
	{"host_kips", "kinst/s", "higher", 0.25},
	// runtime.MemStats.TotalAlloc growth per 10^6 delivered instructions
	// (median repetition, or the whole timed region of the job mix).
	{"alloc_mb_per_minst", "MB/Minst", "lower", 0.12},
	// VmHWM of the workload's process at exit.
	{"peak_rss_mb", "MB", "lower", 0.25},
	// operations completed per host second: jobs over the timed region of
	// the mix; for a simulator workload, repetitions per second at the median
	// repetition time.
	{"points_per_s", "1/s", "higher", 0.25},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<metric>. All of them are taken from outside the program under
// test, by timing calls into each layer's exported functions.
var perLayer = []metricDef{
	{"workload.build_ms", "ms", "lower", 0},
	{"fm.exec_ns_per_inst", "ns/inst", "lower", 0},
	{"fm.alloc_b_per_inst", "B/inst", "lower", 0},
	{"fm.commit_ns_per_inst_w64", "ns/inst", "lower", 0},
	{"fm.commit_ns_per_inst_w512", "ns/inst", "lower", 0},
	{"fm.rollback_ns_per_undone_inst", "ns/inst", "lower", 0},
	{"fm.icache_hit_ratio", "ratio", "higher", 0},
	{"fm.superblock_hit_ratio", "ratio", "higher", 0},
	{"fm.wrong_path_per_inst", "ratio", "lower", 0},
	{"fm.rollbacks_per_kinst", "1/kinst", "lower", 0},
	{"trace.chunk_ns_per_entry", "ns/entry", "lower", 0},
	{"trace.rewind_ns", "ns", "lower", 0},
	{"trace.max_occupancy", "count", "lower", 0},
	{"tm.step_ns_per_cycle", "ns/cycle", "lower", 0},
	{"tm.alloc_b_per_inst", "B/inst", "lower", 0},
	{"tm.cycles_per_inst", "ratio", "lower", 0},
	{"tm.uops_per_inst", "ratio", "lower", 0},
	{"hostlink.writes_per_kinst", "1/kinst", "lower", 0},
	{"cache.dl1_hit_ratio", "ratio", "higher", 0},
	{"bpred.accuracy", "ratio", "higher", 0},
	{"core.serial_ns_per_inst", "ns/inst", "lower", 0},
	{"core.coupling_self_ns_per_inst", "ns/inst", "lower", 0},
	{"core.multicore_ns_per_inst", "ns/inst", "lower", 0},
	{"core.parallel_ns_per_inst", "ns/inst", "lower", 0},
	{"core.snapshot_ms", "ms", "lower", 0},
	{"core.restore_ms", "ms", "lower", 0},
	{"sim.snapshot_kb", "KB", "lower", 0},
	{"sim.configure_cold_ms", "ms", "lower", 0},
	{"sim.configure_restore_ms", "ms", "lower", 0},
	{"sim.key_us", "us", "lower", 0},
	{"sim.snapshot_prefix_us", "us", "lower", 0},
	{"sim.fleet_points_per_s", "1/s", "higher", 0},
	{"service.submit_us_p50", "us", "lower", 0},
	{"service.result_us_p50", "us", "lower", 0},
	{"service.handler_submit_us_p50", "us", "lower", 0},
	{"service.cached_job_ms_p50", "ms", "lower", 0},
	{"service.warm_job_ms_p50", "ms", "lower", 0},
	{"service.cold_job_ms_p50", "ms", "lower", 0},
	{"service.queue_wait_ms_p50", "ms", "lower", 0},
	{"service.engine_ms_p50_cold", "ms", "lower", 0},
	{"service.engine_ms_p50_warm", "ms", "lower", 0},
	{"service.poll_gap_ms_p50", "ms", "lower", 0},
	{"service.cache_hit_ratio", "ratio", "higher", 0},
	{"service.snapshot_hit_ratio", "ratio", "higher", 0},
	{"service.engine_runs", "count", "lower", 0},
	{"service.diskcache_put_us", "us", "lower", 0},
	{"service.diskcache_get_us", "us", "lower", 0},
	{"service.job_ms_tail", "ms", "lower", 0},
	{"service.job_tail_pct", "%", "higher", 0},
	{"service.jobs_n", "count", "higher", 0},
	{"cluster.submit_us_p50", "us", "lower", 0},
	{"cluster.hop_overhead_us", "us", "lower", 0},
	{"cluster.sweep_points_per_s", "1/s", "higher", 0},
	{"obs.telemetry_overhead_pct", "%", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.host_speed", "ratio", "higher", 0},
}

// median returns the middle of xs (mean of the middle two for an even count)
// without reordering the caller's slice; NaN for no samples.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile picks the highest whole percentile that still has at least
// ten samples beyond it (p98 at n = 800, p90 at n = 100), the guide's rule
// for a reportable tail; 50 when even the median has fewer.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median — the run-to-run spread the driver computes
// with Python's statistics.quantiles(xs, n=4) (the exclusive method).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s)
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
