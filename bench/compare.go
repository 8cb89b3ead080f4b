package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per workload × end-to-end metric, the median of the
// runs in A and in B, the change as a share of A, the metric's bound and a
// verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is, and the run-to-run spread cannot explain it
//	unresolved  the quartile spread of either side is wider than the bound,
//	            unless every run of B reads better than every run of A
//
// It reports whether any row is worse (the caller exits non-zero). Operations
// that failed on either side are always worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readOut(pathA)
	if err != nil {
		return false, err
	}
	b, err := readOut(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, failedA := a.samples(wl.Name, d.Name)
			xb, failedB := b.samples(wl.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict, change := judge(d, xa, xb)
			if failedA+failedB > 0 {
				verdict = "worse"
			}
			if verdict == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-16s %-20s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, median(xa), median(xb), 100*change, 100*d.Bound, verdict)
		}
	}
	return anyWorse, nil
}

// judge applies the rule above to one metric's runs. change is signed so
// that positive means B reads higher than A.
func judge(d metricDef, xa, xb []float64) (verdict string, change float64) {
	ma, mb := median(xa), median(xb)
	change = ratio(mb-ma, ma)
	worseBy := change // the share by which B is worse than A
	if d.Better == "higher" {
		worseBy = -change
	}
	if quartileSpread(xa) > d.Bound || quartileSpread(xb) > d.Bound {
		if !allBetter(d, xa, xb) {
			return "unresolved", change
		}
		return "ok", change
	}
	if worseBy > d.Bound {
		return "worse", change
	}
	return "ok", change
}

// allBetter reports whether every run of B reads better than every run of A.
func allBetter(d metricDef, xa, xb []float64) bool {
	for _, b := range xb {
		for _, a := range xa {
			if d.Better == "higher" && b <= a || d.Better == "lower" && b >= a {
				return false
			}
		}
	}
	return true
}

func readOut(path string) (outFile, error) {
	var f outFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// samples returns the untraced values of one metric on one workload, and
// how many operations failed across those runs.
func (f outFile) samples(workload, metric string) (xs []float64, failed int) {
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		failed += r.Failed
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs, failed
}
