package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// boundOf returns how much worse than the parent's median a metric may
// read on a workload and still count as unchanged. goodput is ops_per_s
// times a constant, so it shares that bound, and the 99th percentile
// shares the 90th's; fail_ratio has none: any increase is a regression.
func boundOf(m metricDef) float64 {
	switch m.name {
	case "goodput_MBps":
		m, _ = findMetric("ops_per_s")
	case "lat_p99_us":
		m, _ = findMetric("lat_p90_us")
	}
	return m.bound
}

func boundText(m metricDef) string {
	if m.name == "fail_ratio" {
		return "0"
	}
	return fmt.Sprintf("%.0f%%", 100*boundOf(m))
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does, which is what the repository's
// benchmark driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// verdict compares the runs of a parent (a) and a change (b) of one
// metric on one workload.
func verdict(m metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	// Turn both sides so that lower is better.
	if m.higher {
		ma, mb = -ma, -mb
		a, b = negated(a), negated(b)
	}
	if m.name == "fail_ratio" {
		switch {
		case mb > ma:
			return "worse"
		case mb < ma:
			return "better"
		}
		return "same"
	}
	if ma == 0 {
		return "unresolved" // nothing to take a share of
	}
	bound := boundOf(m)
	worseBy := (mb - ma) / math.Abs(ma)
	a1, a3 := quartiles(a)
	b1, b3 := quartiles(b)
	spread := max((a3-a1)/math.Abs(ma), (b3-b1)/math.Abs(mb))
	allBetter := slices.Max(b) < slices.Min(a)
	allWorse := slices.Min(b) > slices.Max(a)
	switch {
	case worseBy > bound && (spread <= bound || allWorse):
		return "worse"
	case allBetter && ma-mb > a3-a1:
		return "better"
	case allBetter:
		return "same"
	case spread > bound:
		return "unresolved"
	}
	return "same"
}

func negated(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = -x
	}
	return out
}

// loadSet reads a comma-separated list of run files and returns every
// run's value per workload and metric.
func loadSet(list string) (map[string]map[string][]float64, hostInfo, error) {
	set := map[string]map[string][]float64{}
	var h hostInfo
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, h, err
		}
		var f runFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, h, fmt.Errorf("%s: %w", path, err)
		}
		h = f.Host
		for _, run := range f.Runs {
			for _, res := range run.Workloads {
				if set[res.Workload] == nil {
					set[res.Workload] = map[string][]float64{}
				}
				for name, s := range res.Metrics {
					set[res.Workload][name] = append(set[res.Workload][name], s.Value)
				}
			}
		}
	}
	return set, h, nil
}

// compareFiles prints one row per end-to-end metric and workload both
// sets hold — same, worse, better, or unresolved when the runs spread
// wider than the bound — and reports whether any row reads worse.
func compareFiles(w io.Writer, listA, listB string) (bool, error) {
	a, ha, err := loadSet(listA)
	if err != nil {
		return false, err
	}
	b, hb, err := loadSet(listB)
	if err != nil {
		return false, err
	}
	if ha != hb {
		fmt.Fprintf(w, "# hosts differ: %+v vs %+v\n", ha, hb)
	}
	anyWorse := false
	fmt.Fprintf(w, "%-13s %-13s %14s %14s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range slices.Concat(gated, derived) {
			va, vb := a[wl.name][m.name], b[wl.name][m.name]
			if len(va) == 0 || len(vb) == 0 || (median(va) == 0 && median(vb) == 0 && m.name != "fail_ratio") {
				continue
			}
			v := verdict(m, va, vb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-13s %-13s %14.6g %14.6g %+7.1f%% %6s  %s (n=%d,%d)\n", wl.name, m.name,
				median(va), median(vb), 100*ratio(median(vb)-median(va), median(va)), boundText(m), v, len(va), len(vb))
		}
	}
	return anyWorse, nil
}
