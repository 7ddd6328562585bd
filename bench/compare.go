package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is the outcome of comparing one (workload, metric) between a
// parent commit's runs and a change's runs.
type verdict struct {
	ParentMed, ParentQ1, ParentQ3 float64
	ChangeMed, ChangeQ1, ChangeQ3 float64
	Wins, Pairs                   int
	Verdict                       string
}

// judge applies the benchmark's rule to paired runs (parent[i] and
// change[i] ran with the same seed):
//
//   - "win": the change won at least 9 of 10 pairs (ties count for
//     neither) and the medians differ, in its favour, by more than the
//     parent's interquartile range;
//   - "unresolved": the parent's own spread (IQR over median) exceeds the
//     bound, so no regression can be ruled out — unless every change run
//     beats every parent run ("better");
//   - "regression": the change's median is worse than the parent's by more
//     than bound × the parent's median;
//   - "unchanged" otherwise.
//
// A metric with no bound (a layer metric) is "same" when every value
// repeats exactly and "info" otherwise.
func judge(parent, change []float64, bound float64, higherBetter bool) verdict {
	var v verdict
	v.ParentQ1, v.ParentMed, v.ParentQ3 = quartiles(parent)
	v.ChangeQ1, v.ChangeMed, v.ChangeQ3 = quartiles(change)
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	v.Pairs = min(len(parent), len(change))
	for i := 0; i < v.Pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			v.Wins++
		}
	}
	if bound == 0 {
		v.Verdict = "info"
		if equalValues(parent, change) {
			v.Verdict = "same"
		}
		return v
	}
	gain := sign * (v.ChangeMed - v.ParentMed)
	iqr := v.ParentQ3 - v.ParentQ1
	base := math.Abs(v.ParentMed)
	switch {
	case v.Pairs > 0 && 10*v.Wins >= 9*v.Pairs && gain > iqr:
		v.Verdict = "win"
	case base > 0 && iqr/base > bound:
		v.Verdict = "unresolved"
		if allBetter(parent, change, sign) {
			v.Verdict = "better"
		}
	case base > 0 && -gain/base > bound:
		v.Verdict = "regression"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

func equalValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allBetter reports whether every change run beats every parent run.
func allBetter(parent, change []float64, sign float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	worstChange, bestParent := math.Inf(1), math.Inf(-1)
	for _, c := range change {
		worstChange = math.Min(worstChange, sign*c)
	}
	for _, p := range parent {
		bestParent = math.Max(bestParent, sign*p)
	}
	return worstChange > bestParent
}

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBounds reads metric directions and bounds from BENCHMARK.json, in
// the current directory (the repository root) or its parent (bench/).
func loadBounds() (map[string]metricDef, error) {
	path := "BENCHMARK.json"
	if _, err := os.Stat(path); err != nil {
		path = "../BENCHMARK.json"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]metricDef{}
	for _, m := range f.EndToEnd {
		out[m.Name] = metricDef{Name: m.Name, Better: m.Better, Bound: m.Bound}
	}
	for _, m := range f.PerLayer {
		out[m.Name] = metricDef{Name: m.Name, Better: m.Better}
	}
	return out, nil
}

// compareMain prints one row per (workload, metric) and returns 1 when any
// metric regressed or any results digest changed.
func compareMain(parentPath, changePath string, w io.Writer) int {
	parent, err := readResults(parentPath)
	var change *resultsFile
	if err == nil {
		change, err = readResults(changePath)
	}
	var defs map[string]metricDef
	if err == nil {
		defs, err = loadBounds()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compareFiles(parent, change, defs, w)
}

func compareFiles(parent, change *resultsFile, defs map[string]metricDef, w io.Writer) int {
	fmt.Fprintf(w, "parent: %d runs, go_max_procs %d, %s; change: %d runs, go_max_procs %d, %s\n",
		len(parent.Reports), parent.Host.GoMaxProcs, parent.Host.GoVersion,
		len(change.Reports), change.Host.GoMaxProcs, change.Host.GoVersion)
	if parent.Host.GoMaxProcs != change.Host.GoMaxProcs {
		fmt.Fprintln(w, "warning: the two sides ran at different go_max_procs; timings are not comparable")
	}
	type key struct{ workload, metric string }
	series := func(f *resultsFile) (map[key][]float64, map[string]map[uint64]string, []key) {
		vals := map[key][]float64{}
		digests := map[string]map[uint64]string{}
		var order []key
		for _, r := range f.Reports {
			if digests[r.Workload] == nil {
				digests[r.Workload] = map[uint64]string{}
			}
			digests[r.Workload][r.Seed] = r.Digest
			for _, m := range r.Metrics {
				if m.Absent {
					continue
				}
				k := key{r.Workload, m.Name}
				if _, ok := vals[k]; !ok {
					order = append(order, k)
				}
				vals[k] = append(vals[k], m.Value)
			}
		}
		return vals, digests, order
	}
	pv, pd, order := series(parent)
	cv, cd, _ := series(change)
	status := 0
	side := func(med, q1, q3 float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3) }
	fmt.Fprintf(w, "%-12s %-36s %-34s %-34s %-7s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, k := range order {
		c, ok := cv[k]
		if !ok {
			fmt.Fprintf(w, "%-12s %-36s missing from the change\n", k.workload, k.metric)
			continue
		}
		d := defs[k.metric]
		v := judge(pv[k], c, d.Bound, d.Better == "higher")
		if v.Verdict == "regression" {
			status = 1
		}
		fmt.Fprintf(w, "%-12s %-36s %-34s %-34s %-7s %s\n", k.workload, k.metric,
			side(v.ParentMed, v.ParentQ1, v.ParentQ3), side(v.ChangeMed, v.ChangeQ1, v.ChangeQ3),
			fmt.Sprintf("%d/%d", v.Wins, v.Pairs), v.Verdict)
	}
	for _, wl := range sortedKeys(pd) {
		for seed, dp := range pd[wl] {
			if dc, ok := cd[wl][seed]; ok && dc != dp {
				fmt.Fprintf(w, "%s seed %d: results digest changed (%.16s → %.16s)\n", wl, seed, dp, dc)
				status = 1
			}
		}
	}
	return status
}
