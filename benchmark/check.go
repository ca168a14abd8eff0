package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Verdicts of the -check comparator.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compare judges one (workload, metric) pairing: a holds the parent's
// values, b the change's, one per run. The change regressed when its
// median is worse than the parent's by more than bound (a share of the
// parent's median). Otherwise, when either side's run-to-run spread is
// wider than the bound, the pairing is unresolved rather than unchanged.
func compare(a, b []float64, better string, bound float64) (verdict string, worse, spreadA, spreadB float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
	}
	spreadA, spreadB = spread(a), spread(b)
	switch {
	case worse > bound:
		verdict = verdictRegressed
	case spreadA > bound || spreadB > bound:
		verdict = verdictUnresolved
	default:
		verdict = verdictOK
	}
	return
}

func loadResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untraced collects metric name's values over the untraced runs of a
// workload.
func (f *resultsFile) untraced(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// runCheck compares result set B against A, pairing by pairing, with the
// bounds of BENCHMARK.json (the end-to-end table). It returns the exit
// code: 3 on any regression.
func runCheck(pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -check:", err)
		return exitUsage
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -check:", err)
		return exitUsage
	}
	return printCheck(a, b)
}

func printCheck(a, b *resultsFile) int {
	code := 0
	fmt.Printf("%-18s %-15s %-11s %12s %12s %8s %7s %8s %8s\n",
		"workload", "metric", "verdict", "A median", "B median", "worse", "bound", "A spread", "B spread")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.untraced(w.name, d.name), b.untraced(w.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-18s %-15s %-11s (in A: %d runs, in B: %d runs)\n", w.name, d.name, verdictUnresolved, len(va), len(vb))
				continue
			}
			verdict, worse, sa, sb := compare(va, vb, d.better, d.bound)
			if verdict == verdictRegressed {
				code = exitRegressed
			}
			fmt.Printf("%-18s %-15s %-11s %12.6g %12.6g %+7.1f%% %6.0f%% %7.1f%% %7.1f%%\n",
				w.name, d.name, verdict, median(va), median(vb), worse*100, d.bound*100, sa*100, sb*100)
		}
	}
	return code
}
