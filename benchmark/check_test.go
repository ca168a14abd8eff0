package main

import "testing"

func TestCompareBoundArithmetic(t *testing.T) {
	flat := func(v float64) []float64 { return []float64{v, v, v, v} }
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"lower is better, 9% slower, inside 10%", flat(100), flat(109), "lower", 0.10, verdictOK},
		{"lower is better, 11% slower, outside 10%", flat(100), flat(111), "lower", 0.10, verdictRegressed},
		{"lower is better, faster is never a regression", flat(100), flat(50), "lower", 0.10, verdictOK},
		{"higher is better, 9% less, inside 10%", flat(1000), flat(910), "higher", 0.10, verdictOK},
		{"higher is better, 11% less, outside 10%", flat(1000), flat(890), "higher", 0.10, verdictRegressed},
		{"higher is better, more is never a regression", flat(1000), flat(2000), "higher", 0.10, verdictOK},
		{"the bound is a share of the parent's median, not the change's", flat(100), flat(126), "lower", 0.25, verdictRegressed},
		{"a noisy parent is unresolved, not unchanged", []float64{80, 95, 100, 105, 130}, flat(100), "lower", 0.10, verdictUnresolved},
		{"a noisy change is unresolved too", flat(100), []float64{80, 95, 100, 105, 130}, "lower", 0.10, verdictUnresolved},
		{"a regression is reported even when the runs are noisy", flat(100), []float64{120, 140, 150, 160, 190}, "lower", 0.10, verdictRegressed},
		{"one run a side has no spread to go by", []float64{100}, []float64{105}, "lower", 0.10, verdictOK},
	} {
		if got, _, _, _ := compare(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	_, worse, _, _ := compare(flat(200), flat(230), "lower", 0.10)
	if worse != 0.15 {
		t.Errorf("worse = %v, want 0.15", worse)
	}
}

func TestCheckUsesUntracedRunsOnly(t *testing.T) {
	f := &resultsFile{Runs: []*runRecord{
		{Workload: "single_write", Metrics: map[string]value{"p50_ms": {Value: 10}}},
		{Workload: "single_write", Trace: true, Metrics: map[string]value{"p50_ms": {Value: 99}}},
		{Workload: "mixed_hot", Metrics: map[string]value{"p50_ms": {Value: 20}}},
	}}
	if got := f.untraced("single_write", "p50_ms"); len(got) != 1 || got[0] != 10 {
		t.Errorf("untraced = %v, want [10]", got)
	}
}
