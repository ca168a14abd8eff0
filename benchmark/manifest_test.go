package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the root of the repository is generated from the
// tables in this package (bash benchmark/run.sh -manifest); the two must
// not drift.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Errorf("BENCHMARK.json differs from -manifest; regenerate it:\n%s", manifestJSON())
	}
}

func TestMetricTablesMeetTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
				t.Errorf("metric %q unit %q is outside the allowed form", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q is listed twice", d.name)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %q: better = %q", d.name, d.better)
			}
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range perLayer {
		if d.moves == "" || d.source == "" {
			t.Errorf("%s: every per-layer metric states its source and what it should move", d.name)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || w.why == "" {
			t.Errorf("workload %q: bad name, reused name, or a why that is empty or over 200 characters (%d)", w.name, len(w.why))
		}
		seen[w.name] = true
	}
	if len(manifestJSON()) > 64<<10 {
		t.Error("BENCHMARK.json is over 64 KiB")
	}
}

func TestEveryDriveMetricNamesItsLayer(t *testing.T) {
	layers := driveLayers()
	if len(layers) == 0 {
		t.Fatal("no drive layers derived from the metric table")
	}
	for _, l := range layers {
		if _, err := os.Stat("drives/" + l + "/main.go"); err != nil {
			t.Errorf("metric table names drive %q but benchmark/drives/%s has no main.go", l, l)
		}
	}
}
