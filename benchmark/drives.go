package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Layer drives call one layer's public functions directly, on inputs
// sized like the workloads. Each is its own main package under
// benchmark/drives/<layer>, built separately by run.sh: when a later
// refactor removes a function a drive calls, that drive fails to build
// and its metrics are reported missing, and the end-to-end benchmark
// still runs.
const (
	driveFullBudget  = time.Second            // per timed loop, -all and -drives
	driveShortBudget = 100 * time.Millisecond // per timed loop inside a traced run
)

// driveLayers is derived from the metric table: every layer named by a
// "drive:<layer>" source.
func driveLayers() []string {
	var layers []string
	seen := map[string]bool{}
	for _, d := range driveDefs() {
		if l := strings.TrimPrefix(d.source, "drive:"); !seen[l] {
			seen[l] = true
			layers = append(layers, l)
		}
	}
	return layers
}

// runDrives runs every drive binary found next to this one and returns
// the metrics they printed. framesPath, when it names a file, hands the
// wire drive the real frames the tap captured.
func runDrives(budget time.Duration, framesPath string) map[string]value {
	out := map[string]value{}
	self, err := os.Executable()
	if err != nil {
		return out
	}
	tmp, err := os.MkdirTemp(workDir, "drive-")
	if err != nil {
		return out
	}
	defer os.RemoveAll(tmp)
	for _, layer := range driveLayers() {
		bin := filepath.Join(filepath.Dir(self), "drive-"+layer)
		args := []string{"-budget", budget.String(), "-dir", tmp}
		if layer == "wire" && framesPath != "" {
			args = append(args, "-frames", framesPath)
		}
		cmd := exec.Command(bin, args...)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: drive %s: %v (its metrics are reported missing)\n", layer, err)
			continue
		}
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			// name value unit n
			f := strings.Fields(sc.Text())
			if len(f) != 4 {
				continue
			}
			v, err1 := strconv.ParseFloat(f[1], 64)
			n, err2 := strconv.Atoi(f[3])
			if def, ok := defOf(f[0]); ok && err1 == nil && err2 == nil && def.unit == f[2] {
				out[f[0]] = value{Value: v, Unit: f[2], N: n}
			}
		}
	}
	return out
}

// driveDefs is the part of the metric table the drives fill.
func driveDefs() []metricDef {
	var defs []metricDef
	for _, d := range perLayer {
		if strings.HasPrefix(d.source, "drive:") {
			defs = append(defs, d)
		}
	}
	return defs
}

// mergeDrives adds the drive metrics to a traced run's record, missing
// where a drive did not report.
func mergeDrives(rec *runRecord, got map[string]value) {
	for _, d := range driveDefs() {
		if v, ok := got[d.name]; ok {
			rec.Metrics[d.name] = v
		} else {
			rec.Metrics[d.name] = value{Value: missing, Unit: d.unit}
		}
	}
}

// fullDrives runs the drives at full length, prints their metrics and
// returns them as a record of their own.
func fullDrives() *runRecord {
	rec := &runRecord{Workload: "drives", Trace: true, Correct: true, Metrics: map[string]value{}}
	mergeDrives(rec, runDrives(driveFullBudget, ""))
	printMetrics(rec, driveDefs())
	return rec
}
