// Command benchmark is the repository's benchmark: it raises an
// in-process loopback-TCP cluster (2 shards x 4 replicas, a reference
// committee of 4, one client), drives one of four named workloads
// against it from one client, one generator goroutine and at most one
// reader goroutine, prints every metric as "workload metric value unit",
// checks that the program's outputs are correct, and exits non-zero when
// a check fails. See README.md.
//
//	bash benchmark/run.sh --workload single_write --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -all -seed 1
//	bash benchmark/run.sh -check A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

const (
	workDir = ".bench_build"  // build outputs and the clusters' data directories
	outDir  = "benchmark/out" // results.json, traces, captured frames
)

// Exit codes.
const (
	exitFailedCheck = 1
	exitUsage       = 2
	exitRegressed   = 3
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload: single_write, cross_uniform, mixed_hot or read_beside_write")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same op stream")
		seconds  = flag.Int("seconds", runSeconds, "measured seconds per run, warm-ups excluded")
		trace    = flag.Int("trace", 0, "1 runs with the recorder on and reports the per-layer metrics; 0 reports the end-to-end ones")
		all      = flag.Bool("all", false, "run every workload untraced and traced, then the layer drives, and write "+outDir+"/results.json")
		repeat   = flag.Int("repeat", 1, "with -all: untraced runs per workload, on seeds seed, seed+1, ...")
		drives   = flag.Bool("drives", false, "run only the layer drives, at full length")
		check    = flag.Bool("check", false, "compare two result files (arguments A.json B.json) against the bounds in BENCHMARK.json")
		manifest = flag.Bool("manifest", false, "print the BENCHMARK.json this program implements")
	)
	flag.Parse()
	log.SetOutput(io.Discard) // the program logs WAL recovery notices; the benchmark's stdout ends with the result line

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *check:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -check A.json B.json")
			os.Exit(exitUsage)
		}
		os.Exit(runCheck(flag.Arg(0), flag.Arg(1)))
	case *drives:
		fullDrives()
	case *all:
		os.Exit(runAll(*seed, *seconds, *repeat))
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(exitUsage)
		}
		rec, err := runOne(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(exitFailedCheck)
		}
		printRecord(rec)
		printResultLine(rec)
		if !rec.Correct {
			os.Exit(exitFailedCheck)
		}
	default:
		flag.Usage()
		os.Exit(exitUsage)
	}
}

// runOne is one run as the acceptance driver asks for it: untraced it
// measures the end-to-end metrics; traced it measures the per-layer
// ones, layer drives included (at a short budget, to fit the run).
func runOne(w workload, seed int64, seconds int, traced bool) (*runRecord, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer(w.name, outDir)
	}
	rec, err := runWorkload(w, seed, seconds, tr)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := tr.write(); err != nil {
			return nil, err
		}
		mergeDrives(rec, runDrives(driveShortBudget, filepath.Join(outDir, "frames-"+w.name+".bin")))
	}
	// -all collects the record from here, and the traced run of a workload
	// measures its overhead against the untraced record.
	return rec, writeJSON(recordPath(w.name, traced), rec)
}

func recordPath(workload string, traced bool) string {
	if traced {
		return filepath.Join(outDir, "layers-"+workload+".json")
	}
	return filepath.Join(outDir, "e2e-"+workload+".json")
}

// resultsFile is benchmark/out/results.json.
type resultsFile struct {
	Host hostFacts    `json:"host"`
	Runs []*runRecord `json:"runs"`
	// Moves is the interaction table: which end-to-end metric each
	// per-layer metric was predicted to move, written before measuring.
	Moves map[string]string `json:"moves"`
}

type hostFacts struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Filesystem string `json:"data_dir_filesystem"`
	Links      string `json:"links"`
	When       string `json:"when"`
}

func host() hostFacts {
	h := hostFacts{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
		GoVersion: runtime.Version(), Revision: os.Getenv("BENCH_REVISION"), Filesystem: fsType(workDir),
		Links: "host loopback TCP, no injected delay: latency is processor time plus protocol timers",
		When:  time.Now().UTC().Format(time.RFC3339),
	}
	if h.GOGC == "" {
		h.GOGC = "default"
	}
	if h.Revision == "" {
		h.Revision = "unknown" // not a git checkout
	}
	return h
}

func runAll(seed int64, seconds, repeat int) int {
	out := resultsFile{Host: host(), Moves: map[string]string{}}
	for _, d := range perLayer {
		out.Moves[d.name] = d.moves
	}
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d GOGC=%s %s rev=%s data-dir-fs=%s\n# links: %s\n",
		out.Host.NProc, out.Host.GoMaxProcs, out.Host.GOGC, out.Host.GoVersion, out.Host.Revision, out.Host.Filesystem, out.Host.Links)
	// Every run is a process of its own, exactly as the acceptance driver
	// makes it: peak RSS is a process-wide high-water mark, and one run's
	// heap must not pace the next one's garbage collector.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitFailedCheck
	}
	code := 0
	run := func(w workload, seed int64, traced bool) {
		os.Remove(recordPath(w.name, traced))
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", trace)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			code = exitFailedCheck // a failed check; the record below says which
		}
		rec, ok := loadRecord(recordPath(w.name, traced))
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d left no record\n", w.name, seed)
			code = exitFailedCheck
			return
		}
		out.Runs = append(out.Runs, rec)
	}
	for _, w := range workloads {
		for i := 0; i < repeat; i++ {
			run(w, seed+int64(i), false)
		}
		run(w, seed, true)
	}
	out.Runs = append(out.Runs, fullDrives())
	if err := writeJSON(filepath.Join(outDir, "results.json"), out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitFailedCheck
	}
	fmt.Printf("# wrote %s\n", filepath.Join(outDir, "results.json"))
	return code
}

// printRecord prints every metric of a run as "workload metric value
// unit", with the sample count behind each timing.
func printRecord(rec *runRecord) {
	mode := "untraced"
	defs := endToEnd
	if rec.Trace {
		mode, defs = "traced", perLayer
	}
	fmt.Printf("# %s seed=%d seconds=%d %s: attempted=%d failed=%d\n", rec.Workload, rec.Seed, rec.Seconds, mode, rec.Attempted, rec.Failed)
	printMetrics(rec, defs)
	for _, n := range rec.Notes {
		fmt.Printf("# %s note: %s\n", rec.Workload, n)
	}
	for _, c := range rec.Checks {
		if c.OK {
			fmt.Printf("check %s %s ok\n", rec.Workload, c.Name)
		} else {
			fmt.Printf("check %s %s FAILED: %s\n", rec.Workload, c.Name, c.Detail)
		}
	}
}

// printMetrics prints the listed metrics of a record, one per line.
func printMetrics(rec *runRecord, defs []metricDef) {
	for _, d := range defs {
		v := rec.Metrics[d.name]
		switch {
		case v.Value == missing:
			fmt.Printf("%s %s missing %s\n", rec.Workload, d.name, d.unit)
		case v.N > 0:
			fmt.Printf("%s %s %.6g %s n=%d\n", rec.Workload, d.name, v.Value, d.unit, v.N)
		default:
			fmt.Printf("%s %s %.6g %s\n", rec.Workload, d.name, v.Value, d.unit)
		}
	}
}

// printResultLine prints the one JSON object the acceptance driver
// reads: the end-to-end metrics of an untraced run, the per-layer ones
// of a traced run.
func printResultLine(rec *runRecord) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]metric{}}
	for _, d := range defs {
		line.Metrics[d.name] = metric{rec.Metrics[d.name].Value, d.unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(raw))
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// manifestJSON renders BENCHMARK.json from the metric and workload
// tables, so the file and the program cannot drift (a unit test compares
// them).
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(raw, '\n')
}

// runSeconds is the run length BENCHMARK.json asks the driver to pass.
const runSeconds = 20
