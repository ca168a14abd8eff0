package main

// ahlctl scrape: cluster-wide observability aggregation. Pulls every
// replica's /snapshot (and optionally /trace) over HTTP, merges the
// per-node registries — counters and gauges sum, histograms merge
// bucket-by-bucket — and prints a latency-breakdown table for the live
// stack's stage histograms, the largest node's recovery replay bound,
// and a trace-derived span breakdown.

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// latencyTable lists the duration histograms the breakdown table renders,
// in pipeline order. Histograms a deployment never touched (e.g. 2PC
// metrics without a reference committee) are skipped.
var latencyTable = []string{
	"pbft_commit_latency",
	"pbft_exec_latency",
	"pbft_wal_append_latency",
	"pbft_checkpoint_latency",
	"storage_wal_append_latency",
	"storage_wal_fsync_latency",
	"storage_snapshot_save_latency",
	"txn_2pc_prepare_wait",
	"txn_2pc_lock_hold",
	"txn_2pc_decide_wait",
	"txn_2pc_commit_latency",
}

func runScrape(args []string) {
	fs := flag.NewFlagSet("scrape", flag.ExitOnError)
	var (
		topoPath = fs.String("topo", "", "cluster topology JSON (required)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-node HTTP timeout")
		traces   = fs.Bool("traces", true, "also pull /trace and print the span breakdown")
	)
	fs.Parse(args)
	if *topoPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	cfg, err := core.LoadClusterConfig(*topoPath)
	if err != nil {
		log.Fatal(err)
	}
	client := &http.Client{Timeout: *timeout}

	merged := obs.Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]obs.HistogramSnapshot),
	}
	var events []obs.Event
	// storage_wal_bytes_since_root bounds each node's own boot replay, so
	// the largest node is reported, not the sum.
	maxReplay, maxReplayNode := int64(-1), 0
	scraped, skipped := 0, 0
	for _, n := range cfg.ReplicaNodes() {
		if n.MetricsAddr == "" {
			skipped++
			continue
		}
		snap, err := fetchSnapshot(client, n.MetricsAddr)
		if err != nil {
			log.Printf("ahlctl scrape: node %d (%s): %v", n.ID, n.MetricsAddr, err)
			skipped++
			continue
		}
		if v, ok := snap.Gauges[walSinceRootGauge]; ok && v > maxReplay {
			maxReplay, maxReplayNode = v, n.ID
		}
		mergeSnapshot(&merged, snap)
		if *traces {
			evs, err := fetchTrace(client, n.MetricsAddr)
			if err != nil {
				log.Printf("ahlctl scrape: node %d (%s): trace: %v", n.ID, n.MetricsAddr, err)
			} else {
				events = append(events, evs...)
			}
		}
		scraped++
	}
	if scraped == 0 {
		log.Fatal("ahlctl scrape: no node with a metrics_addr answered")
	}
	fmt.Printf("ahlctl scrape: %d nodes aggregated, %d skipped\n\n", scraped, skipped)

	printLatencyTable(merged)
	printCountersOfInterest(merged, cfg)
	if maxReplay >= 0 {
		fmt.Printf("recovery replay bound (largest journaling node)\n")
		fmt.Printf("  %-40s %d B (node %d)\n\n", walSinceRootGauge, maxReplay, maxReplayNode)
	}
	if *traces && len(events) > 0 {
		printSpanBreakdown(events)
	}
}

func fetchSnapshot(client *http.Client, addr string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := client.Get("http://" + addr + "/snapshot")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("status %s", resp.Status)
	}
	return obs.ReadSnapshot(resp.Body)
}

func fetchTrace(client *http.Client, addr string) ([]obs.Event, error) {
	resp, err := client.Get("http://" + addr + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return obs.ParseTraceJSON(resp.Body)
}

func mergeSnapshot(dst *obs.Snapshot, src obs.Snapshot) {
	for name, v := range src.Counters {
		dst.Counters[name] += v
	}
	for name, v := range src.Gauges {
		dst.Gauges[name] += v
	}
	for name, h := range src.Histograms {
		m := dst.Histograms[name]
		m.Merge(h)
		dst.Histograms[name] = m
	}
}

func printLatencyTable(s obs.Snapshot) {
	fmt.Printf("latency breakdown (cluster-wide)\n")
	fmt.Printf("  %-32s %10s %10s %10s %10s\n", "histogram", "count", "p50", "p95", "p99")
	for _, name := range latencyTable {
		h, ok := s.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Printf("  %-32s %10d %10s %10s %10s\n", name, h.Count,
			fmtUs(h.Quantile(0.50)), fmtUs(h.Quantile(0.95)), fmtUs(h.Quantile(0.99)))
	}
	fmt.Println()
}

// printCountersOfInterest surfaces the cluster's health counters: batch
// cuts, executed totals, 2PC outcomes, retries, transport overflows.
func printCountersOfInterest(s obs.Snapshot, cfg *core.ClusterConfig) {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("counters (cluster-wide, nonzero)\n")
	for _, name := range names {
		if v := s.Counters[name]; v != 0 && !strings.HasPrefix(name, "transport_peer_") {
			fmt.Printf("  %-40s %d\n", name, v)
		}
	}
	if v, ok := s.Gauges["pbft_pipeline_occupancy_peak"]; ok {
		fmt.Printf("  %-40s %d (summed peaks)\n", "pbft_pipeline_occupancy_peak", v)
	}
	// Per-node occupancy/checkpoint state is meaningful individually, not
	// summed; point at the node endpoints for drill-down.
	var addrs []string
	for _, n := range cfg.ReplicaNodes() {
		if n.MetricsAddr != "" {
			addrs = append(addrs, fmt.Sprintf("%d=%s", simnet.NodeID(n.ID), n.MetricsAddr))
		}
	}
	if len(addrs) > 0 {
		fmt.Printf("  per-node endpoints: %s\n", strings.Join(addrs, " "))
	}
	fmt.Println()
}

// walSinceRootGauge is the WAL a restarted node would replay on top of
// its newest durable snapshot.
const walSinceRootGauge = "storage_wal_bytes_since_root"

func printSpanBreakdown(events []obs.Event) {
	spans := obs.SpanDurations(events)
	fmt.Printf("trace span breakdown (%d events sampled)\n", len(events))
	fmt.Printf("  %-16s %10s %10s %10s %10s\n", "span", "count", "p50", "p95", "max")
	for _, name := range obs.SpanNames() {
		ds := spans[name]
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		pct := func(p float64) int64 {
			i := int(p*float64(len(ds))) - 1
			if i < 0 {
				i = 0
			}
			return ds[i]
		}
		fmt.Printf("  %-16s %10d %10s %10s %10s\n", name, len(ds),
			fmtNs(pct(0.50)), fmtNs(pct(0.95)), fmtNs(pct(1.0)))
	}
}

// fmtUs renders a histogram quantile (µs) compactly.
func fmtUs(us float64) string { return fmtNs(int64(us * 1e3)) }

func fmtNs(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}
