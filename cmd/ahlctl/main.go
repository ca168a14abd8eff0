// Command ahlctl is the live-cluster client toolbox: it attaches to a
// running ahlnode deployment as a client gateway and drives or inspects
// it. Subcommands:
//
//	ahlctl load   -topo topology.json -txs 500 -cross 0.3 -outstanding 16
//	ahlctl query  -topo topology.json -expect 32000000
//	ahlctl status -topo topology.json
//	ahlctl scrape -topo topology.json
//
// load seeds SmallBank accounts, submits a closed-loop mix of
// single-shard and cross-shard transactions, and reports committed
// throughput and latency percentiles. Cross-shard transactions are §6.3
// sendPayment transfers driven through the reference committee's 2PC
// (Figure 5); single-shard transactions are smallbank queries
// acknowledged by f+1 replica replies.
//
// query runs the height-consistent balance-conservation sweep through
// the scatter-gather query layer: committed checking + savings totals at
// one pinned cut of per-shard versions, with in-flight 2PC residues
// resolved against that cut. -expect asserts the total (exit 4 on
// mismatch), which turns a live cluster under load into its own
// consistency check.
//
// status pins every shard at its latest sealed version and reports the
// per-shard heights and account count — a cheap liveness/height probe.
//
// scrape aggregates a running cluster's observability endpoints (each
// node's metrics_addr) into one latency-breakdown table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/txn"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ahlctl <command> [flags]

commands:
  load    seed accounts and drive a closed-loop transaction mix
  query   height-consistent balance-conservation sweep (-expect asserts the total)
  status  per-shard pinned heights and account count
  scrape  aggregate cluster metrics endpoints into one table

Run 'ahlctl <command> -h' for per-command flags.
`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "load":
		runLoad(args)
	case "query":
		runQuery(args)
	case "status":
		runStatus(args)
	case "scrape":
		runScrape(args)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ahlctl: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

// connectClient attaches to the cluster described by topoPath as client
// gateway id (-1 selects the topology's first client entry). The caller
// owns both returned handles.
func connectClient(topoPath string, id int) (*core.ClusterConfig, *core.LiveClient, *transport.TCP) {
	cfg, err := core.LoadClusterConfig(topoPath)
	if err != nil {
		log.Fatal(err)
	}
	if id < 0 {
		if len(cfg.Clients) == 0 {
			log.Fatal("ahlctl: topology has no client entries")
		}
		id = cfg.Clients[0].ID
	}
	clientID := simnet.NodeID(id)
	tr, err := transport.NewTCP(transport.TCPConfig{
		Listen: cfg.PeerAddrs()[clientID],
		Peers:  cfg.PeerAddrs(),
	})
	if err != nil {
		log.Fatal(err)
	}
	client, err := core.StartLiveClient(cfg, clientID, tr)
	if err != nil {
		tr.Close()
		log.Fatal(err)
	}
	return cfg, client, tr
}

// runQuery is the ahlctl query subcommand: one conservation sweep through
// the streaming query layer, optionally asserted against -expect.
func runQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var (
		topoPath = fs.String("topo", "", "cluster topology JSON (required)")
		id       = fs.Int("id", -1, "client node id (default: first client in the topology)")
		expect   = fs.Int64("expect", -1, "assert the conserved total equals this value (exit 4 on mismatch)")
		timeout  = fs.Duration("timeout", time.Minute, "overall query deadline")
	)
	fs.Parse(args)
	if *topoPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	_, client, tr := connectClient(*topoPath, *id)
	defer tr.Close()
	defer client.Stop()

	// Attempts re-issue the sweep when a sub-query frame is lost over TCP
	// or a shard has nothing sealed yet, as in runStatus.
	const attempts = 3
	res, err := client.Conservation(attempts, *timeout)
	if err != nil {
		log.Fatalf("ahlctl: conservation query: %v", err)
	}
	fmt.Printf("ahlctl conservation sweep\n")
	fmt.Printf("  pins          %v\n", res.Pins)
	fmt.Printf("  accounts      %d\n", res.Accounts)
	fmt.Printf("  checking      %d\n", res.Checking)
	fmt.Printf("  savings       %d\n", res.Savings)
	fmt.Printf("  residues      %d staged deltas, %d applied (committed at the cut)\n",
		len(res.Residues), res.Applied)
	fmt.Printf("  total         %d\n", res.Total)
	if *expect >= 0 && res.Total != *expect {
		fmt.Printf("  MISMATCH      total %d != expected %d\n", res.Total, *expect)
		os.Exit(4)
	}
	if *expect >= 0 {
		fmt.Printf("  ok            total matches expected %d\n", *expect)
	}
}

// runStatus is the ahlctl status subcommand: pin each shard at its latest
// sealed version and count the seeded accounts, as a liveness probe.
func runStatus(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	var (
		topoPath = fs.String("topo", "", "cluster topology JSON (required)")
		id       = fs.Int("id", -1, "client node id (default: first client in the topology)")
		timeout  = fs.Duration("timeout", time.Minute, "overall probe deadline")
	)
	fs.Parse(args)
	if *topoPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	_, client, tr := connectClient(*topoPath, *id)
	defer tr.Close()
	defer client.Stop()

	// Each attempt is a fresh one-shot probe: the query protocol sends
	// every page exactly once, so a sub-query lost over TCP (e.g. the
	// first reply after this client id's previous process exited) is
	// recovered by re-issuing, not by waiting.
	type probe struct {
		res *query.Result
		err error
	}
	const attempts = 3
	out := make(chan probe, attempts) // late results from abandoned attempts must not block
	var res *query.Result
	var qerr error
	for i := 0; i < attempts; i++ {
		q := &query.Query{
			Spec: query.Spec{Kind: query.KindScan,
				Start: "c_", End: chain.PrefixEnd("c_"), Proj: query.ProjKV, Agg: query.AggCount},
			OnDone: func(r *query.Result, err error) { out <- probe{r, err} },
		}
		if err := client.Query(q); err != nil {
			log.Fatalf("ahlctl: status: %v", err)
		}
		select {
		case o := <-out:
			res, qerr = o.res, o.err
			if qerr == nil {
				i = attempts // done
			}
		case <-time.After(*timeout / attempts):
			qerr = fmt.Errorf("status probe timed out")
		}
	}
	if qerr != nil {
		log.Fatalf("ahlctl: status: %v", qerr)
	}
	fmt.Printf("ahlctl status\n")
	for s, pin := range res.Pins {
		fmt.Printf("  shard %-2d      sealed version %d\n", s, pin)
	}
	fmt.Printf("  accounts      %d\n", res.Count)
}

// liveReport is the -json row: the measured (post-warmup) throughput and
// latency distribution of one run.
type liveReport struct {
	Label       string  `json:"label"`
	Timestamp   string  `json:"timestamp"`
	Txs         int     `json:"txs"`
	Warmup      int     `json:"warmup_excluded"`
	Committed   int     `json:"committed"`
	Aborted     int     `json:"aborted"`
	Cross       float64 `json:"cross_fraction"`
	Outstanding int     `json:"outstanding"`
	ElapsedS    float64 `json:"elapsed_s"`
	TPS         float64 `json:"tps"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	MaxMs       float64 `json:"max_ms"`
}

func runLoad(args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	var (
		topoPath    = fs.String("topo", "", "cluster topology JSON (required)")
		id          = fs.Int("id", -1, "client node id (default: first client in the topology)")
		accounts    = fs.Int("accounts", 32, "SmallBank accounts to seed")
		balance     = fs.Int64("balance", 1_000_000, "initial checking balance per account")
		txs         = fs.Int("txs", 200, "transactions to run after seeding")
		cross       = fs.Float64("cross", 0.3, "fraction of cross-shard transactions")
		outstanding = fs.Int("outstanding", 16, "closed-loop window (in-flight transactions)")
		seed        = fs.Int64("seed", 1, "workload RNG seed")
		timeout     = fs.Duration("timeout", 5*time.Minute, "overall run deadline")
		warmup      = fs.Int("warmup", -1, "completed transactions excluded from the measurement window (-1 = txs/10)")
		label       = fs.String("label", "live", "label recorded in the -json report")
		jsonOut     = fs.String("json", "", "write the measured report as a JSON row to this file")
	)
	fs.Parse(args)
	if *topoPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	cfg, client, tr := connectClient(*topoPath, *id)
	defer tr.Close()
	defer client.Stop()
	shards := len(cfg.Shards)
	deadline := time.After(*timeout)

	// Group accounts by owning shard so the driver can build guaranteed
	// cross-shard pairs.
	perShard := make([][]string, shards)
	all := make([]string, *accounts)
	for i := range all {
		acc := "acc" + strconv.Itoa(i)
		all[i] = acc
		s := client.ShardOf(acc)
		perShard[s] = append(perShard[s], acc)
	}
	for s, accs := range perShard {
		if len(accs) == 0 {
			log.Fatalf("ahlctl: no accounts hash to shard %d; raise -accounts", s)
		}
	}

	log.Printf("ahlctl: seeding %d accounts across %d shards", *accounts, shards)
	seedDone := make(chan txn.Result, len(all))
	for _, acc := range all {
		tx := chain.Tx{
			ID:        client.NextTxID(),
			Chaincode: "smallbank-sharded",
			Fn:        "create",
			Args:      []string{acc, strconv.FormatInt(*balance, 10), "0"},
		}
		if err := client.SubmitSingle(client.ShardOf(acc), tx, func(r txn.Result) { seedDone <- r }); err != nil {
			log.Fatal(err)
		}
	}
	for range all {
		select {
		case r := <-seedDone:
			if !r.Committed {
				log.Fatalf("ahlctl: seeding %s failed", r.TxID)
			}
		case <-deadline:
			log.Fatal("ahlctl: seeding timed out")
		}
	}

	log.Printf("ahlctl: running %d transactions (%.0f%% cross-shard, window %d)",
		*txs, *cross*100, *outstanding)
	rng := rand.New(rand.NewSource(*seed))
	results := make(chan txn.Result, *outstanding)
	runTag := client.RunTag()
	var txSeq int
	submit := func() {
		txSeq++
		if rng.Float64() < *cross && shards > 1 {
			// Transfer between two different shards.
			s1 := rng.Intn(shards)
			s2 := (s1 + 1 + rng.Intn(shards-1)) % shards
			from := perShard[s1][rng.Intn(len(perShard[s1]))]
			to := perShard[s2][rng.Intn(len(perShard[s2]))]
			d := core.PaymentDTx(shards, fmt.Sprintf("ctl%s-%d", runTag, txSeq), from, to, int64(1+rng.Intn(50)))
			if err := client.SubmitDistributed(d, func(r txn.Result) { results <- r }); err != nil {
				log.Fatal(err)
			}
			return
		}
		acc := all[rng.Intn(len(all))]
		tx := chain.Tx{
			ID:        client.NextTxID(),
			Chaincode: "smallbank-sharded",
			Fn:        "query",
			Args:      []string{acc},
		}
		if err := client.SubmitSingle(client.ShardOf(acc), tx, func(r txn.Result) { results <- r }); err != nil {
			log.Fatal(err)
		}
	}

	// The first completions pay cold costs (TCP dials, first pre-prepares,
	// empty caches) that say nothing about steady state; exclude them from
	// the measurement window so pipeline tail effects are visible in the
	// percentiles instead of being drowned by startup noise.
	wu := *warmup
	if wu < 0 {
		wu = *txs / 10
	}
	if wu >= *txs {
		log.Fatalf("ahlctl: -warmup %d leaves no measured transactions (txs %d)", wu, *txs)
	}

	start := time.Now()
	measStart := start
	inFlight := 0
	for inFlight < *outstanding && txSeq < *txs {
		submit()
		inFlight++
	}
	var committed, aborted int
	var lats []time.Duration
	for done := 0; done < *txs; {
		select {
		case r := <-results:
			done++
			inFlight--
			if r.Committed {
				committed++
			} else {
				aborted++
			}
			if done > wu {
				lats = append(lats, r.Latency)
			}
			if done == wu {
				measStart = time.Now()
			}
			if txSeq < *txs {
				submit()
				inFlight++
			}
		case <-deadline:
			log.Fatalf("ahlctl: timed out with %d/%d done", committed+aborted, *txs)
		}
	}
	elapsed := time.Since(start)
	measured := time.Since(measStart)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p*float64(len(lats))) - 1
		if i < 0 {
			i = 0
		}
		return lats[i]
	}
	tps := float64(*txs-wu) / measured.Seconds()
	st := tr.Stats()
	fmt.Printf("ahlctl report\n")
	fmt.Printf("  transactions  %d committed, %d aborted in %.2fs (%d warmup excluded from measurement)\n",
		committed, aborted, elapsed.Seconds(), wu)
	fmt.Printf("  throughput    %.1f tx/s (measured window %.2fs)\n", tps, measured.Seconds())
	fmt.Printf("  latency       p50 %s  p95 %s  p99 %s  p99.9 %s  max %s\n",
		pct(0.50).Round(time.Millisecond), pct(0.95).Round(time.Millisecond),
		pct(0.99).Round(time.Millisecond), pct(0.999).Round(time.Millisecond),
		pct(1.0).Round(time.Millisecond))
	fmt.Printf("  transport     sent %d frames / %d B, recv %d frames / %d B, dropped %d\n",
		st.SentFrames, st.SentBytes, st.RecvFrames, st.RecvBytes, st.Dropped)
	if aborted > 0 {
		// Contended accounts legitimately abort under 2PL; nonzero aborts
		// are a workload property, not an error.
		fmt.Printf("  note          aborts are lock conflicts (2PL); rerun with more -accounts to reduce contention\n")
	}

	rep := liveReport{
		Label:       *label,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		Txs:         *txs,
		Warmup:      wu,
		Committed:   committed,
		Aborted:     aborted,
		Cross:       *cross,
		Outstanding: *outstanding,
		ElapsedS:    elapsed.Seconds(),
		TPS:         tps,
		P50Ms:       ms(pct(0.50)),
		P95Ms:       ms(pct(0.95)),
		P99Ms:       ms(pct(0.99)),
		P999Ms:      ms(pct(0.999)),
		MaxMs:       ms(pct(1.0)),
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("ahlctl: wrote %s", *jsonOut)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
