package report

// The paper-target registry: every experiment id in internal/bench keyed
// to its artifact in the paper, plus — where the paper (or its notes
// reproduced in the experiment tables) states a headline number — a
// numeric target for the key metric. Metrics without a stated paper
// number carry a qualitative shape target instead; their values are still
// tracked across PRs by the comparator.
//
// Numeric targets deliberately come only from values the paper states
// outright (e.g. ">3000 tps at 36 shards", "~80-node committees at 25%",
// "stale rate 3% at N=128"); nothing is read off plot pixels.

// Target keys one experiment to its paper artifact and reproduction
// target.
type Target struct {
	// Artifact names the paper table/figure/equation ("Figure 8").
	Artifact string
	// Metric is the experiment's key metric; nil when the table has no
	// meaningful scalar (e.g. the Figure 12 time series).
	Metric *Metric
	// Paper is the paper's headline value for Metric; 0 means the paper
	// states no number and PaperNote describes the shape target.
	Paper float64
	// Floor marks Paper as a bound the paper asserts ("stays above X")
	// rather than a point value; the delta column then reports whether
	// the bound is met instead of a misleading percentage.
	Floor bool
	// PaperNote is the qualitative reproduction target.
	PaperNote string
	// Static marks tables reproduced by construction (survey tables,
	// cost tables copied from the paper's measurements).
	Static bool
}

// TargetFor returns the target spec for an experiment id; unknown ids get
// an empty artifact and no metric, so rendering degrades gracefully.
func TargetFor(id string) Target {
	if t, ok := targets[id]; ok {
		return t
	}
	return Target{Artifact: "—"}
}

var targets = map[string]Target{
	"fig2": {
		Artifact: "Figure 2 (§2)",
		Metric: &Metric{Name: "peak HL throughput (N sweep)", Col: "HL",
			Where: []Cond{{Col: "sweep", Equals: "N"}}, Agg: "max", Unit: "tps"},
		PaperNote: "PBFT (HL) outperforms the lockstep protocols at scale; Tendermint beats HL only at N=1, where HL's REST cap binds (crash-fault Raft beats both there)",
	},
	"fig8": {
		Artifact: "Figure 8 (§7)",
		Metric: &Metric{Name: "peak AHL+ throughput (N sweep)", Col: "AHL+",
			Where: []Cond{{Col: "mode", Equals: "N"}}, Agg: "max", Unit: "tps"},
		PaperNote: "HL/AHL livelock beyond N=67; AHL+ and AHLR sustain throughput to N=79, AHL+ > AHLR",
	},
	"fig9": {
		Artifact: "Figure 9 (§7)",
		Metric: &Metric{Name: "peak AHL+ throughput on GCP", Col: "AHL+",
			Agg: "max", Unit: "tps"},
		Paper:     200,
		Floor:     true,
		PaperNote: "HL and AHL show no throughput on GCP; AHL+/AHLR stay above 200 tps (the target is that floor)",
	},
	"fig10": {
		Artifact: "Figure 10 (§7)",
		Metric: &Metric{Name: "AHL+ ablation throughput (no failures)", Col: "tps (no failures, N=19)",
			Where: []Cond{{Col: "config", Prefix: "AHL + op1,2 "}}, Agg: "first", Unit: "tps"},
		PaperNote: "op2 helps most without failures, op1 most under failures; AHL+ (op1+op2) is best overall",
	},
	"fig11": {
		Artifact: "Figure 11 (§7)",
		Metric: &Metric{Name: "committee size at 25% adversary", Col: "ours",
			Where: []Cond{{Col: "metric", Prefix: "committee size"}, {Col: "x", Equals: "25.0"}},
			Agg:   "first", Unit: "nodes", LowerBetter: true},
		Paper:     80,
		PaperNote: "~80-node committees suffice at a 25% adversary vs 600+ under the 1/3 rule; the beacon forms shards up to 32× faster than RandHound",
	},
	"fig11x": {
		Artifact: "§5.1 extension",
		Metric: &Metric{Name: "beacon messages at l=log N", Col: "messages",
			Agg: "last", Unit: "msgs", LowerBetter: true},
		PaperNote: "l trades repeat probability (1-2^-l)^N against O(2^-l N²) communication; l=log N gives O(N) messages",
	},
	"fig12": {
		Artifact:  "Figure 12 (§7)",
		PaperNote: "swap-all drops to zero for ~80s then spikes on backlog; swap-log(n) tracks the no-reshard baseline",
	},
	"fig13": {
		Artifact: "Figure 13 (§7)",
		Metric: &Metric{Name: "peak AHL+ throughput with reference committee", Col: "value",
			Where: []Cond{{Col: "metric", Prefix: "AHL+ w/ R tps"}}, Agg: "max", Unit: "tps"},
		PaperNote: "throughput scales linearly with shards until the reference committee becomes the bottleneck; abort rate rises with Zipf skew",
	},
	"fig13x": {
		Artifact: "§6.2 extension",
		Metric: &Metric{Name: "peak committed throughput (R scale-out)", Col: "committed tps",
			Agg: "max", Unit: "tps"},
		PaperNote: "running multiple parallel instances of R raises committed throughput until the shards saturate",
	},
	"fig13r": {
		Artifact: "§6.4 extension",
		Metric: &Metric{Name: "peak goodput under retries", Col: "goodput tps",
			Agg: "max", Unit: "tps"},
		PaperNote: "retries trade goodput for logical success rate under skew (2PL no-wait aborts)",
	},
	"fig14": {
		Artifact: "Figure 14 (§7)",
		Metric: &Metric{Name: "peak throughput at 12.5% adversary", Col: "tps",
			Where: []Cond{{Col: "adversary", Equals: "12.5%"}}, Agg: "max", Unit: "tps"},
		Paper:     3000,
		PaperNote: ">3000 tps at 36 shards (12.5% adversary, committees of 27 = 972 nodes); 954 tps at 25% (committees of 79)",
	},
	"fig15": {
		Artifact: "Figure 15 (§7)",
		Metric: &Metric{Name: "best AHL+ commit latency (cluster)", Col: "AHL+",
			Where: []Cond{{Col: "env", Equals: "cluster"}}, Agg: "min", Unit: "ms", LowerBetter: true},
		PaperNote: "latency grows with N and with WAN round-trips; attested variants stay responsive where HL stalls",
	},
	"fig16": {
		Artifact: "Figure 16 (§7)",
		Metric: &Metric{Name: "worst-case AHL+ view changes", Col: "AHL+",
			Where: []Cond{{Col: "mode", Equals: "worst f"}}, Agg: "max", Unit: "", LowerBetter: true},
		PaperNote: "view changes stay bounded for the attested variants even under equivocating leaders",
	},
	"fig17": {
		Artifact: "Figure 17 (§7)",
		Metric: &Metric{Name: "consensus/execution CPU ratio (AHL+)", Col: "ratio",
			Where: []Cond{{Col: "protocol", Equals: "ahl+"}}, Agg: "max", Unit: "×"},
		Paper:     10,
		PaperNote: "execution cost is an order of magnitude below consensus cost",
	},
	"fig18": {
		Artifact: "Figure 18 (§7)",
		Metric: &Metric{Name: "peak SmallBank AHL+ sharded throughput", Col: "SB-AHL+",
			Agg: "max", Unit: "tps"},
		PaperNote: "sharded throughput scales with total nodes; AHL+'s smaller committees beat HL's at equal node budget",
	},
	"fig19": {
		Artifact: "Figure 19 (§7)",
		Metric: &Metric{Name: "peak AHL+ throughput (GCP client sweep)", Col: "AHL+",
			Agg: "max", Unit: "tps"},
		PaperNote: "throughput tracks the offered aggregate rate until consensus saturates",
	},
	"fig20": {
		Artifact: "Figure 20 (§7)",
		Metric: &Metric{Name: "peak AHL+ throughput (cluster client sweep)", Col: "AHL+",
			Agg: "max", Unit: "tps"},
		PaperNote: "KVStore and SmallBank saturate at similar rates — execution is not the bottleneck",
	},
	"fig21": {
		Artifact: "Figure 21 (§7)",
		Metric: &Metric{Name: "best PoET+/PoET throughput ratio", Col: "PoET+ tps",
			DivBy: "PoET tps", Agg: "max", Unit: "×"},
		Paper:     4,
		PaperNote: "PoET+ maintains up to 4× higher throughput at N=128",
	},
	"fig22": {
		Artifact: "Figure 22 (§7)",
		Metric: &Metric{Name: "worst PoET+ stale-block rate", Col: "PoET+",
			Agg: "max", Unit: "", LowerBetter: true},
		Paper:     0.03,
		PaperNote: "stale rate grows with N and block size; PoET+ cuts it ~5× (15% → 3% at N=128)",
	},
	"faults-loss": {
		Artifact: "§3.3 / §7 resilience (extension)",
		Metric: &Metric{Name: "committed tps under 10% message drop", Col: "committed tps",
			Where: []Cond{{Col: "fault", Equals: "drop"}, {Col: "rate", Equals: "0.1000"}},
			Agg:   "first", Unit: "tps"},
		PaperNote: "the partial-synchrony assumption (messages sent repeatedly with a finite timeout eventually arrive) holds end-to-end: throughput degrades with the injected loss/delay rate but every transaction terminates atomically — no unresolved transactions, no 2PL lock residue",
	},
	"faults-crash": {
		Artifact: "§3.1 fault model (extension)",
		Metric: &Metric{Name: "leader-crash recovery latency at f=1", Col: "value",
			Where: []Cond{{Col: "metric", Prefix: "recovery latency"}, {Col: "x", Equals: "1"}},
			Agg:   "first", Unit: "ms", LowerBetter: true},
		PaperNote: "up to f crash(-recovery) faults per 2f+1 committee are absorbed: the view change replaces a dead leader within a few progress timeouts and recovered replicas catch up by state sync/replay",
	},
	"faults-partition": {
		Artifact: "§3.3 partial synchrony (extension)",
		Metric: &Metric{Name: "committed tps under a 30s shard partition", Col: "committed tps",
			Where: []Cond{{Col: "partition", Equals: "30s"}}, Agg: "first", Unit: "tps"},
		PaperNote: "2PC blocks only for transactions touching the cut shard; after the heal, capped-backoff retransmission drains every blocked transaction with all locks released",
	},
	"faults-byz": {
		Artifact: "Figure 8 claim, whole-system (extension)",
		Metric: &Metric{Name: "committed tps with an equivocator per committee", Col: "committed tps",
			Where: []Cond{{Col: "behavior", Equals: "equivocate"}}, Agg: "first", Unit: "tps"},
		PaperNote: "the trusted log makes equivocation unproduceable, so an equivocating replica per committee costs nothing; a silent replica costs throughput (client retries route around it) but never safety",
	},
	"faults-2pc": {
		Artifact: "§6.2 coordinator replication (extension)",
		Metric: &Metric{Name: "committed tps with coordinator crash at first decide", Col: "committed tps",
			Where: []Cond{{Col: "crash point", Prefix: "first CommitTx"}, {Col: "outage", Equals: "crash-stop"}},
			Agg:   "first", Unit: "tps"},
		PaperNote: "the 2PC coordinator is a replicated state machine: a reference replica dying at any protocol point (even crash-stop) cannot block or half-apply a transaction",
	},
	"fig-read": {
		Artifact: "§4/§6 read path (extension)",
		Metric: &Metric{Name: "worst-case conservation violations", Col: "violations",
			Agg: "max", Unit: ""},
		PaperNote: "height-pinned scatter-gather sweeps resolve in-flight 2PC residues to an exactly conserved total (violations 0 at every reader count), and write tps is identical with 0, 1, or 4 concurrent readers — reads take no locks and enter no consensus",
	},
	"fig-readx": {
		Artifact: "§4 read path paging (extension)",
		Metric: &Metric{Name: "rows per ordered scan sweep", Col: "rows/sweep",
			Agg: "max", Unit: "rows"},
		PaperNote: "the gateway's k-way merge streams every checking row in global key order regardless of page size; shrinking pages adds round-trips per sweep but never changes the row stream",
	},
	"table1": {
		Artifact:  "Table 1 (§2)",
		Static:    true,
		PaperNote: "survey of sharded-blockchain evaluation methodology, reproduced verbatim",
	},
	"table2": {
		Artifact:  "Table 2 (§7)",
		Static:    true,
		PaperNote: "enclave operation costs injected into the simulation reproduce the paper's Skylake measurements",
	},
	"table3": {
		Artifact:  "Table 3 (§7)",
		Static:    true,
		PaperNote: "inter-region GCP delay matrix used by the simulated WAN environment",
	},
	"eq1": {
		Artifact: "Equation 1 (§5)",
		Metric: &Metric{Name: "required committee size, 25% adversary, f=(n-1)/2", Col: "n",
			Where: []Cond{{Col: "adversary", Equals: "0.2500"}, {Col: "rule", Prefix: "f=(n-1)/2"}},
			Agg:   "first", Unit: "nodes", LowerBetter: true},
		Paper:     80,
		PaperNote: "hypergeometric committee sizing: ~80 nodes at 25% under the 1/2 rule vs 600+ under the 1/3 rule",
	},
	"eq2": {
		Artifact: "Equation 2 (§5)",
		Metric: &Metric{Name: "transition fault probability at B=log(n)=6", Col: "Pr[faulty during transition]",
			Where: []Cond{{Col: "B", Equals: "6"}}, Agg: "first", Unit: "", LowerBetter: true},
		Paper:     1e-5,
		PaperNote: "batched swaps of B=log(n) nodes keep the epoch-transition fault probability ≈1e-5",
	},
	"eq3": {
		Artifact: "Equation 3 (Appendix B)",
		Metric: &Metric{Name: "cross-shard fraction, d=2, k=16", Col: "Pr[cross-shard]",
			Where: []Cond{{Col: "d", Equals: "2"}, {Col: "k", Equals: "16"}}, Agg: "first", Unit: ""},
		PaperNote: "the vast majority of multi-argument transactions are cross-shard",
	},
}
