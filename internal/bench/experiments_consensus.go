package bench

import (
	"repro/internal/consensus/pbft"
)

// sweepN returns the paper's committee-size sweep capped by the scale.
func sweepN(paper []int, s Scale) []int {
	var out []int
	for _, n := range paper {
		if n <= s.MaxN {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{paper[0]}
	}
	return out
}

// sweepNodes returns a whole-system node-count sweep capped by the
// scale's Nodes budget. The base lists end at 972 = 36 shards of 27 (the
// paper's largest deployment), so -scale full reaches paper scale while
// smaller tiers keep the same shape.
func sweepNodes(base []int, s Scale) []int {
	var out []int
	for _, n := range base {
		if n <= s.Nodes {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{base[0]}
	}
	return out
}

// The single-committee experiments below enumerate their configurations
// through runSweep's eval callback, so every sweep point runs on the
// parallel worker pool while the assembled tables stay bit-identical to
// serial execution (see parallel.go).

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "BFT protocol comparison: HL vs Tendermint vs Quorum-Raft vs IBFT (throughput vs N; vs #clients)",
		Run: func(s Scale) *Table {
			t := &Table{ID: "fig2", Title: "BFT protocols, KVStore, cluster",
				Cols: []string{"sweep", "x", "HL", "Tendermint", "Raft(Quorum)", "IBFT"}}
			protos := []string{"hl", "tendermint", "raft", "ibft"}
			runSweep(t, func(t *Table, eval func(ConsensusCfg) ConsensusResult) {
				for _, n := range sweepN([]int{1, 7, 19, 31, 43, 55, 67, 79}, s) {
					row := []any{"N", n}
					for _, p := range protos {
						r := eval(ConsensusCfg{Protocol: p, N: n, Clients: 10,
							Duration: s.Duration, Seed: 2})
						row = append(row, r.Tps)
					}
					t.Add(row...)
				}
				for _, c := range []int{1, 4, 16, 64} {
					row := []any{"clients", c}
					for _, p := range protos {
						r := eval(ConsensusCfg{Protocol: p, N: 4, Clients: c,
							Duration: s.Duration, Seed: 2})
						row = append(row, r.Tps)
					}
					t.Add(row...)
				}
				t.Notes = append(t.Notes,
					"paper: PBFT (HL) outperforms the lockstep protocols at scale; Tendermint beats HL only at N=1 (HL REST cap)",
					"Raft, crash-fault only and unsigned, leads at N=1 and beats Tendermint at N=7")
			})
			return t
		},
	})

	register(Experiment{
		ID:    "fig8",
		Title: "AHL+ vs HL/AHL/AHLR on the local cluster, without and with Byzantine failures",
		Run: func(s Scale) *Table {
			t := &Table{ID: "fig8", Title: "consensus variants, KVStore, cluster",
				Cols: []string{"mode", "x", "HL", "AHL", "AHL+", "AHLR"}}
			protos := []string{"hl", "ahl", "ahl+", "ahlr"}
			runSweep(t, func(t *Table, eval func(ConsensusCfg) ConsensusResult) {
				for _, n := range sweepN([]int{7, 19, 31, 43, 55, 67, 79}, s) {
					row := []any{"N", n}
					for _, p := range protos {
						r := eval(ConsensusCfg{Protocol: p, N: n, Clients: 10,
							Duration: s.Duration, Seed: 3})
						row = append(row, r.Tps)
					}
					t.Add(row...)
				}
				// With failures: for a given f, HL runs N=3f+1 while the
				// attested variants run N=2f+1 (the paper's Figure 8 right).
				// f=39 is the attested variants' paper maximum (N=79).
				for _, f := range sweepN([]int{1, 5, 10, 26, 39}, s) {
					row := []any{"f", f}
					for _, p := range protos {
						n := 2*f + 1
						if p == "hl" {
							n = 3*f + 1
						}
						if n > s.MaxN+12 {
							row = append(row, "-")
							continue
						}
						r := eval(ConsensusCfg{Protocol: p, N: n, Clients: 10,
							Failures: f, FailureMode: pbft.BehaviorEquivocate,
							Duration: s.Duration, Seed: 3})
						row = append(row, r.Tps)
					}
					t.Add(row...)
				}
				t.Notes = append(t.Notes,
					"paper: HL/AHL livelock beyond N=67; AHL+ and AHLR sustain throughput, AHL+ > AHLR")
			})
			return t
		},
	})

	register(Experiment{
		ID:    "fig9",
		Title: "AHL+ vs HL/AHL/AHLR on GCP (4 and 8 regions)",
		Run: func(s Scale) *Table {
			t := &Table{ID: "fig9", Title: "consensus variants, KVStore, GCP",
				Cols: []string{"regions", "N", "HL", "AHL", "AHL+", "AHLR"}}
			runSweep(t, func(t *Table, eval func(ConsensusCfg) ConsensusResult) {
				for _, regions := range []int{4, 8} {
					for _, n := range sweepN([]int{7, 19, 31, 43, 55, 67, 79}, s) {
						row := []any{regions, n}
						for _, p := range []string{"hl", "ahl", "ahl+", "ahlr"} {
							r := eval(ConsensusCfg{Protocol: p, N: n, Clients: 10,
								Env: Env{GCPRegions: regions}, Duration: s.Duration, Seed: 4})
							row = append(row, r.Tps)
						}
						t.Add(row...)
					}
				}
				t.Notes = append(t.Notes, "paper: HL and AHL show no throughput on GCP; AHL+/AHLR stay above 200 tps")
			})
			return t
		},
	})

	register(Experiment{
		ID:    "fig10",
		Title: "Ablation: contribution of TEE, opt1 (split queues), opt2 (no request broadcast), opt3 (aggregation)",
		Run: func(s Scale) *Table {
			t := &Table{ID: "fig10", Title: "optimization ablation, cluster",
				Cols: []string{"config", "tps (no failures, N=19)", "tps (f=5 equivocating)"}}
			configs := []struct {
				label string
				proto string
			}{
				{"HL (baseline)", "hl"},
				{"AHL (TEE)", "ahl"},
				{"AHL + op1", "ahl+op1"},
				{"AHL + op1,2 (AHL+)", "ahl+"},
				{"AHL + op1,2,3 (AHLR)", "ahlr"},
			}
			n := 19
			if n > s.MaxN {
				n = s.MaxN
			}
			f := 5
			runSweep(t, func(t *Table, eval func(ConsensusCfg) ConsensusResult) {
				for _, c := range configs {
					nf := n
					if c.proto == "hl" {
						nf = 3*f + 1
					} else {
						nf = 2*f + 1
					}
					ok := eval(ConsensusCfg{Protocol: c.proto, N: n, Clients: 10,
						Duration: s.Duration, Seed: 5})
					bad := eval(ConsensusCfg{Protocol: c.proto, N: nf, Clients: 10,
						Failures: f, FailureMode: pbft.BehaviorEquivocate,
						Duration: s.Duration, Seed: 5})
					t.Add(c.label, ok.Tps, bad.Tps)
				}
				t.Notes = append(t.Notes,
					"paper: op2 helps most without failures; op1 helps most under failures; AHL+ (op1+op2) is best overall")
			})
			return t
		},
	})

	register(Experiment{
		ID:    "fig15",
		Title: "Consensus latency vs N on cluster and GCP",
		Run: func(s Scale) *Table {
			t := &Table{ID: "fig15", Title: "average commit latency",
				Cols: []string{"env", "N", "HL", "AHL", "AHL+", "AHLR"}}
			runSweep(t, func(t *Table, eval func(ConsensusCfg) ConsensusResult) {
				for _, env := range []Env{{}, {GCPRegions: 8}} {
					for _, n := range sweepN([]int{7, 19, 31, 43, 55, 67, 79}, s) {
						row := []any{env.String(), n}
						for _, p := range []string{"hl", "ahl", "ahl+", "ahlr"} {
							r := eval(ConsensusCfg{Protocol: p, N: n, Clients: 10,
								Env: env, Duration: s.Duration, Seed: 6})
							if r.AvgLatency == 0 {
								row = append(row, "stalled")
							} else {
								row = append(row, r.AvgLatency)
							}
						}
						t.Add(row...)
					}
				}
			})
			return t
		},
	})

	register(Experiment{
		ID:    "fig16",
		Title: "Number of view changes: normal case vs worst case",
		Run: func(s Scale) *Table {
			t := &Table{ID: "fig16", Title: "view changes per run",
				Cols: []string{"mode", "x", "HL", "AHL", "AHL+", "AHLR"}}
			runSweep(t, func(t *Table, eval func(ConsensusCfg) ConsensusResult) {
				for _, n := range sweepN([]int{7, 19, 31, 43, 55, 67, 79}, s) {
					row := []any{"normal N", n}
					for _, p := range []string{"hl", "ahl", "ahl+", "ahlr"} {
						r := eval(ConsensusCfg{Protocol: p, N: n, Clients: 10,
							Duration: s.Duration, Seed: 7})
						row = append(row, r.ViewChanges)
					}
					t.Add(row...)
				}
				for _, f := range sweepN([]int{1, 5, 10, 26, 39}, s) {
					row := []any{"worst f", f}
					for _, p := range []string{"hl", "ahl", "ahl+", "ahlr"} {
						n := 2*f + 1
						if p == "hl" {
							n = 3*f + 1
						}
						if n > s.MaxN+12 {
							row = append(row, "-")
							continue
						}
						r := eval(ConsensusCfg{Protocol: p, N: n, Clients: 10,
							Failures: f, FailureMode: pbft.BehaviorEquivocate,
							Duration: s.Duration, Seed: 7})
						row = append(row, r.ViewChanges)
					}
					t.Add(row...)
				}
			})
			return t
		},
	})

	register(Experiment{
		ID:    "fig17",
		Title: "Cost breakdown: consensus vs execution CPU time",
		Run: func(s Scale) *Table {
			t := &Table{ID: "fig17", Title: "per-replica CPU time split (AHL+ et al., cluster)",
				Cols: []string{"N", "protocol", "consensus busy", "execution busy", "ratio"}}
			runSweep(t, func(t *Table, eval func(ConsensusCfg) ConsensusResult) {
				for _, n := range sweepN([]int{7, 19, 31, 43, 55, 67, 79}, s) {
					for _, p := range []string{"hl", "ahl+", "ahlr"} {
						r := eval(ConsensusCfg{Protocol: p, N: n, Clients: 10,
							Duration: s.Duration, Seed: 8})
						ratio := 0.0
						if r.ExecBusy > 0 {
							ratio = float64(r.ConsensusBusy) / float64(r.ExecBusy)
						}
						t.Add(n, p, r.ConsensusBusy, r.ExecBusy, ratio)
					}
				}
				t.Notes = append(t.Notes, "paper: execution cost is an order of magnitude below consensus cost")
			})
			return t
		},
	})

	register(Experiment{
		ID:    "fig19",
		Title: "Throughput vs number of clients on GCP (256 and 1024 req/s aggregate)",
		Run: func(s Scale) *Table {
			t := &Table{ID: "fig19", Title: "client sweep, GCP 4 regions, N=7",
				Cols: []string{"aggregate req/s", "clients", "HL", "AHL+", "AHLR"}}
			runSweep(t, func(t *Table, eval func(ConsensusCfg) ConsensusResult) {
				for _, rate := range []float64{256, 1024} {
					for _, c := range []int{1, 4, 16, 64} {
						row := []any{rate, c}
						for _, p := range []string{"hl", "ahl+", "ahlr"} {
							r := eval(ConsensusCfg{Protocol: p, N: 7, Clients: c,
								RatePerClient: rate / float64(c),
								Env:           Env{GCPRegions: 4}, Duration: s.Duration, Seed: 9})
							row = append(row, r.Tps)
						}
						t.Add(row...)
					}
				}
			})
			return t
		},
	})

	register(Experiment{
		ID:    "fig20",
		Title: "Throughput vs number of clients on the cluster (SmallBank and KVStore)",
		Run: func(s Scale) *Table {
			t := &Table{ID: "fig20", Title: "client sweep, cluster, N=7",
				Cols: []string{"benchmark", "clients", "HL", "AHL", "AHL+", "AHLR"}}
			runSweep(t, func(t *Table, eval func(ConsensusCfg) ConsensusResult) {
				for _, bm := range []string{"smallbank", "kvstore"} {
					for _, c := range []int{1, 4, 16, 64} {
						row := []any{bm, c}
						for _, p := range []string{"hl", "ahl", "ahl+", "ahlr"} {
							r := eval(ConsensusCfg{Protocol: p, N: 7, Clients: c,
								Benchmark: bm, Duration: s.Duration, Seed: 10})
							row = append(row, r.Tps)
						}
						t.Add(row...)
					}
				}
			})
			return t
		},
	})
}
