package query

import (
	"repro/internal/chain"
	"repro/internal/chaincode"
	"repro/internal/simnet"
)

// ConservationResult is the outcome of a height-consistent balance sweep:
// committed checking + savings totals at one cut of per-shard pins, plus
// the in-flight 2PC residues resolved against that cut.
type ConservationResult struct {
	Pins     []uint64
	Checking int64
	Savings  int64
	Accounts uint64 // checking rows summed
	// Residues are the staged deltas observed at the cut; Applied is the
	// portion added to Total because the owning transaction had already
	// committed on some shard at its pin.
	Residues []StagedDelta
	Applied  int64
	Total    int64
}

// Conservation runs the balance-conservation query: three scatter scans
// sharing one cut (checking sum, savings sum, staged residues) and a
// resolve round for the residues' owning transactions. Each scan reads the
// cut again, which is what keeps it retained across checkpoints (see
// chain.Store.SetFloor). done runs once, with the result or the first
// error, on the gateway's event-loop goroutine.
func Conservation(g *Gateway, targets []simnet.NodeID, done func(*ConservationResult, error)) {
	out := &ConservationResult{}

	sumSpec := func(prefix string) Spec {
		return Spec{Kind: KindScan, Start: prefix, End: chain.PrefixEnd(prefix), Proj: ProjKV, Agg: AggSum}
	}

	// Step 4: resolve residue owners against the cut; apply deltas of
	// transactions some shard had committed by its pin.
	resolve := func() {
		if len(out.Residues) == 0 {
			out.Total = out.Checking + out.Savings
			done(out, nil)
			return
		}
		seen := make(map[string]bool, len(out.Residues))
		var txids []string
		for _, sd := range out.Residues {
			if !seen[sd.Txid] {
				seen[sd.Txid] = true
				txids = append(txids, sd.Txid)
			}
		}
		err := g.Start(&Query{
			Targets: targets, Pins: out.Pins,
			Spec:  Spec{Kind: KindResolve},
			Txids: txids,
			OnDone: func(res *Result, err error) {
				if err != nil {
					done(nil, err)
					return
				}
				for _, sd := range out.Residues {
					if res.Resolved[sd.Txid] {
						out.Applied += sd.Delta
					}
				}
				out.Total = out.Checking + out.Savings + out.Applied
				done(out, nil)
			},
		})
		if err != nil {
			done(nil, err)
		}
	}

	// Step 3: staged 2PL residues at the same cut.
	residues := func() {
		err := g.Start(&Query{
			Targets: targets, Pins: out.Pins,
			Spec: Spec{Kind: KindScan,
				Start: chaincode.StagePrefix, End: chain.PrefixEnd(chaincode.StagePrefix),
				Proj: ProjStagedDelta},
			OnDone: func(res *Result, err error) {
				if err != nil {
					done(nil, err)
					return
				}
				out.Residues = res.Deltas
				resolve()
			},
		})
		if err != nil {
			done(nil, err)
		}
	}

	// Step 2: savings sum at the same cut.
	savings := func() {
		err := g.Start(&Query{
			Targets: targets, Pins: out.Pins,
			Spec: sumSpec("s_"),
			OnDone: func(res *Result, err error) {
				if err != nil {
					done(nil, err)
					return
				}
				out.Savings = res.Sum
				residues()
			},
		})
		if err != nil {
			done(nil, err)
		}
	}

	// Step 1: acquire the cut (one pin scatter) and sum checking balances.
	err := g.Start(&Query{
		Targets: targets,
		Spec:    sumSpec("c_"),
		OnDone: func(res *Result, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			out.Pins = res.Pins
			out.Checking = res.Sum
			out.Accounts = res.Count
			savings()
		},
	})
	if err != nil {
		done(nil, err)
	}
}
