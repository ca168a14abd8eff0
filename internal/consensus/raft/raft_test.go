package raft

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/chaincode"
	"repro/internal/consensus"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tee"
)

func buildNet(n int, tune func(*Options)) (*sim.Engine, *simnet.Network, []*Replica) {
	engine := sim.NewEngine(1)
	net := simnet.New(engine, simnet.LAN())
	nodes := make([]simnet.NodeID, n)
	for i := range nodes {
		nodes[i] = simnet.NodeID(i)
	}
	committee := consensus.CrashCommittee(nodes)
	reps := make([]*Replica, n)
	for i := range nodes {
		ep := net.Attach(nodes[i], simnet.DefaultSplitQueue())
		opts := DefaultOptions(committee, i)
		opts.Costs = tee.FreeCosts()
		opts.ExecPerTx = 0
		if tune != nil {
			tune(&opts)
		}
		reps[i] = New(opts, ep, chaincode.NewRegistry(chaincode.KVStore{}))
	}
	for _, r := range reps {
		r.Start(engine)
	}
	return engine, net, reps
}

func TestRaftReplicatesBlocks(t *testing.T) {
	engine, _, reps := buildNet(5, nil)
	engine.Schedule(0, func() {
		for i := 0; i < 50; i++ {
			reps[i%5].SubmitLocal(chain.Tx{
				ID: uint64(i + 1), Chaincode: "kvstore", Fn: "put",
				Args: []string{fmt.Sprintf("k%d", i), "v"},
			})
		}
	})
	engine.Run(sim.Time(30 * time.Second))
	if got := reps[0].Executed(); got != 50 {
		t.Fatalf("leader executed %d, want 50", got)
	}
	// Followers replicate the exact chain.
	for i := 1; i < len(reps); i++ {
		if reps[i].Executed() != 50 {
			t.Fatalf("follower %d executed %d, want 50", i, reps[i].Executed())
		}
		if err := reps[i].Ledger().VerifyChain(); err != nil {
			t.Fatal(err)
		}
		for h := uint64(0); h < reps[0].Ledger().Height(); h++ {
			if reps[i].Ledger().Block(h).Header.TxRoot != reps[0].Ledger().Block(h).Header.TxRoot {
				t.Fatalf("follower %d diverges at height %d", i, h)
			}
		}
	}
}

func TestRaftLockstepNoPipelining(t *testing.T) {
	// The naive Quorum integration finalizes one block before building
	// the next: with batch 1 and a 1 ms round trip, 10 txs need >= 10
	// sequential round trips.
	engine, _, reps := buildNet(3, func(o *Options) { o.BatchSize = 1 })
	start := engine.Now()
	engine.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			reps[0].SubmitLocal(chain.Tx{ID: uint64(i + 1), Chaincode: "kvstore", Fn: "put", Args: []string{"k", "v"}})
		}
	})
	end := engine.Run(sim.Time(30 * time.Second))
	if reps[0].Executed() != 10 {
		t.Fatalf("executed %d, want 10", reps[0].Executed())
	}
	if reps[0].Ledger().Height() != 10 {
		t.Fatalf("height %d, want 10 blocks (batch=1)", reps[0].Ledger().Height())
	}
	_ = start
	_ = end
}

func TestRaftToleratesMinorityCrash(t *testing.T) {
	engine, net, reps := buildNet(5, nil)
	engine.Schedule(0, func() {
		// Crash two followers: quorum 3 (leader + 2) is still reachable.
		net.Endpoint(3).SetDown(true)
		net.Endpoint(4).SetDown(true)
		for i := 0; i < 20; i++ {
			reps[0].SubmitLocal(chain.Tx{ID: uint64(i + 1), Chaincode: "kvstore", Fn: "put", Args: []string{"k", "v"}})
		}
	})
	engine.Run(sim.Time(30 * time.Second))
	if reps[0].Executed() != 20 {
		t.Fatalf("executed %d, want 20 with minority down", reps[0].Executed())
	}
	if reps[4].Executed() != 0 {
		t.Fatal("crashed follower executed transactions")
	}
}

func TestRaftMajorityCrashStallsProgress(t *testing.T) {
	engine, net, reps := buildNet(5, nil)
	engine.Schedule(0, func() {
		net.Endpoint(2).SetDown(true)
		net.Endpoint(3).SetDown(true)
		net.Endpoint(4).SetDown(true)
		reps[0].SubmitLocal(chain.Tx{ID: 1, Chaincode: "kvstore", Fn: "put", Args: []string{"k", "v"}})
	})
	engine.Run(sim.Time(30 * time.Second))
	if reps[0].Executed() != 0 {
		t.Fatal("leader committed without a majority")
	}
}

// TestRaftSingleNodeCommits covers the committee of one: the leader's own
// ack is the whole quorum, so each block commits when it is proposed. A
// committed block stays in flight until it executes, so no transaction is
// proposed in two blocks.
func TestRaftSingleNodeCommits(t *testing.T) {
	engine, _, reps := buildNet(1, func(o *Options) { o.BatchSize = 4 })
	engine.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			reps[0].SubmitLocal(chain.Tx{ID: uint64(i + 1), Chaincode: "kvstore", Fn: "put",
				Args: []string{fmt.Sprintf("k%d", i), "v"}})
		}
	})
	engine.Run(sim.Time(5 * time.Second))
	if got := reps[0].Executed(); got != 10 {
		t.Fatalf("single-node leader executed %d, want 10", got)
	}
	if err := reps[0].Ledger().VerifyChain(); err != nil {
		t.Fatal(err)
	}
	ordered := 0
	for h := uint64(0); h < reps[0].Ledger().Height(); h++ {
		ordered += len(reps[0].Ledger().Block(h).Txs)
	}
	if ordered != 10 {
		t.Fatalf("the ledger orders %d transactions for 10 submitted: a block re-proposed executing ones", ordered)
	}
}
