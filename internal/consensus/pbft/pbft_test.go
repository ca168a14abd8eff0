package pbft

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/consensus"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tee"
)

// testCluster wires a single committee on a LAN for protocol tests.
type testCluster struct {
	engine *sim.Engine
	net    *simnet.Network
	bc     *BuiltCommittee
	nextTx uint64
}

func newTestCluster(t *testing.T, n int, variant Variant, behaviors map[int]Behavior, tune func(*Options)) *testCluster {
	if t != nil {
		t.Helper()
	}
	engine := sim.NewEngine(1)
	net := simnet.New(engine, simnet.LAN())
	scheme := blockcrypto.NewSimScheme()
	rng := rand.New(rand.NewSource(7))
	nodes := make([]simnet.NodeID, n)
	for i := range nodes {
		nodes[i] = simnet.NodeID(i)
	}
	bc := Build(net, scheme, rng, CommitteeSpec{
		Variant:   variant,
		Nodes:     nodes,
		Behaviors: behaviors,
		Costs:     tee.FreeCosts(),
		Tune:      tune,
	})
	return &testCluster{engine: engine, net: net, bc: bc}
}

// submit sends count kvstore transactions to the given replica.
func (tc *testCluster) submit(replica int, count int) {
	for i := 0; i < count; i++ {
		tc.nextTx++
		tx := chain.Tx{
			ID:        tc.nextTx,
			Chaincode: "kvstore",
			Fn:        "put",
			Args:      []string{fmt.Sprintf("k%d", tc.nextTx), "v"},
			Client:    9999,
		}
		tc.bc.Replicas[replica].SubmitLocal(tx)
	}
}

func (tc *testCluster) run(d time.Duration) { tc.engine.Run(sim.Time(d)) }

func (tc *testCluster) requireAgreement(t *testing.T, minExecuted int) {
	t.Helper()
	if err := tc.agreement(minExecuted); err != nil {
		t.Fatal(err)
	}
}

// agreement checks that a quorum of replicas executed at least
// minExecuted transactions and that every ledger verifies and agrees with
// the first such replica's over the heights both still hold (ledgers keep
// only their tail from the last stable checkpoint's block). Two replicas
// that both executed through the higher of their stable checkpoints each
// still hold that checkpoint's block, so they must share a retained
// height, or their agreement would go unchecked.
func (tc *testCluster) agreement(minExecuted int) error {
	var ref *Replica
	caughtUp := 0
	for i, r := range tc.bc.Replicas {
		if err := r.Ledger().VerifyChain(); err != nil {
			return fmt.Errorf("replica %d ledger broken: %v", i, err)
		}
		if r.Executed() >= minExecuted {
			caughtUp++
			if ref == nil {
				ref = r
			}
		}
	}
	if q := tc.bc.Committee.Quorum; caughtUp < q {
		return fmt.Errorf("only %d replicas executed >= %d txs, want quorum %d", caughtUp, minExecuted, q)
	}
	for i, r := range tc.bc.Replicas {
		n, err := chain.Agree(ref.Ledger(), r.Ledger())
		if err != nil {
			return fmt.Errorf("replica %d disagrees: %v", i, err)
		}
		if n == 0 && pastCommonCheckpoint(ref, r) {
			return fmt.Errorf("replica %d is past the reference's checkpoint but shares no retained height with it", i)
		}
	}
	return nil
}

// pastCommonCheckpoint reports whether a and b both executed at least one
// sequence and through the higher of their stable checkpoints.
func pastCommonCheckpoint(a, b *Replica) bool {
	through := min(a.ExecutedThrough(), b.ExecutedThrough())
	return through > 0 && through >= max(a.StableCheckpoint(), b.StableCheckpoint())
}

// TestAgreementChecksPrunedLedgers runs single-tx batches past several
// stable checkpoints, so every ledger keeps only its tail, and checks the
// agreement helper on it: it passes as run, fails on a flipped digest in
// a retained block, and fails when a caught-up replica dropped even its
// checkpoint block and so shares no height with the others.
func TestAgreementChecksPrunedLedgers(t *testing.T) {
	tc := newTestCluster(t, 4, VariantAHLPlus, nil, pipelinedTune)
	tc.engine.Schedule(0, func() { tc.submit(0, 40) })
	tc.run(20 * time.Second)
	tc.requireAgreement(t, 40)
	for i, r := range tc.bc.Replicas {
		// Block heights run one below sequence numbers here, so a tail that
		// starts at a checkpoint's own block has floor+1 on a checkpoint.
		led := r.Ledger()
		if led.Floor() == 0 || led.Floor() >= led.Height() || (led.Floor()+1)%r.opts.CheckpointEvery != 0 {
			t.Fatalf("replica %d ledger floor %d of height %d, want a non-empty tail from a checkpoint's block",
				i, led.Floor(), led.Height())
		}
	}

	led := tc.bc.Replicas[1].Ledger()
	tip := led.Block(led.Height() - 1)
	tip.Header.Proposer++
	if err := tc.agreement(40); err == nil {
		t.Fatal("agreement passed with a flipped digest in a retained block")
	}
	tip.Header.Proposer--

	led.SetFloor(led.Height())
	if err := tc.agreement(40); err == nil {
		t.Fatal("agreement passed although a caught-up replica shares no retained height")
	}
}

func TestHLNormalCase(t *testing.T) {
	tc := newTestCluster(t, 4, VariantHL, nil, nil)
	tc.engine.Schedule(0, func() { tc.submit(0, 50) })
	tc.run(10 * time.Second)
	tc.requireAgreement(t, 50)
	if tc.bc.Replicas[0].View() != 0 {
		t.Fatalf("view changed in failure-free run: view=%d", tc.bc.Replicas[0].View())
	}
}

func TestVariantsNormalCase(t *testing.T) {
	for _, v := range []Variant{VariantHL, VariantAHL, VariantAHLOpt1, VariantAHLPlus, VariantAHLR} {
		t.Run(v.String(), func(t *testing.T) {
			tc := newTestCluster(t, 7, v, nil, nil)
			tc.engine.Schedule(0, func() { tc.submit(2, 120) }) // submit to a follower
			tc.run(20 * time.Second)
			tc.requireAgreement(t, 120)
		})
	}
}

func TestAttestedToleratesHalf(t *testing.T) {
	// N=7 attested: f=3, quorum 4. Three silent nodes must not stop it.
	behaviors := map[int]Behavior{4: BehaviorSilent, 5: BehaviorSilent, 6: BehaviorSilent}
	tc := newTestCluster(t, 7, VariantAHLPlus, behaviors, nil)
	tc.engine.Schedule(0, func() { tc.submit(0, 60) })
	tc.run(30 * time.Second)
	tc.requireAgreement(t, 60)
}

func TestHLToleratesThird(t *testing.T) {
	// N=7 HL: f=2, quorum 5. Two silent nodes must not stop it.
	behaviors := map[int]Behavior{5: BehaviorSilent, 6: BehaviorSilent}
	tc := newTestCluster(t, 7, VariantHL, behaviors, nil)
	tc.engine.Schedule(0, func() { tc.submit(0, 60) })
	tc.run(30 * time.Second)
	tc.requireAgreement(t, 60)
}

func TestViewChangeOnSilentLeader(t *testing.T) {
	// Leader of view 0 (replica 0) is silent; a view change must elect
	// replica 1 and the committee must still execute everything.
	behaviors := map[int]Behavior{0: BehaviorSilent}
	tc := newTestCluster(t, 7, VariantAHLPlus, behaviors, nil)
	tc.engine.Schedule(0, func() { tc.submit(1, 40) })
	tc.run(60 * time.Second)
	tc.requireAgreement(t, 40)
	if v := tc.bc.Replicas[1].View(); v == 0 {
		t.Fatal("no view change happened despite silent leader")
	}
	if tc.bc.MaxViewChanges() == 0 {
		t.Fatal("view change counter not incremented")
	}
}

func TestViewChangeCascadePastMultipleSilentLeaders(t *testing.T) {
	// Views 0 and 1 both have silent leaders; the committee must cascade
	// to view 2.
	behaviors := map[int]Behavior{0: BehaviorSilent, 1: BehaviorSilent}
	tc := newTestCluster(t, 7, VariantAHLPlus, behaviors, nil)
	tc.engine.Schedule(0, func() { tc.submit(2, 30) })
	tc.run(120 * time.Second)
	tc.requireAgreement(t, 30)
	if v := tc.bc.Replicas[2].View(); v < 2 {
		t.Fatalf("view = %d, want >= 2", v)
	}
}

func TestEquivocatingLeaderHL(t *testing.T) {
	// Under HL a Byzantine leader equivocates; the committee must recover
	// via view change and still make progress (no safety violation).
	behaviors := map[int]Behavior{0: BehaviorEquivocate}
	tc := newTestCluster(t, 7, VariantHL, behaviors, nil)
	tc.engine.Schedule(0, func() { tc.submit(1, 30) })
	tc.run(120 * time.Second)
	tc.requireAgreement(t, 30)
	if tc.bc.MaxViewChanges() == 0 {
		t.Fatal("equivocating leader caused no view change")
	}
}

func TestEquivocatingLeaderAHLCannotSplitCommittee(t *testing.T) {
	// Under AHL the trusted log refuses the conflicting binding: the
	// attack degrades to withholding. The committee recovers and no two
	// honest replicas ever execute different blocks at a height.
	behaviors := map[int]Behavior{0: BehaviorEquivocate}
	tc := newTestCluster(t, 5, VariantAHLPlus, behaviors, nil)
	tc.engine.Schedule(0, func() { tc.submit(1, 30) })
	tc.run(120 * time.Second)
	tc.requireAgreement(t, 30)
}

func TestDedupAcrossReplicasAndRetries(t *testing.T) {
	tc := newTestCluster(t, 4, VariantHL, nil, nil)
	tx := chain.Tx{ID: 77, Chaincode: "kvstore", Fn: "put", Args: []string{"k", "v"}, Client: 1}
	tc.engine.Schedule(0, func() {
		// The same transaction submitted to every replica (client retry
		// storm) must execute exactly once.
		for _, r := range tc.bc.Replicas {
			r.SubmitLocal(tx)
			r.SubmitLocal(tx)
		}
	})
	tc.run(10 * time.Second)
	for i, r := range tc.bc.Replicas {
		if got := r.Executed(); got != 1 {
			t.Fatalf("replica %d executed %d txs, want 1", i, got)
		}
	}
}

func TestCheckpointAdvancesWatermark(t *testing.T) {
	tc := newTestCluster(t, 4, VariantAHLPlus, nil, func(o *Options) {
		o.BatchSize = 5
		o.CheckpointEvery = 4
		o.Window = 8
	})
	tc.engine.Schedule(0, func() { tc.submit(0, 200) })
	tc.run(60 * time.Second)
	tc.requireAgreement(t, 200)
	for i, r := range tc.bc.Replicas {
		if r.StableCheckpoint() == 0 {
			t.Fatalf("replica %d never advanced its stable checkpoint", i)
		}
	}
}

func TestPipeliningBeyondOneBlock(t *testing.T) {
	// With a wide window and small batches the leader must drive many
	// sequences concurrently; all must execute in order.
	tc := newTestCluster(t, 4, VariantAHLPlus, nil, func(o *Options) {
		o.BatchSize = 1
		o.Window = 32
		o.CheckpointEvery = 16
	})
	tc.engine.Schedule(0, func() { tc.submit(0, 64) })
	tc.run(60 * time.Second)
	tc.requireAgreement(t, 64)
	r := tc.bc.Replicas[0]
	if r.Ledger().Height() < 64 {
		t.Fatalf("ledger height = %d, want >= 64 (batch size 1)", r.Ledger().Height())
	}
}

func TestIntakeCapThrottles(t *testing.T) {
	tc := newTestCluster(t, 4, VariantHL, nil, func(o *Options) {
		o.IntakeCap = 10 // 10 requests/second
	})
	tc.engine.Schedule(0, func() { tc.submit(0, 500) })
	tc.run(2 * time.Second)
	// At 10/s for 2s with a full initial bucket of 10, at most ~30
	// admitted.
	if got := tc.bc.Replicas[0].Executed(); got > 40 {
		t.Fatalf("executed %d txs, want <= 40 under intake cap", got)
	}
}

func TestSmallBankExecutionThroughConsensus(t *testing.T) {
	tc := newTestCluster(t, 4, VariantAHLPlus, nil, nil)
	txs := []chain.Tx{
		{ID: 1, Chaincode: "smallbank", Fn: "create", Args: []string{"a", "100", "0"}},
		{ID: 2, Chaincode: "smallbank", Fn: "create", Args: []string{"b", "0", "0"}},
		{ID: 3, Chaincode: "smallbank", Fn: "sendPayment", Args: []string{"a", "b", "40"}},
	}
	tc.engine.Schedule(0, func() {
		for _, tx := range txs {
			tc.bc.Replicas[0].SubmitLocal(tx)
		}
	})
	tc.run(10 * time.Second)
	for i, r := range tc.bc.Replicas {
		v, ok := r.Store().Get("c_b")
		if !ok || string(v) != "40" {
			t.Fatalf("replica %d: c_b = %q ok=%v, want 40", i, v, ok)
		}
	}
}

func TestExecutedCallbackFires(t *testing.T) {
	tc := newTestCluster(t, 4, VariantAHLPlus, nil, nil)
	var events []consensus.BlockEvent
	tc.bc.Replicas[0].OnExecute(func(ev consensus.BlockEvent) { events = append(events, ev) })
	tc.engine.Schedule(0, func() { tc.submit(0, 10) })
	tc.run(10 * time.Second)
	total := 0
	for _, ev := range events {
		total += len(ev.Results)
		for _, res := range ev.Results {
			if !res.OK() {
				t.Fatalf("tx %d failed: %v", res.Tx.ID, res.Err)
			}
		}
	}
	if total != 10 {
		t.Fatalf("callback reported %d results, want 10", total)
	}
}

func TestCommitteeHelpers(t *testing.T) {
	nodes := []simnet.NodeID{10, 20, 30, 40, 50, 60, 70}
	bft := consensus.BFTCommittee(nodes)
	if bft.F != 2 || bft.Quorum != 5 {
		t.Fatalf("BFT committee f=%d q=%d, want 2/5", bft.F, bft.Quorum)
	}
	att := consensus.AttestedCommittee(nodes)
	if att.F != 3 || att.Quorum != 4 {
		t.Fatalf("attested committee f=%d q=%d, want 3/4", att.F, att.Quorum)
	}
	if att.Leader(0) != 10 || att.Leader(8) != 20 {
		t.Fatal("leader rotation wrong")
	}
	if att.Index(30) != 2 || att.Index(99) != -1 {
		t.Fatal("index lookup wrong")
	}
}

func TestVariantFlags(t *testing.T) {
	cases := []struct {
		v          Variant
		attested   bool
		split      bool
		forward    bool
		aggregated bool
	}{
		{VariantHL, false, false, false, false},
		{VariantAHL, true, false, false, false},
		{VariantAHLOpt1, true, true, false, false},
		{VariantAHLPlus, true, true, true, false},
		{VariantAHLR, true, true, true, true},
	}
	for _, c := range cases {
		if c.v.Attested() != c.attested || c.v.SplitQueues() != c.split ||
			c.v.ForwardToLeader() != c.forward || c.v.Aggregated() != c.aggregated {
			t.Fatalf("variant %v flags wrong", c.v)
		}
	}
}
