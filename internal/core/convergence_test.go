package core

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/consensus/pbft"
	"repro/internal/simnet"
	"repro/internal/tee"
	"repro/internal/txn"
)

// Replica-convergence safety checks: after any run — including chaotic
// ones with message loss and Byzantine members — the honest replicas of
// each committee must hold prefix-identical ledgers (safety holds
// regardless of the network, §4.1).

// assertCommitteeConverged verifies that every live replica's chain
// verifies and agrees with the first live replica's over the heights both
// still hold (ledgers keep only their tail from the last stable
// checkpoint's block).
func assertCommitteeConverged(t *testing.T, label string, bc *pbft.BuiltCommittee, skip map[simnet.NodeID]bool) {
	t.Helper()
	if err := committeeConverged(bc, skip); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// committeeConverged is assertCommitteeConverged's check. Two replicas
// that both executed through the higher of their stable checkpoints each
// still hold that checkpoint's block, so they must share a retained
// height, or their agreement would go unchecked.
func committeeConverged(bc *pbft.BuiltCommittee, skip map[simnet.NodeID]bool) error {
	var ref *pbft.Replica
	for _, r := range bc.Replicas {
		id := r.Endpoint().ID()
		if skip[id] {
			continue
		}
		if err := r.Ledger().VerifyChain(); err != nil {
			return fmt.Errorf("replica %d chain broken: %v", id, err)
		}
		if ref == nil {
			ref = r
		}
		n, err := chain.Agree(ref.Ledger(), r.Ledger())
		if err != nil {
			return fmt.Errorf("replicas %d and %d: %v", ref.Endpoint().ID(), id, err)
		}
		if n == 0 && pastCommonCheckpoint(ref, r) {
			return fmt.Errorf("replicas %d and %d are past a common checkpoint but share no retained height",
				ref.Endpoint().ID(), id)
		}
	}
	if ref == nil {
		return fmt.Errorf("no live replica to compare")
	}
	return nil
}

// pastCommonCheckpoint reports whether a and b both executed at least one
// sequence and through the higher of their stable checkpoints.
func pastCommonCheckpoint(a, b *pbft.Replica) bool {
	through := min(a.ExecutedThrough(), b.ExecutedThrough())
	return through > 0 && through >= max(a.StableCheckpoint(), b.StableCheckpoint())
}

func assertSystemConverged(t *testing.T, s *System, skip map[simnet.NodeID]bool) {
	t.Helper()
	for i, bc := range s.ShardCommittees {
		assertCommitteeConverged(t, "shard "+strconv.Itoa(i), bc, skip)
	}
	for g, bc := range s.RefCommittees {
		assertCommitteeConverged(t, "refgroup "+strconv.Itoa(g), bc, skip)
	}
}

func TestReplicasConvergeOnCleanRun(t *testing.T) {
	s := testSystem(t, 3, 4, 4, 1)
	s.Seed(30, 1000)

	done := 0
	n := 0
	for i := 0; i < 30 && n < 8; i++ {
		from, to := Account(i), Account((i+11)%30)
		if from == to || s.ShardOfKey(from) == s.ShardOfKey(to) {
			continue
		}
		n++
		d := s.PaymentDTx("conv"+strconv.Itoa(i), from, to, 3)
		s.Engine.Schedule(time.Duration(n)*time.Second, func() {
			s.Client(0).SubmitDistributed(d, func(txn.Result) { done++ })
		})
	}
	s.Run(90 * time.Second)

	if done == 0 {
		t.Fatal("no payment resolved")
	}
	assertSystemConverged(t, s, nil)

	// The check must not pass vacuously: a caught-up replica that dropped
	// its whole ledger shares no height with the others.
	bc := s.ShardCommittees[0]
	led := bc.Replicas[1].Ledger()
	led.SetFloor(led.Height())
	if err := committeeConverged(bc, nil); err == nil {
		t.Fatal("convergence check passed with a caught-up replica holding no retained block")
	}
}

func TestReplicasConvergeUnderLossAndEquivocation(t *testing.T) {
	behaviors := make(map[simnet.NodeID]pbft.Behavior)
	cfg := Config{
		Seed: 9, Shards: 3, ShardSize: 4, RefSize: 4,
		Variant: pbft.VariantAHLPlus, Clients: 1, SendReplies: true,
		Costs: tee.FreeCosts(), Behaviors: behaviors,
	}
	// One equivocator per shard committee (within f=1).
	byzantine := make(map[simnet.NodeID]bool)
	for sh := 0; sh < 3; sh++ {
		id := simnet.NodeID(sh*4 + 3)
		behaviors[id] = pbft.BehaviorEquivocate
		byzantine[id] = true
	}
	s := NewSystem(cfg)
	s.Seed(30, 1000)

	// ~2% deterministic message loss on top.
	count := 0
	s.Net.SetFilter(func(m simnet.Message) (time.Duration, bool) {
		count++
		return 0, count%47 != 0
	})

	done := 0
	n := 0
	for i := 0; i < 30 && n < 6; i++ {
		from, to := Account(i), Account((i+7)%30)
		if from == to || s.ShardOfKey(from) == s.ShardOfKey(to) {
			continue
		}
		n++
		d := s.PaymentDTx("chaos"+strconv.Itoa(i), from, to, 2)
		s.Engine.Schedule(time.Duration(n)*2*time.Second, func() {
			s.Client(0).SubmitDistributed(d, func(txn.Result) { done++ })
		})
	}
	s.Run(180 * time.Second)

	if done == 0 {
		t.Fatal("no payment resolved under chaos")
	}
	// Equivocating replicas may hold whatever they like; the honest ones
	// must agree.
	assertSystemConverged(t, s, byzantine)

	// Cross-replica state digests: honest replicas that executed the same
	// number of write-sets hold byte-identical state.
	for i, bc := range s.ShardCommittees {
		var prev *pbft.Replica
		for _, r := range bc.Replicas {
			if byzantine[r.Endpoint().ID()] {
				continue
			}
			if prev != nil && prev.Store().Version() == r.Store().Version() {
				if prev.Store().Digest() != r.Store().Digest() {
					t.Fatalf("shard %d: same version, different state digest", i)
				}
			}
			prev = r
		}
	}
}
