// Package consensus holds the types shared by all consensus protocol
// implementations in this repository: committee descriptions, execution
// events, and the replica interface the sharding layer drives.
//
// Protocol implementations live in subpackages: pbft (HL and the AHL
// family), tendermint, ibft and raft (the Figure 2 baselines), and poet
// (the Nakamoto-style protocols of §4.2).
package consensus

import (
	"time"

	"repro/internal/chain"
	"repro/internal/chaincode"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Committee describes one consensus group: an ordered list of members
// (the index in Nodes is the replica index) with its fault tolerance and
// quorum size.
type Committee struct {
	Nodes  []simnet.NodeID
	F      int // maximum tolerated faulty replicas
	Quorum int // matching votes required for agreement
}

// BFTCommittee returns the classic PBFT committee over nodes:
// f = floor((N-1)/3) and quorum ceil((N+f+1)/2) — which is 2f+1 when
// N = 3f+1 exactly, and guarantees any two quorums intersect in at least
// f+1 replicas for every N.
func BFTCommittee(nodes []simnet.NodeID) Committee {
	n := len(nodes)
	f := (n - 1) / 3
	return Committee{Nodes: nodes, F: f, Quorum: (n+f)/2 + 1}
}

// AttestedCommittee returns the AHL committee over nodes: with
// equivocation removed by the trusted log, f = floor((N-1)/2) and quorum
// N-f (§4.1) — which is f+1 when N = 2f+1 exactly, and for every N keeps
// two quorums overlapping in at least one replica while leaving a quorum
// available with f replicas down.
func AttestedCommittee(nodes []simnet.NodeID) Committee {
	n := len(nodes)
	f := (n - 1) / 2
	return Committee{Nodes: nodes, F: f, Quorum: n - f}
}

// CrashCommittee returns a crash-fault (Raft-style) committee:
// f = floor((N-1)/2), quorum is a majority.
func CrashCommittee(nodes []simnet.NodeID) Committee {
	f := (len(nodes) - 1) / 2
	return Committee{Nodes: nodes, F: f, Quorum: len(nodes)/2 + 1}
}

// N returns the committee size.
func (c Committee) N() int { return len(c.Nodes) }

// Index returns the replica index of node id, or -1.
func (c Committee) Index(id simnet.NodeID) int {
	for i, n := range c.Nodes {
		if n == id {
			return i
		}
	}
	return -1
}

// Leader returns the node that leads the given view under round-robin
// rotation.
func (c Committee) Leader(view uint64) simnet.NodeID {
	return c.Nodes[int(view)%len(c.Nodes)]
}

// BlockEvent reports one executed block on one replica.
type BlockEvent struct {
	Block   *chain.Block
	Results []chaincode.Result
	Time    sim.Time
}

// Replica is the interface the sharding layer and benchmark drivers use to
// drive a consensus protocol instance. Concrete replicas also register
// themselves as the simnet handler for their endpoint.
type Replica interface {
	// SubmitLocal injects a client request as if received by this replica.
	SubmitLocal(tx chain.Tx)
	// OnExecute registers the executed-block callback (one registration;
	// later calls replace it).
	OnExecute(fn func(BlockEvent))
	// Executed returns the number of transactions executed so far.
	Executed() int
	// ViewChanges returns how many view changes this replica has voted
	// for (Figure 16's metric).
	ViewChanges() int
}

// Timing bundles the protocol timeouts shared across implementations.
type Timing struct {
	BatchTimeout      time.Duration // max wait to fill a batch
	ViewChangeTimeout time.Duration // progress timeout before a view change
	// BatchEarlyCut, when non-zero, is how long a PBFT leader whose
	// pipeline is idle (every assigned sequence executed) lets arrivals
	// coalesce before cutting a partial batch, instead of waiting out
	// BatchTimeout. The choice is idle/busy, not graded: with proposals in
	// flight the BatchTimeout wait applies regardless. Zero disables it —
	// the paper's Fabric v0.6 cadence, and what the modelled environments
	// use, where Table 2 verification makes every extra batch cost
	// milliseconds of CPU. The live runtime, whose batches are cheap and
	// whose clients wait on the timer, sets 500µs (both sides measured in
	// PERFORMANCE.md, PR 12).
	BatchEarlyCut time.Duration
}

// DefaultTiming returns timeouts suitable for the LAN cluster environment.
// The view-change timeout is reset on every executed block, so a healthy
// saturated committee never false-triggers it; 1s bounds how long a faulty
// leader can stall the committee.
func DefaultTiming() Timing {
	return Timing{BatchTimeout: 50 * time.Millisecond, ViewChangeTimeout: time.Second}
}

// WANTiming returns timeouts suitable for the multi-region GCP environment.
func WANTiming() Timing {
	return Timing{BatchTimeout: 100 * time.Millisecond, ViewChangeTimeout: 10 * time.Second}
}
