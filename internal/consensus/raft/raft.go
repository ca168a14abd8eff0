// Package raft models the Raft-based ordering service of Quorum, the
// crash-fault baseline in Figure 2 (used by the paper as an approximation
// of Coco, whose source is unavailable).
//
// The paper's observation (§C.2) is that Quorum integrates Raft naively:
// a node constructs a block, runs Raft to finalize it, and only then
// constructs the next block — consensus proceeds in lockstep even though
// Raft itself could pipeline. This package reproduces exactly that
// integration: a stable leader, majority acknowledgement, and strictly
// sequential block finalization, with Quorum's EVM-grade execution cost.
package raft

import (
	"time"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/chaincode"
	"repro/internal/consensus"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tee"
)

// Message types.
const (
	msgRequest = "raft/request"
	msgAppend  = "raft/append" // leader -> followers: proposed block
	msgAck     = "raft/ack"    // follower -> leader
	msgCommit  = "raft/commit" // leader -> followers: block is final
)

type appendMsg struct {
	Index uint64
	Block *chain.Block
}

type ackMsg struct {
	Index   uint64
	Replica int
}

type commitMsg struct {
	Index uint64
}

// Options configures a replica.
type Options struct {
	Committee consensus.Committee
	Index     int
	BatchSize int
	// ExecPerTx models Quorum's EVM + Merkle-trie execution cost.
	ExecPerTx time.Duration
	Costs     tee.CostModel
}

// DefaultOptions returns the Quorum-calibrated options.
func DefaultOptions(committee consensus.Committee, index int) Options {
	return Options{
		Committee: committee,
		Index:     index,
		BatchSize: 500,
		ExecPerTx: 500 * time.Microsecond,
		Costs:     tee.DefaultCosts(),
	}
}

// Replica is one Raft-ordered blockchain node. The leader is replica 0
// (leader election is out of scope: Figure 2 measures failure-free runs).
type Replica struct {
	opts   Options
	ep     *simnet.Endpoint
	engine *sim.Engine

	registry *chaincode.Registry
	store    *chain.Store
	ledger   *chain.Ledger

	nextIndex  uint64 // leader: next log index to propose
	inFlight   *chain.Block
	inFlightIx uint64
	acks       map[int]bool

	blocks map[uint64]*chain.Block // follower: received but uncommitted

	pending      map[uint64]chain.Tx
	pendingOrder []uint64
	executedIDs  map[uint64]bool
	committedTo  uint64

	onExec        func(consensus.BlockEvent)
	executedCount int
}

// New wires a replica onto ep.
func New(opts Options, ep *simnet.Endpoint, registry *chaincode.Registry) *Replica {
	r := &Replica{
		opts:        opts,
		ep:          ep,
		registry:    registry,
		store:       chain.NewStore(),
		ledger:      chain.NewLedger(),
		blocks:      make(map[uint64]*chain.Block),
		pending:     make(map[uint64]chain.Tx),
		executedIDs: make(map[uint64]bool),
	}
	ep.SetHandler(r)
	return r
}

// Start supplies the engine; call once.
func (r *Replica) Start(engine *sim.Engine) { r.engine = engine }

// Executed implements consensus.Replica.
func (r *Replica) Executed() int { return r.executedCount }

// ViewChanges implements consensus.Replica; Raft has no view changes in
// failure-free runs.
func (r *Replica) ViewChanges() int { return 0 }

// OnExecute implements consensus.Replica.
func (r *Replica) OnExecute(fn func(consensus.BlockEvent)) { r.onExec = fn }

// Ledger exposes the local chain for tests.
func (r *Replica) Ledger() *chain.Ledger { return r.ledger }

func (r *Replica) isLeader() bool { return r.opts.Index == 0 }

func (r *Replica) leaderID() simnet.NodeID { return r.opts.Committee.Nodes[0] }

func (r *Replica) broadcast(typ string, payload any, size int) {
	for _, id := range r.opts.Committee.Nodes {
		if id != r.ep.ID() {
			r.ep.Send(simnet.Message{To: id, Class: simnet.ClassConsensus, Type: typ, Payload: payload, Size: size})
		}
	}
}

// SubmitLocal implements consensus.Replica: Quorum forwards transactions
// to the (stable) leader.
func (r *Replica) SubmitLocal(tx chain.Tx) {
	if r.isLeader() {
		r.admit(tx)
		return
	}
	r.ep.Send(simnet.Message{To: r.leaderID(), Class: simnet.ClassRequest,
		Type: msgRequest, Payload: tx, Size: tx.SizeBytes()})
}

func (r *Replica) admit(tx chain.Tx) {
	if r.executedIDs[tx.ID] {
		return
	}
	if _, ok := r.pending[tx.ID]; ok {
		return
	}
	r.pending[tx.ID] = tx
	r.pendingOrder = append(r.pendingOrder, tx.ID)
	r.maybePropose()
}

// Cost implements simnet.Handler.
func (r *Replica) Cost(m simnet.Message) time.Duration {
	switch m.Type {
	case msgRequest:
		return 20 * time.Microsecond
	case msgAppend:
		a := m.Payload.(*appendMsg)
		return 50*time.Microsecond + time.Duration(len(a.Block.Txs))*r.opts.Costs.SHA256
	case msgAck, msgCommit:
		return 20 * time.Microsecond
	default:
		return 0
	}
}

// Handle implements simnet.Handler.
func (r *Replica) Handle(m simnet.Message) {
	switch m.Type {
	case msgRequest:
		r.admit(m.Payload.(chain.Tx))
	case msgAppend:
		r.handleAppend(m.Payload.(*appendMsg))
	case msgAck:
		r.handleAck(m.Payload.(*ackMsg))
	case msgCommit:
		r.handleCommit(m.Payload.(*commitMsg))
	}
}

// maybePropose starts the next block — only when no block is in flight:
// the naive lockstep integration.
func (r *Replica) maybePropose() {
	if !r.isLeader() || r.inFlight != nil || len(r.pending) == 0 {
		return
	}
	batch := make([]chain.Tx, 0, r.opts.BatchSize)
	kept := r.pendingOrder[:0]
	for _, id := range r.pendingOrder {
		tx, ok := r.pending[id]
		if !ok {
			continue
		}
		kept = append(kept, id)
		if len(batch) < r.opts.BatchSize {
			batch = append(batch, tx)
		}
	}
	r.pendingOrder = kept
	if len(batch) == 0 {
		return
	}
	block := &chain.Block{Header: chain.Header{
		Height:   r.nextIndex,
		TxRoot:   chain.TxRoot(batch),
		Proposer: blockcrypto.KeyID(r.ep.ID()),
	}, Txs: batch}
	r.inFlight = block
	r.inFlightIx = r.nextIndex
	r.nextIndex++
	r.acks = map[int]bool{0: true}
	r.broadcast(msgAppend, &appendMsg{Index: r.inFlightIx, Block: block}, block.SizeBytes()+64)
	r.maybeCommit()
}

func (r *Replica) handleAppend(m *appendMsg) {
	if _, seen := r.blocks[m.Index]; seen || m.Index < r.committedTo {
		return
	}
	r.blocks[m.Index] = m.Block
	r.ep.Send(simnet.Message{To: r.leaderID(), Class: simnet.ClassConsensus,
		Type: msgAck, Payload: &ackMsg{Index: m.Index, Replica: r.opts.Index}, Size: 64})
}

func (r *Replica) handleAck(m *ackMsg) {
	if r.acks == nil || m.Index != r.inFlightIx {
		return
	}
	r.acks[m.Replica] = true
	r.maybeCommit()
}

// maybeCommit commits the in-flight block once its acks reach the quorum.
// The leader's own ack counts, so a committee of one commits at propose
// time. The block stays in flight until it has executed: its
// transactions leave pending only then, and the next proposal must not
// carry them again.
func (r *Replica) maybeCommit() {
	if len(r.acks) < r.opts.Committee.Quorum {
		return
	}
	r.acks = nil // committed; later acks for it are stale
	r.broadcast(msgCommit, &commitMsg{Index: r.inFlightIx}, 64)
	r.execute(r.inFlight, func() {
		r.inFlight = nil
		r.maybePropose()
	})
}

func (r *Replica) handleCommit(m *commitMsg) {
	block := r.blocks[m.Index]
	if block == nil || m.Index != r.committedTo {
		return
	}
	delete(r.blocks, m.Index)
	r.execute(block, func() {})
}

func (r *Replica) execute(block *chain.Block, done func()) {
	r.committedTo++
	cost := time.Duration(len(block.Txs)) * r.opts.ExecPerTx
	r.ep.CPU().Exec(cost, func() {
		linked := &chain.Block{Header: block.Header, Txs: block.Txs}
		linked.Header.Height = r.ledger.Height()
		linked.Header.PrevHash = r.ledger.TipHash()
		if err := r.ledger.Append(linked); err != nil {
			panic("raft: " + err.Error())
		}
		results := make([]chaincode.Result, 0, len(block.Txs))
		for _, tx := range block.Txs {
			if r.executedIDs[tx.ID] {
				continue
			}
			r.executedIDs[tx.ID] = true
			results = append(results, r.registry.Execute(r.store, tx))
			delete(r.pending, tx.ID)
			r.executedCount++
		}
		if r.onExec != nil && r.engine != nil {
			r.onExec(consensus.BlockEvent{Block: linked, Results: results, Time: r.engine.Now()})
		}
		done()
	})
}
