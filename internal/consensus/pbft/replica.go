package pbft

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/chaincode"
	"repro/internal/consensus"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tee/aggregator"
	"repro/internal/wire"
)

// maxCommittee bounds committee size; quorum tracking uses fixed-width
// bitsets sized for it (paper committees top out at 79 replicas).
const maxCommittee = 256

// voteSet tracks which replica indices have voted for one (entry, phase).
// A fixed-width bitset replaces the two map allocations per entry that the
// quorum-tracking hot path used to pay, and membership/count checks become
// branch-free word operations.
type voteSet struct {
	words [maxCommittee / 64]uint64
	n     int
}

// add records a vote from replica i, reporting whether it was new.
func (v *voteSet) add(i int) bool {
	w, b := uint(i)>>6, uint64(1)<<(uint(i)&63)
	if v.words[w]&b != 0 {
		return false
	}
	v.words[w] |= b
	v.n++
	return true
}

func (v *voteSet) has(i int) bool { return v.words[uint(i)>>6]&(1<<(uint(i)&63)) != 0 }
func (v *voteSet) count() int     { return v.n }
func (v *voteSet) reset()         { *v = voteSet{} }

// entry tracks one in-flight sequence number.
type entry struct {
	view           uint64
	seq            uint64
	digest         blockcrypto.Digest
	block          *chain.Block
	prePrepared    bool
	prepares       voteSet
	commits        voteSet
	prepared       bool
	committed      bool
	executed       bool
	sentCommitVote bool

	// AHLR leader-side vote accumulation.
	prepVotes    []aggregator.Vote
	prepVoters   voteSet
	commitVotes  []aggregator.Vote
	commitVoters voteSet
	prepQCSent   bool
	commitQCSent bool

	// obsTS is the obs-clock reading at pre-prepare accept, the start of
	// the commit-latency measurement. 0 when uninstrumented (and zeroed
	// by reset's *e = entry{...} on pool reuse).
	obsTS int64
}

// reset clears e for reuse from the entry pool, keeping the vote slices'
// backing arrays (their elements are zeroed to release signature bytes).
func (e *entry) reset() {
	for i := range e.prepVotes {
		e.prepVotes[i] = aggregator.Vote{}
	}
	for i := range e.commitVotes {
		e.commitVotes[i] = aggregator.Vote{}
	}
	pv, cv := e.prepVotes[:0], e.commitVotes[:0]
	*e = entry{prepVotes: pv, commitVotes: cv}
}

// Replica is one PBFT/AHL-family replica.
type Replica struct {
	opts Options
	deps Deps

	engine *sim.Engine
	ep     *simnet.Endpoint
	att    attestor
	agg    *aggregator.Aggregator

	view         uint64
	inViewChange bool
	suspected    bool   // progress timeout seen once (see onProgressTimeout)
	vcView       uint64 // highest view we voted to change to
	seqAssign    uint64 // leader: last assigned sequence
	h            uint64 // low watermark (last stable checkpoint)
	entries      map[uint64]*entry
	entryPool    []*entry // recycled entries (see getEntry/recycleEntry)

	executedThrough uint64
	executing       bool
	execEntry       *entry // entry occupying the CPU while executing
	// executed is the dedup set with each locally executed transaction's
	// result (unknown for ids learned via snapshot install, whose results
	// this replica never saw), so a duplicate request for an executed
	// transaction can be answered with a fresh Reply instead of silence —
	// the re-reply path client retransmission relies on.
	executed     execSet
	pending      map[uint64]chain.Tx
	pendingOrder []uint64
	batchedIn    map[uint64]uint64 // txID -> seq
	// unbatched counts pending txs with no batchedIn assignment. It is
	// maintained incrementally (see markBatched/unmarkBatched): the naive
	// O(len(pending)) scan was ~90% of benchmark CPU time at high request
	// rates, because batching is re-evaluated on every request arrival.
	unbatched int

	ledger *chain.Ledger
	store  *chain.Store

	vcVotes     map[uint64]map[int]*viewChangeMsg
	checkpoints map[uint64]map[int]*checkpointMsg

	// State-sync bookkeeping (see statesync.go). stableView is the
	// immutable height-pinned view of the last stable checkpoint's state:
	// state-transfer snapshots materialize from it on demand and durable
	// snapshots stream from it, instead of deep-copying under the store's
	// write lock.
	stableView    *chain.Reader
	stableSnapSeq uint64
	stableCert    []*checkpointMsg
	stableExec    execLogs // executed's capture at the stable checkpoint
	lastSyncReq   int64
	lastNewView   *newViewMsg

	// Replay catch-up state (see replay.go).
	replayVotes  map[uint64]map[blockcrypto.Digest]map[int]bool
	replayBlocks map[blockcrypto.Digest]*chain.Block

	// Enclave recovery state (see recovery.go).
	ckpReplies map[int]uint64
	recoveryHM uint64

	batchTimer *sim.Timer
	vcTimer    *sim.Timer

	onExec        func(consensus.BlockEvent)
	executedCount int
	vcCount       int

	// Durability hooks (see durable.go); all nil/no-op in the simulator.
	durable        storage.Backend
	durableExtra   func() []byte
	onStorageFatal func(error)

	// intake throttling (token bucket), see Options.IntakeCap.
	intakeTokens float64
	intakeLast   sim.Time

	// verifiedMsg is set by Handle from Message.Verified for the duration
	// of one dispatch: the live runtime's transport goroutines pre-verify
	// attestations before the message reaches the engine (see Preverifier)
	// and the flag lets the handler skip the redundant check. Consume-once
	// via takeVerified so an early return cannot leak it to a later check.
	verifiedMsg bool
	// execWorkers caps goroutines for conflict-aware parallel execution:
	// the processors available at construction, at most maxExecWorkers
	// (1 = serial; see planParallel).
	execWorkers int
	// batchDue is when the armed batchTimer fires, and batchTimerFast that
	// it was armed with Timing.BatchEarlyCut rather than BatchTimeout (see
	// armBatchCut, resetBatchTimer).
	batchDue       sim.Time
	batchTimerFast bool

	// ExecBusy accumulates virtual CPU time spent executing transactions,
	// as opposed to running consensus (Figure 17).
	ExecBusy time.Duration

	// Observability (see obs.go). met is nil when no hub was injected;
	// cutReason attributes the in-progress batch cut; execStartNS is the
	// obs-clock reading when the current block started executing.
	met         *pbftMetrics
	cutReason   uint8
	execStartNS int64
}

// New constructs a replica and installs it as its endpoint's handler.
func New(opts Options, deps Deps) *Replica {
	if opts.CheckpointEvery > opts.Window {
		// The leader can only assign sequences within (h, h+Window], so a
		// checkpoint must occur within every window or h never advances.
		panic("pbft: CheckpointEvery must be <= Window")
	}
	if opts.Committee.N() > maxCommittee {
		panic("pbft: committee larger than maxCommittee; widen voteSet")
	}
	r := &Replica{
		opts:         opts,
		deps:         deps,
		ep:           deps.Endpoint,
		entries:      make(map[uint64]*entry),
		executed:     newExecSet(),
		pending:      make(map[uint64]chain.Tx),
		batchedIn:    make(map[uint64]uint64),
		ledger:       chain.NewLedger(),
		store:        deps.Store,
		vcVotes:      make(map[uint64]map[int]*viewChangeMsg),
		checkpoints:  make(map[uint64]map[int]*checkpointMsg),
		replayVotes:  make(map[uint64]map[blockcrypto.Digest]map[int]bool),
		replayBlocks: make(map[blockcrypto.Digest]*chain.Block),
		intakeTokens: opts.IntakeCap, // start with a full bucket
		durable:      deps.Durable,
	}
	r.engine = deps.Platform.Engine()
	if r.store == nil {
		r.store = chain.NewStore()
	}
	r.execWorkers = min(runtime.GOMAXPROCS(0), maxExecWorkers)
	charge := func(d time.Duration) { deps.Endpoint.CPU().Charge(d) }
	costs := deps.Platform.Costs()
	if opts.Variant.Attested() {
		r.att = &logAttestor{mem: deps.AAOM, scheme: deps.Scheme, peers: deps.PeerKeys, costs: costs, charge: charge}
	} else {
		r.att = &sigAttestor{signer: deps.Signer, scheme: deps.Scheme, peers: deps.PeerKeys, costs: costs, charge: charge}
	}
	if opts.Variant.Aggregated() {
		r.agg = aggregator.New(deps.Platform, deps.Scheme)
	}
	if deps.Obs != nil {
		r.met = newPBFTMetrics(deps.Obs, uint32(deps.Endpoint.ID()))
	}
	r.batchTimer = r.engine.NewTimer()
	r.vcTimer = r.engine.NewTimer()
	deps.Endpoint.SetHandler(r)
	deps.Endpoint.OnDownChange(r.onDownChange)
	return r
}

// onDownChange quiesces the replica while its node is crashed and resumes
// protocol activity on recovery. Without the quiesce, a crashed node's
// timers keep cycling forever — the progress timer escalates it through
// view after view, broadcasting into the void — and on recovery it
// rejoins in a nonsense view.
func (r *Replica) onDownChange(down bool) {
	if down {
		r.batchTimer.Stop()
		r.vcTimer.Stop()
		r.suspected = false
		return
	}
	// Recovery: probe peers for anything missed during the outage (state
	// snapshots, replay of decided blocks, a newer view) and pick the
	// replica's duties back up.
	r.lastSyncReq = 0
	r.noteAhead()
	if len(r.pending) > 0 {
		if r.inViewChange {
			// Crashed mid-view-change: resume the escalation loop, not the
			// progress timer — onProgressTimeout cannot escalate past a
			// view this replica already voted for, so arming it here would
			// dead-end after one firing with the vote possibly lost.
			r.vcTimer.Reset(2*r.opts.Timing.ViewChangeTimeout, r.onViewChangeTimeout)
		} else {
			r.armProgressTimer()
		}
	}
	if r.isLeader() && !r.inViewChange {
		r.scheduleBatch()
	}
}

// --- accessors ---

// View returns the current view number.
func (r *Replica) View() uint64 { return r.view }

// Executed implements consensus.Replica.
func (r *Replica) Executed() int { return r.executedCount }

// ViewChanges implements consensus.Replica.
func (r *Replica) ViewChanges() int { return r.vcCount }

// OnExecute implements consensus.Replica.
func (r *Replica) OnExecute(fn func(consensus.BlockEvent)) { r.onExec = fn }

// Ledger exposes the replica's chain for verification in tests.
func (r *Replica) Ledger() *chain.Ledger { return r.ledger }

// Store exposes the replica's state for verification in tests.
func (r *Replica) Store() *chain.Store { return r.store }

// StableCheckpoint returns the low watermark.
func (r *Replica) StableCheckpoint() uint64 { return r.h }

// ExecutedThrough returns the highest sequence number executed so far.
func (r *Replica) ExecutedThrough() uint64 { return r.executedThrough }

// ExecutedOK reports whether transaction id has already been executed on
// this replica and, if so, whether it succeeded. ok is false for ids
// learned only through a snapshot install (the result was never observed
// locally) — callers treating unknown as failure stay safe. Layered
// protocols use this to close the execution-before-registration race: a
// transaction injected by a faster peer can execute through consensus
// before this node's manager registers its own interest in it.
func (r *Replica) ExecutedOK(id uint64) (ok, executed bool) {
	if !r.executed.has(id) {
		return false, false
	}
	ok, _ = r.executed.result(id)
	return ok, true
}

// Endpoint returns the replica's network attachment, letting composing
// layers (the transaction manager) wrap its handler.
func (r *Replica) Endpoint() *simnet.Endpoint { return r.ep }

// Committee returns the replica's committee description.
func (r *Replica) Committee() consensus.Committee { return r.opts.Committee }

// Engine returns the simulation engine the replica runs on; layered
// protocols (e.g. the transaction managers) use it for their own timers.
func (r *Replica) Engine() *sim.Engine { return r.engine }

func (r *Replica) self() int               { return r.opts.Index }
func (r *Replica) n() int                  { return r.opts.Committee.N() }
func (r *Replica) quorum() int             { return r.opts.Committee.Quorum }
func (r *Replica) isLeader() bool          { return r.opts.Committee.Leader(r.view) == r.ep.ID() }
func (r *Replica) leaderID() simnet.NodeID { return r.opts.Committee.Leader(r.view) }
func (r *Replica) byz(b Behavior) bool     { return r.opts.Behavior == b }

// sendTo transmits one protocol message; its simulated transmission size
// is the actual wire encoding (what the TCP transport would send).
func (r *Replica) sendTo(id simnet.NodeID, typ string, payload any) {
	r.ep.Send(simnet.Message{To: id, Class: simnet.ClassConsensus, Type: typ,
		Payload: payload, Size: wire.PayloadSize(typ, payload)})
}

// broadcast fans one message out to every peer, encoding its size once.
func (r *Replica) broadcast(typ string, payload any) {
	size := wire.PayloadSize(typ, payload)
	for _, id := range r.opts.Committee.Nodes {
		if id != r.ep.ID() {
			r.ep.Send(simnet.Message{To: id, Class: simnet.ClassConsensus, Type: typ,
				Payload: payload, Size: size})
		}
	}
}

// --- simnet.Handler ---

// Cost implements simnet.Handler: the CPU service time for processing m,
// dominated by signature/attestation verification (Table 2 costs).
func (r *Replica) Cost(m simnet.Message) time.Duration {
	c := r.deps.Platform.Costs()
	switch m.Type {
	case msgRequest, msgRequestFwd:
		return r.opts.RequestVerify
	case msgPrePrepare:
		pp := m.Payload.(*prePrepareMsg)
		nt := 0
		if pp.Block != nil {
			nt = len(pp.Block.Txs)
		}
		return c.Verify + time.Duration(nt)*c.SHA256
	case msgPrepare, msgCommit, msgCheckpoint:
		return c.Verify
	case msgVote:
		// Verified inside the aggregation enclave when the quorum is
		// assembled; receipt itself is cheap.
		return c.EnclaveSwitch
	case msgQC:
		return c.Verify
	case msgViewChange:
		return c.Verify
	case msgNewView:
		nv := m.Payload.(*newViewMsg)
		return c.Verify * time.Duration(1+len(nv.Reissue))
	case msgStateReq, msgNVReq, msgReplayReq:
		return 10 * time.Microsecond
	case msgCkpQuery, msgCkpReply:
		return recoveryMsgCost
	case msgStateResp:
		return stateSyncCost
	case msgReplayResp:
		rr := m.Payload.(*replayRespMsg)
		return time.Duration(len(rr.Items)) * c.Verify
	default:
		return 0
	}
}

// Handle implements simnet.Handler.
func (r *Replica) Handle(m simnet.Message) {
	if r.byz(BehaviorSilent) {
		return
	}
	r.verifiedMsg = m.Verified
	switch m.Type {
	case msgRequest:
		r.handleRequest(m.Payload.(chain.Tx), true)
	case msgRequestFwd:
		r.handleRequest(m.Payload.(chain.Tx), false)
	case msgPrePrepare:
		r.handlePrePrepare(m.Payload.(*prePrepareMsg))
	case msgPrepare, msgCommit:
		r.handleVote(m.Payload.(*voteMsg))
	case msgVote:
		r.handleAggVote(m.Payload.(*voteMsg))
	case msgQC:
		r.handleQC(m.Payload.(*qcMsg))
	case msgCheckpoint:
		r.handleCheckpoint(m.Payload.(*checkpointMsg))
	case msgViewChange:
		r.handleViewChange(m.Payload.(*viewChangeMsg))
	case msgNewView:
		r.handleNewView(m.Payload.(*newViewMsg))
	case msgNVReq:
		r.handleNVReq(m.Payload.(*nvReqMsg))
	case msgStateReq:
		r.handleStateReq(m.Payload.(*stateReqMsg))
	case msgStateResp:
		r.handleStateResp(m.Payload.(*stateRespMsg))
	case msgReplayReq:
		r.handleReplayReq(m.Payload.(*replayReqMsg))
	case msgReplayResp:
		r.handleReplayResp(m.Payload.(*replayRespMsg))
	case msgCkpQuery:
		r.handleCkpQuery(m.Payload.(*ckpQueryMsg))
	case msgCkpReply:
		r.handleCkpReply(m.Payload.(*ckpReplyMsg))
	}
}

// --- client requests ---

// SubmitLocal implements consensus.Replica: a client request arriving at
// this replica.
func (r *Replica) SubmitLocal(tx chain.Tx) { r.handleRequest(tx, true) }

// admitRequest applies the REST intake cap.
func (r *Replica) admitRequest() bool {
	if r.opts.IntakeCap <= 0 {
		return true
	}
	now := r.engine.Now()
	elapsed := now.Sub(r.intakeLast).Seconds()
	r.intakeLast = now
	r.intakeTokens += elapsed * r.opts.IntakeCap
	if r.intakeTokens > r.opts.IntakeCap {
		r.intakeTokens = r.opts.IntakeCap
	}
	if r.intakeTokens < 1 {
		return false
	}
	r.intakeTokens--
	return true
}

// handleRequest admits a client request. external marks requests arriving
// from outside the committee (client or SubmitLocal) as opposed to
// replica-to-replica dissemination.
// maxPending bounds the request pool: a replica sheds load it cannot
// possibly order in time instead of queueing unboundedly (Fabric's gRPC
// buffers behave the same way; clients retry).
const maxPending = 20000

func (r *Replica) handleRequest(tx chain.Tx, external bool) {
	if r.executed.has(tx.ID) {
		// A retransmitted request for an executed transaction means the
		// client may have missed our reply: answer it again (only when we
		// executed it ourselves and therefore know the result).
		if external && r.opts.SendReplies && tx.Client != 0 {
			if ok, known := r.executed.result(tx.ID); known {
				rep := Reply{TxID: tx.ID, OK: ok, Replica: r.self()}
				r.ep.Send(simnet.Message{To: simnet.NodeID(tx.Client), Class: simnet.ClassConsensus,
					Type: MsgReply, Payload: rep, Size: wire.PayloadSize(MsgReply, rep)})
			}
		}
		return
	}
	if _, known := r.pending[tx.ID]; known {
		return
	}
	if external && (len(r.pending) >= maxPending || !r.admitRequest()) {
		return
	}
	r.pending[tx.ID] = tx
	r.pendingOrder = append(r.pendingOrder, tx.ID)
	if _, in := r.batchedIn[tx.ID]; !in {
		r.unbatched++
	}
	if m := r.met; m != nil && external {
		m.hub.RecordTx(m.node, obs.StageSubmit, 0, tx.ID)
	}
	if external {
		// Dissemination policy: stock PBFT/Hyperledger broadcasts the
		// request to every replica; optimization 2 forwards it to the
		// leader only (§4.1).
		// Encode lazily: on the leader under forward-to-leader variants no
		// forward goes out, and this is the request-admission hot path.
		if r.opts.Variant.ForwardToLeader() {
			if !r.isLeader() {
				r.ep.Send(simnet.Message{To: r.leaderID(), Class: simnet.ClassRequest,
					Type: msgRequestFwd, Payload: tx, Size: wire.PayloadSize(msgRequestFwd, tx)})
			}
		} else {
			fwdSize := wire.PayloadSize(msgRequestFwd, tx)
			for _, id := range r.opts.Committee.Nodes {
				if id != r.ep.ID() {
					r.ep.Send(simnet.Message{To: id, Class: simnet.ClassRequest,
						Type: msgRequestFwd, Payload: tx, Size: fwdSize})
				}
			}
		}
	}
	if !r.vcTimer.Active() {
		if r.inViewChange {
			// Parked view change (see onViewChangeTimeout): new work means
			// the stall matters again — resume the escalation loop so this
			// replica votes for the next view instead of sitting mute.
			r.vcTimer.Reset(2*r.opts.Timing.ViewChangeTimeout, r.onViewChangeTimeout)
		} else {
			r.armProgressTimer()
		}
	}
	if r.isLeader() && !r.inViewChange {
		r.scheduleBatch()
	}
}

func (r *Replica) armProgressTimer() {
	r.vcTimer.Reset(r.opts.Timing.ViewChangeTimeout, r.onProgressTimeout)
}

// --- leader batching ---

// scheduleBatch arms the leader's next batch cut. A full batch is cut at
// once; a partial one waits out BatchTimeout so it can fill — under
// sustained load big batches amortize the per-sequence protocol cost.
//
// Timing.BatchEarlyCut, when set, makes the pending requests arm their own
// cut: with none there is nothing to arm, and when the pipeline is idle
// (every assigned sequence executed) waiting helps nobody, so the cut
// comes after just that short coalescing window, which lets a burst of
// near-simultaneous arrivals share a block. When it is zero the
// BatchTimeout cadence free-runs instead — re-armed from every scheduling
// event (execution, checkpoint, view install) whether or not a request is
// pending, so a request reaching an idle leader waits out only the
// remainder; the simulator's published figures embed that phase.
func (r *Replica) scheduleBatch() {
	n := r.unbatchedCount()
	if n >= r.opts.BatchSize {
		r.tryBatch()
		return
	}
	if early := r.opts.Timing.BatchEarlyCut; early > 0 {
		if n == 0 {
			return
		}
		if r.seqAssign <= r.executedThrough {
			r.armBatchCut(early, true)
			return
		}
	}
	r.armBatchCut(r.opts.Timing.BatchTimeout, false)
}

// armBatchCut arms a batch cut d from now, unless one is already due no
// later than that: later arrivals never push a pending cut forward, so a
// steady trickle cannot postpone it, and a request never waits past
// BatchTimeout for an early cut.
func (r *Replica) armBatchCut(d time.Duration, early bool) {
	if r.batchTimer.Active() && r.batchDue <= r.engine.Now().Add(d) {
		return
	}
	r.resetBatchTimer(d, early, r.tryBatchTimer)
}

// resetBatchTimer (re)arms the batch timer to run fire d from now.
func (r *Replica) resetBatchTimer(d time.Duration, early bool, fire func()) {
	r.batchTimer.Reset(d, fire)
	r.batchDue, r.batchTimerFast = r.engine.Now().Add(d), early
}

// maxAssign returns the highest sequence the leader may assign: ordering
// runs ahead of execution by at most PipelineDepth sequences, and never
// past the checkpoint window.
func (r *Replica) maxAssign() uint64 {
	return min(r.h+r.opts.Window, r.executedThrough+PipelineDepth)
}

func (r *Replica) unbatchedCount() int { return r.unbatched }

// markBatched assigns pending tx id to a sequence, maintaining unbatched.
func (r *Replica) markBatched(id uint64, seq uint64) {
	if _, in := r.batchedIn[id]; !in {
		if _, p := r.pending[id]; p {
			r.unbatched--
		}
	}
	r.batchedIn[id] = seq
}

// unmarkBatched removes tx id's batch assignment, maintaining unbatched.
func (r *Replica) unmarkBatched(id uint64) {
	if _, in := r.batchedIn[id]; in {
		delete(r.batchedIn, id)
		if _, p := r.pending[id]; p {
			r.unbatched++
		}
	}
}

// dropRequest removes tx id from the request pool entirely (executed or
// superseded), maintaining unbatched.
func (r *Replica) dropRequest(id uint64) {
	if _, p := r.pending[id]; p {
		if _, in := r.batchedIn[id]; !in {
			r.unbatched--
		}
		delete(r.pending, id)
	}
	delete(r.batchedIn, id)
}

func (r *Replica) tryBatch() {
	if !r.isLeader() || r.inViewChange {
		return
	}
	for r.unbatchedCount() > 0 && r.seqAssign < r.maxAssign() {
		batch := r.takeBatch()
		if len(batch) == 0 {
			return
		}
		r.seqAssign++
		r.propose(r.seqAssign, batch)
	}
	if r.unbatchedCount() == 0 || r.batchTimer.Active() {
		return
	}
	// Out of room with requests left over: retry after the batch timeout.
	// Depth-capped, local execution is the bottleneck and finishExecute
	// re-triggers batching the moment it advances, so the retry is only a
	// safety net (the committee is keeping up; only we are not).
	retry := r.tryBatchTimer
	if r.seqAssign >= r.h+r.opts.Window {
		// Window full: checkpoint progress will also retrigger batching.
		// Retransmit the oldest in-flight proposal so replicas that fell
		// behind (and replicas that missed it) can react — the
		// partially-synchronous model assumes exactly this kind of
		// repeated send.
		retry = func() {
			r.retransmitOldest()
			r.tryBatchTimer()
		}
	}
	r.resetBatchTimer(r.opts.Timing.BatchTimeout, false, retry)
}

// retransmitVotes re-broadcasts this replica's pre-prepares and votes for
// every entry above the stable checkpoint — including entries this replica
// already executed, because until a checkpoint is *stable* some peers may
// still need them (PBFT garbage-collects protocol messages only at stable
// checkpoints for exactly this reason). A leader additionally re-proposes
// entries decided in earlier views under the current view, so replicas
// that joined after a view change can vote for them.
func (r *Replica) retransmitVotes() {
	if r.inViewChange || r.byz(BehaviorSilent) {
		return
	}
	// Re-broadcast our own checkpoint attestations that have not become
	// stable: checkpoints are emitted exactly once at execution, so under
	// message loss the quorum may never form — h stops advancing, the
	// leader's window fills, and the committee wedges with no view change
	// able to rescue it (new-view messages carry h but cannot mint the
	// missing checkpoint attestations).
	self := r.self()
	ckSeqs := make([]uint64, 0, len(r.checkpoints))
	for seq := range r.checkpoints {
		if seq > r.h && r.checkpoints[seq][self] != nil {
			ckSeqs = append(ckSeqs, seq)
		}
	}
	sort.Slice(ckSeqs, func(i, j int) bool { return ckSeqs[i] < ckSeqs[j] })
	for _, seq := range ckSeqs {
		r.broadcast(msgCheckpoint, r.checkpoints[seq][self])
	}
	for seq := r.h + 1; seq <= r.h+r.opts.Window; seq++ {
		e := r.entries[seq]
		if e == nil || !e.prePrepared || e.block == nil && r.isLeader() {
			continue
		}
		if r.isLeader() && e.block != nil {
			if e.view != r.view {
				// Re-propose under the current view. The digest is
				// unchanged, so replicas that executed this sequence
				// accept it (and conflicting digests are refused).
				if att, err := r.att.attest(logName(phasePrePrepare, r.view), e.seq, e.digest); err == nil {
					e.view = r.view
					e.prepares.reset()
					e.prepares.add(r.self())
					e.commits.reset()
					e.sentCommitVote = false
					r.broadcast(msgPrePrepare, &prePrepareMsg{View: r.view, Seq: e.seq, Block: e.block, Att: att})
				}
			} else if att, err := r.att.attest(logName(phasePrePrepare, e.view), e.seq, e.digest); err == nil {
				r.broadcast(msgPrePrepare, &prePrepareMsg{View: e.view, Seq: e.seq, Block: e.block, Att: att})
			}
		}
		if e.view != r.view {
			continue // followers only retransmit current-view votes
		}
		if r.opts.Variant.Aggregated() {
			// Under AHLR the leader's certificates are the carriers;
			// followers re-vote to the leader.
			if !r.isLeader() {
				r.sendAggVote(e, phasePrepare)
				if e.prepared {
					r.sendAggVote(e, phaseCommit)
				}
			}
			continue
		}
		if e.prepares.has(r.self()) {
			r.castVote(e, phasePrepare)
		}
		if e.sentCommitVote || e.executed || e.committed {
			e.sentCommitVote = true
			r.castVote(e, phaseCommit)
		}
	}
}

// retransmitOldest re-broadcasts the pre-prepare for the oldest
// non-executed sequence; duplicates are ignored by up-to-date replicas and
// serve as a state-sync trigger for lagging ones.
func (r *Replica) retransmitOldest() {
	if !r.isLeader() || r.inViewChange {
		return
	}
	e := r.entries[r.h+1]
	if e == nil || !e.prePrepared || e.block == nil || e.view != r.view {
		return
	}
	att, err := r.att.attest(logName(phasePrePrepare, e.view), e.seq, e.digest)
	if err != nil {
		return
	}
	msg := &prePrepareMsg{View: e.view, Seq: e.seq, Block: e.block, Att: att}
	r.broadcast(msgPrePrepare, msg)
}

// takeBatch cuts the next batch from the request pool in arrival order.
// The batch is sized exactly: it becomes the proposed block's Txs, which
// the ledger keeps until a later stable checkpoint prunes it, so a
// BatchSize-capacity array behind a short batch would be retained unused.
func (r *Replica) takeBatch() []chain.Tx {
	batch := make([]chain.Tx, 0, min(r.unbatchedCount(), r.opts.BatchSize))
	kept := r.pendingOrder[:0]
	for _, id := range r.pendingOrder {
		tx, ok := r.pending[id]
		if !ok {
			continue // executed and pruned
		}
		kept = append(kept, id)
		if _, in := r.batchedIn[id]; in {
			continue
		}
		if len(batch) < r.opts.BatchSize {
			batch = append(batch, tx)
			r.markBatched(id, r.seqAssign+1)
			if m := r.met; m != nil {
				m.hub.RecordTx(m.node, obs.StageBatch, r.seqAssign+1, id)
			}
		}
	}
	r.pendingOrder = kept
	return batch
}

func (r *Replica) buildBlock(seq uint64, txs []chain.Tx) *chain.Block {
	return &chain.Block{
		Header: chain.Header{
			Height:   seq - 1,
			PrevHash: blockcrypto.Digest{}, // linked at execution time
			TxRoot:   chain.TxRoot(txs),
			Proposer: r.deps.Signer.ID(),
			View:     r.view,
		},
		Txs: txs,
	}
}

func (r *Replica) propose(seq uint64, txs []chain.Tx) {
	block := r.buildBlock(seq, txs)
	digest := block.Digest()

	if r.byz(BehaviorEquivocate) {
		r.proposeEquivocating(seq, block)
		return
	}

	att, err := r.att.attest(logName(phasePrePrepare, r.view), seq, digest)
	if err != nil {
		return // trusted log refused (e.g. recovering)
	}
	e := r.getEntry(seq)
	e.view, e.digest, e.block, e.prePrepared = r.view, digest, block, true
	e.prepares.add(r.self())
	if m := r.met; m != nil {
		e.obsTS = m.hub.Now()
		m.hub.RecordSeq(m.node, obs.StagePrePrepare, seq, int64(len(txs)))
		r.obsCut(len(txs))
		r.obsOccupancy()
	}
	msg := &prePrepareMsg{View: r.view, Seq: seq, Block: block, Att: att}
	r.broadcast(msgPrePrepare, msg)
	r.maybePrepared(e)
}

// proposeEquivocating implements the Figure 8 attack: the Byzantine leader
// sends conflicting proposals for the same sequence number to different
// halves of the committee. Under AHL the trusted log refuses the second
// binding, so the attack degrades to withholding the proposal from half
// the replicas.
func (r *Replica) proposeEquivocating(seq uint64, block *chain.Block) {
	alt := r.buildBlock(seq, nil) // conflicting (empty) proposal
	attA, errA := r.att.attest(logName(phasePrePrepare, r.view), seq, block.Digest())
	attB, errB := r.att.attest(logName(phasePrePrepare, r.view), seq, alt.Digest())
	half := r.n() / 2
	for i, id := range r.opts.Committee.Nodes {
		if id == r.ep.ID() {
			continue
		}
		if i < half && errA == nil {
			r.sendTo(id, msgPrePrepare, &prePrepareMsg{View: r.view, Seq: seq, Block: block, Att: attA})
		} else if i >= half && errB == nil {
			r.sendTo(id, msgPrePrepare, &prePrepareMsg{View: r.view, Seq: seq, Block: alt, Att: attB})
		}
	}
}

// --- normal-case message handling ---

func logName(phase string, view uint64) string {
	// One trusted log per (phase, view): a slot then encodes the sequence
	// number, so one replica can never attest two different digests for
	// the same protocol position.
	return phase + "/" + uitoa(view)
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func (r *Replica) getEntry(seq uint64) *entry {
	e := r.entries[seq]
	if e == nil {
		if n := len(r.entryPool); n > 0 {
			e = r.entryPool[n-1]
			r.entryPool = r.entryPool[:n-1]
			e.reset()
		} else {
			e = &entry{}
		}
		e.seq, e.view = seq, r.view
		r.entries[seq] = e
	}
	return e
}

// recycleEntry returns an entry removed from r.entries to the pool. Only
// call for entries that cannot be referenced by in-flight work (the one
// entry executing on the CPU is reachable through r.execEntry).
func (r *Replica) recycleEntry(e *entry) {
	if e == r.execEntry {
		return
	}
	r.entryPool = append(r.entryPool, e)
}

func (r *Replica) inWindow(seq uint64) bool {
	return seq > r.h && seq <= r.h+r.opts.Window
}

func (r *Replica) handlePrePrepare(m *prePrepareMsg) {
	if m.Seq > r.h+r.opts.Window {
		// The committee has moved beyond our window: we are behind and
		// must state-sync (see statesync.go).
		r.noteAhead()
	}
	if m.View > r.view {
		// Evidence a newer view was installed; ask its leader for the
		// new-view certificate.
		r.requestNewView(m.View)
	}
	if m.View != r.view || r.inViewChange || !r.inWindow(m.Seq) {
		return
	}
	leaderIdx := r.opts.Committee.Index(r.opts.Committee.Leader(m.View))
	var digest blockcrypto.Digest
	if m.Block != nil {
		digest = m.Block.Digest()
	}
	if !r.takeVerified() && !r.att.verify(leaderIdx, logName(phasePrePrepare, m.View), m.Seq, digest, m.Att) {
		return
	}
	e := r.getEntry(m.Seq)
	if e.prePrepared && e.view == m.View {
		if e.digest != digest {
			// Conflicting proposal for an accepted slot (HL equivocation):
			// refuse; progress stalls until the view change.
			return
		}
		return
	}
	if (e.executed || e.committed) && e.digest != digest {
		// A decided sequence can only be re-proposed with its decided
		// digest.
		return
	}
	if e.prePrepared && e.view != m.View {
		// Re-proposal under a newer view: reset per-view vote state.
		e.prepares.reset()
		e.commits.reset()
		e.sentCommitVote = false
		if !e.committed && !e.executed {
			e.prepared = false
		}
	}
	e.view, e.digest, e.block, e.prePrepared = m.View, digest, m.Block, true
	e.prepares.add(leaderIdx)
	if om := r.met; om != nil && e.obsTS == 0 {
		e.obsTS = om.hub.Now()
		n := 0
		if m.Block != nil {
			n = len(m.Block.Txs)
		}
		om.hub.RecordSeq(om.node, obs.StagePrePrepare, m.Seq, int64(n))
	}

	if r.opts.Variant.Aggregated() {
		r.sendAggVote(e, phasePrepare)
		if e.committed || e.executed {
			r.sendAggVote(e, phaseCommit)
		}
	} else {
		r.castVote(e, phasePrepare)
		if e.committed || e.executed {
			e.sentCommitVote = true
			r.castVote(e, phaseCommit)
		}
	}
	r.maybePrepared(e)
}

// castVote broadcasts a prepare/commit vote (non-AHLR path).
func (r *Replica) castVote(e *entry, phase string) {
	att, err := r.att.attest(logName(phase, e.view), e.seq, e.digest)
	if err != nil {
		return
	}
	m := &voteMsg{View: e.view, Seq: e.seq, Phase: phase, Digest: e.digest, Replica: r.self(), Att: att}
	typ := msgPrepare
	if phase == phaseCommit {
		typ = msgCommit
	}
	if r.byz(BehaviorEquivocate) && !r.opts.Variant.Attested() {
		// Byzantine follower under HL: vote for a conflicting digest to
		// half the peers.
		fake := blockcrypto.Hash([]byte("equivocation"), e.digest[:])
		fatt, _ := r.att.attest(logName(phase, e.view), e.seq, fake)
		half := r.n() / 2
		for i, id := range r.opts.Committee.Nodes {
			if id == r.ep.ID() {
				continue
			}
			if i < half {
				r.sendTo(id, typ, m)
			} else {
				fm := *m
				fm.Digest = fake
				fm.Att = fatt
				r.sendTo(id, typ, &fm)
			}
		}
		return
	}
	r.broadcast(typ, m)
	if phase == phasePrepare {
		e.prepares.add(r.self())
	} else {
		e.commits.add(r.self())
	}
}

func (r *Replica) handleVote(m *voteMsg) {
	if m.View != r.view || r.inViewChange || !r.inWindow(m.Seq) {
		return
	}
	slot := m.Seq
	if !r.takeVerified() && !r.att.verify(m.Replica, logName(m.Phase, m.View), slot, m.Digest, m.Att) {
		return
	}
	e := r.getEntry(m.Seq)
	if e.prePrepared && m.Digest != e.digest {
		return // vote for a conflicting proposal
	}
	switch m.Phase {
	case phasePrepare:
		e.prepares.add(m.Replica)
		r.maybePrepared(e)
	case phaseCommit:
		e.commits.add(m.Replica)
		r.maybeCommitted(e)
	}
}

func (r *Replica) maybePrepared(e *entry) {
	if e.prepared || !e.prePrepared || e.prepares.count() < r.quorum() {
		return
	}
	e.prepared = true
	if r.opts.Variant.Aggregated() {
		return // AHLR prepared state is driven by certificates
	}
	if !e.sentCommitVote {
		e.sentCommitVote = true
		r.castVote(e, phaseCommit)
	}
	r.maybeCommitted(e)
}

func (r *Replica) maybeCommitted(e *entry) {
	if e.committed || !e.prepared || e.commits.count() < r.quorum() {
		return
	}
	e.committed = true
	r.obsCommitted(e)
	r.tryExecute()
}

// --- AHLR certificate path ---

func (r *Replica) aggItem(e *entry, phase string) aggregator.Item {
	return aggregator.Item{View: e.view, Seq: e.seq, Phase: phase, Digest: e.digest}
}

// sendAggVote sends this replica's signed vote for (e, phase) to the
// leader.
func (r *Replica) sendAggVote(e *entry, phase string) {
	vd := aggregator.VoteDigest(r.aggItem(e, phase))
	r.ep.CPU().Charge(r.deps.Platform.Costs().Sign)
	vote := aggregator.Vote{Voter: r.deps.Signer.ID(), Sig: r.deps.Signer.Sign(vd)}
	m := &voteMsg{View: e.view, Seq: e.seq, Phase: phase, Digest: e.digest, Replica: r.self(), AggVote: vote}
	if r.isLeader() {
		r.handleAggVote(m)
		return
	}
	r.sendTo(r.leaderID(), msgVote, m)
}

// handleAggVote runs at the AHLR leader: accumulate votes, and once a
// quorum is present have the enclave mint the certificate.
func (r *Replica) handleAggVote(m *voteMsg) {
	if !r.opts.Variant.Aggregated() || m.View != r.view || r.inViewChange || !r.isLeader() || !r.inWindow(m.Seq) {
		return
	}
	// Replica comes straight off the wire here (unlike handleVote, where
	// att.verify bounds-checks it); an out-of-range index would overrun
	// the fixed-width voteSet.
	if m.Replica < 0 || m.Replica >= r.n() {
		return
	}
	e := r.getEntry(m.Seq)
	if e.prePrepared && m.Digest != e.digest {
		return
	}
	switch m.Phase {
	case phasePrepare:
		if !e.prepVoters.add(m.Replica) {
			return
		}
		e.prepVotes = append(e.prepVotes, m.AggVote)
		if !e.prepQCSent && e.prePrepared && len(e.prepVotes) >= r.quorum() {
			cert, err := r.agg.Aggregate(r.aggItem(e, phasePrepare), e.prepVotes, r.quorum())
			if err != nil {
				return
			}
			e.prepQCSent = true
			e.prepared = true
			r.broadcast(msgQC, &qcMsg{View: e.view, Seq: e.seq, Phase: phasePrepare, Cert: cert, Block: e.block})
			// Leader votes commit immediately.
			r.sendAggVote(e, phaseCommit)
		}
	case phaseCommit:
		if !e.commitVoters.add(m.Replica) {
			return
		}
		e.commitVotes = append(e.commitVotes, m.AggVote)
		if !e.commitQCSent && e.prepared && len(e.commitVotes) >= r.quorum() {
			cert, err := r.agg.Aggregate(r.aggItem(e, phaseCommit), e.commitVotes, r.quorum())
			if err != nil {
				return
			}
			e.commitQCSent = true
			e.committed = true
			r.obsCommitted(e)
			r.broadcast(msgQC, &qcMsg{View: e.view, Seq: e.seq, Phase: phaseCommit, Cert: cert})
			r.tryExecute()
		}
	}
}

// handleQC runs at AHLR followers.
func (r *Replica) handleQC(m *qcMsg) {
	if !r.opts.Variant.Aggregated() || m.View != r.view || r.inViewChange || !r.inWindow(m.Seq) {
		return
	}
	it := aggregator.Item{View: m.View, Seq: m.Seq, Phase: m.Phase, Digest: m.Cert.Item.Digest}
	if m.Cert.Item != it || !m.Cert.Verify(r.deps.Scheme, r.quorum()) {
		return
	}
	e := r.getEntry(m.Seq)
	if e.prePrepared && e.digest != m.Cert.Item.Digest {
		return
	}
	if !e.prePrepared && m.Block != nil && m.Block.Digest() == m.Cert.Item.Digest {
		e.view, e.digest, e.block, e.prePrepared = m.View, m.Cert.Item.Digest, m.Block, true
	}
	switch m.Phase {
	case phasePrepare:
		if !e.prepared && e.prePrepared {
			e.prepared = true
			r.sendAggVote(e, phaseCommit)
		}
	case phaseCommit:
		if e.prepared && !e.committed {
			e.committed = true
			r.obsCommitted(e)
			r.tryExecute()
		}
	}
}

// --- execution ---

func (r *Replica) tryExecute() {
	if r.executing {
		return
	}
	next := r.executedThrough + 1
	e := r.entries[next]
	if e == nil || !e.committed || e.executed || e.block == nil {
		return
	}
	var walT0 int64
	if m := r.met; m != nil && r.durable != nil {
		walT0 = m.hub.Now()
	}
	if !r.appendDecided(e) {
		return // durability failure: do not execute what the WAL lost
	}
	if m := r.met; m != nil {
		now := m.hub.Now()
		if r.durable != nil {
			m.walAppend.Observe(now - walT0)
			m.hub.RecordSeq(m.node, obs.StageWALAppend, e.seq, now-walT0)
		}
		r.execStartNS = now
		m.hub.RecordSeq(m.node, obs.StageExecStart, e.seq, 0)
	}
	r.executing = true
	r.execEntry = e
	cost := time.Duration(len(e.block.Txs)) * r.opts.ExecPerTx
	r.ExecBusy += cost
	r.ep.CPU().ExecArg(cost, replicaFinishExec, r)
}

// replicaFinishExec completes block execution on the CPU. Static callback:
// the executing entry rides on the replica, so ordering a block allocates
// no per-block closure.
func replicaFinishExec(x any) {
	r := x.(*Replica)
	e := r.execEntry
	r.execEntry = nil
	r.executing = false
	r.finishExecute(e)
	r.tryExecute()
}

func (r *Replica) finishExecute(e *entry) {
	if e.executed || e.seq != r.executedThrough+1 {
		return
	}
	e.executed = true
	r.executedThrough = e.seq

	// Link and append to the local ledger.
	blk := &chain.Block{Header: e.block.Header, Txs: e.block.Txs}
	blk.Header.Height = r.ledger.Height()
	blk.Header.PrevHash = r.ledger.TipHash()
	if err := r.ledger.Append(blk); err != nil {
		panic("pbft: ledger append: " + err.Error())
	}

	// Conflict-aware parallel execution: precompute results for
	// non-conflicting groups on worker goroutines, then fold them in below
	// in block order — write-sets apply in the same order the serial loop
	// would, so the state digest chain is identical. plan is nil when the
	// block executes serially (one worker, undeclarable conflicts, or a
	// single conflict group).
	plan := r.planParallel(e.block.Txs)
	results := make([]chaincode.Result, 0, len(e.block.Txs))
	for _, tx := range e.block.Txs {
		if r.executed.has(tx.ID) {
			continue
		}
		var res chaincode.Result
		if plan != nil {
			res = plan.results[tx.ID]
			if res.OK() {
				r.store.Apply(res.Write)
			}
		} else {
			res = r.deps.Registry.Execute(r.store, tx)
		}
		r.executed.add(tx.ID, res.OK())
		for _, dtx := range res.Committed {
			r.store.RecordCommit(dtx)
		}
		results = append(results, res)
		r.dropRequest(tx.ID)
		r.executedCount++
		if r.opts.SendReplies && tx.Client != 0 {
			rep := Reply{TxID: tx.ID, OK: res.OK(), Replica: r.self()}
			r.ep.Send(simnet.Message{To: simnet.NodeID(tx.Client), Class: simnet.ClassConsensus,
				Type: MsgReply, Payload: rep, Size: wire.PayloadSize(MsgReply, rep)})
			if m := r.met; m != nil {
				m.hub.RecordTx(m.node, obs.StageReply, e.seq, tx.ID)
			}
		}
	}
	// Publish this block boundary into the store's MVCC retention window:
	// height-pinned query readers attach to sealed versions, never to the
	// mutable head. O(1) — later writes copy only the chunks they touch.
	r.store.Seal()
	if m := r.met; m != nil {
		if r.execStartNS != 0 {
			m.execLatency.Observe(m.hub.Now() - r.execStartNS)
			r.execStartNS = 0
		}
		m.hub.RecordSeq(m.node, obs.StageExecEnd, e.seq, int64(len(e.block.Txs)))
		m.executedBatches.Inc()
		m.executedTxs.Add(uint64(len(results)))
		m.executedIDs.Set(int64(r.executed.len()))
		if lag := int64(r.executedThrough) - int64(r.h); lag >= 0 {
			m.checkpointLag.Set(lag)
		}
		r.obsOccupancy()
	}
	if r.onExec != nil {
		r.onExec(consensus.BlockEvent{Block: blk, Results: results, Time: r.engine.Now()})
	}

	// Progress achieved: re-arm or clear the view-change timer.
	r.suspected = false
	if len(r.pending) > 0 {
		r.armProgressTimer()
	} else {
		r.vcTimer.Stop()
	}

	if e.seq%r.opts.CheckpointEvery == 0 {
		r.emitCheckpoint(e.seq)
	}
	if r.isLeader() {
		r.scheduleBatch()
	}
}

// --- checkpoints ---

func (r *Replica) emitCheckpoint(seq uint64) {
	d := r.store.Digest()
	att, err := r.att.attest("checkpoint", seq, d)
	if err != nil {
		return
	}
	m := &checkpointMsg{Seq: seq, State: d, Replica: r.self(), Att: att}
	r.recordCheckpoint(m)
	r.broadcast(msgCheckpoint, m)
}

func (r *Replica) handleCheckpoint(m *checkpointMsg) {
	if m.Seq <= r.h {
		return
	}
	if !r.takeVerified() && !r.att.verify(m.Replica, "checkpoint", m.Seq, m.State, m.Att) {
		return
	}
	r.recordCheckpoint(m)
}

func (r *Replica) recordCheckpoint(m *checkpointMsg) {
	ck := r.checkpoints[m.Seq]
	if ck == nil {
		ck = make(map[int]*checkpointMsg)
		r.checkpoints[m.Seq] = ck
	}
	ck[m.Replica] = m
	// A quorum can only newly form on the digest this vote carries, so it
	// suffices to count matches for m.State (no per-call counting map).
	matches := 0
	for _, msg := range ck {
		if msg.State == m.State {
			matches++
		}
	}
	if matches >= r.quorum() && m.Seq > r.h {
		r.advanceStable(m.Seq, m.State, ck)
	}
}

func (r *Replica) advanceStable(seq uint64, digest blockcrypto.Digest, ck map[int]*checkpointMsg) {
	if m := r.met; m != nil {
		start := m.hub.Now()
		defer func() { m.checkpointLatency.Observe(m.hub.Now() - start) }()
	}
	r.h = seq
	r.journalStable(seq)
	if m := r.met; m != nil {
		if lag := int64(r.executedThrough) - int64(r.h); lag >= 0 {
			m.checkpointLag.Set(lag)
		}
	}
	// Keep a snapshot aligned with our own checkpoint for state transfer,
	// along with the quorum certificate that made it stable — but only if
	// we have actually executed through seq (otherwise our state does not
	// correspond to this checkpoint).
	if r.executedThrough >= seq && r.store.Digest() == digest {
		// The digest match proves current state ≡ this checkpoint, so the
		// frozen head IS the checkpoint view. Advancing the retention floor
		// prunes the sealed versions below it that no reader read since
		// the last checkpoint (chain.Store.SetFloor).
		r.stableView = r.store.Head()
		r.store.SetFloor(r.stableView.Version())
		// The ledger keeps its tail from this checkpoint's block on; the
		// WAL and peers hold the blocks below. Every executed sequence
		// appended one block, so seq's block sits executedThrough-seq below
		// the tip — unless boot recovery restored past it from a snapshot
		// and the ledger never held it.
		if lag := r.executedThrough - seq; lag < r.ledger.Height() {
			r.ledger.SetFloor(r.ledger.Height() - 1 - lag)
		}
		r.stableSnapSeq = seq
		r.stableCert = certFor(ck, digest)
		// The dedup set as of now (execution may have run past seq, see
		// persistDurableSnapshot): prefixes of its execution-order logs.
		r.stableExec = r.executed.capture()
		// The checkpoint above is cheap bookkeeping; a durable root copies
		// all state, so the backend decides when one is worth the WAL it
		// reclaims.
		if r.durable != nil && r.durable.RootDue() {
			r.persistDurableSnapshot()
		}
	}
	// Sorted holders: maybeRequestSync asks the first two, so map-order
	// iteration here would pick run-dependent donors and break the
	// simulator's determinism.
	var holders []int
	for idx, msg := range ck {
		if msg.State == digest {
			holders = append(holders, idx)
		}
	}
	sort.Ints(holders)
	// Sorted: recycling feeds the entry reuse pool, so map-order iteration
	// here would make pool order (and future entry identity) run-dependent.
	var drop []uint64
	for s, e := range r.entries {
		if s <= seq && (e.executed || !e.committed) {
			drop = append(drop, s)
		}
	}
	sort.Slice(drop, func(i, j int) bool { return drop[i] < drop[j] })
	for _, s := range drop {
		r.recycleEntry(r.entries[s])
		delete(r.entries, s)
	}
	for s := range r.checkpoints {
		if s < seq {
			delete(r.checkpoints, s)
		}
	}
	r.att.onStableCheckpoint(seq)
	r.maybeFinishEnclaveRecovery()

	// A checkpoint quorum is proof the current view is live: a replica
	// that unilaterally suspected the leader (e.g. because it fell behind
	// and could not execute) abandons its view change and defers to state
	// sync instead of stalling in a one-member view change forever.
	if r.inViewChange {
		r.inViewChange = false
		r.suspected = false
	}
	if len(r.pending) > 0 {
		r.armProgressTimer()
	}

	r.maybeRequestSync(seq, holders)
	if r.isLeader() {
		if r.seqAssign < r.h {
			r.seqAssign = r.h
		}
		r.scheduleBatch()
	}
}

// DebugEntry renders the consensus entry at seq for fault diagnosis in
// tests; not part of the stable API.
func (r *Replica) DebugEntry(seq uint64) string {
	e := r.entries[seq]
	if e == nil {
		return "<none>"
	}
	blk := 0
	if e.block != nil {
		blk = len(e.block.Txs)
	}
	return fmt.Sprintf("view=%d pp=%v prep=%v(%d) comm=%v(%d) exec=%v txs=%d",
		e.view, e.prePrepared, e.prepared, e.prepares.count(),
		e.committed, e.commits.count(), e.executed, blk)
}
