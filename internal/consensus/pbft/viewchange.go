package pbft

import (
	"sort"

	"repro/internal/blockcrypto"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// View changes follow PBFT's structure, simplified where the simulation
// permits: a view-change vote carries the sender's stable checkpoint and
// its prepared entries (with blocks, so the new leader can re-propose);
// the new leader installs the view with a new-view message re-issuing
// every prepared sequence above the maximum stable checkpoint. Under the
// attested variants a replica can cast at most one view-change vote per
// target view (trusted-log slot = view), so the certificate set a new
// leader assembles is equivocation-free.

func vcDigest(m *viewChangeMsg) blockcrypto.Digest {
	ds := []blockcrypto.Digest{tee64(m.NewView), tee64(m.StableSeq)}
	for _, p := range m.Prepared {
		ds = append(ds, tee64(p.Seq), p.Digest)
	}
	return blockcrypto.HashOfDigests(ds...)
}

func nvDigest(m *newViewMsg) blockcrypto.Digest {
	ds := []blockcrypto.Digest{tee64(m.View), tee64(m.StableSeq)}
	for _, p := range m.Reissue {
		ds = append(ds, tee64(p.Seq), p.Digest)
	}
	return blockcrypto.HashOfDigests(ds...)
}

func tee64(v uint64) blockcrypto.Digest {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * (7 - i)))
	}
	return blockcrypto.Hash(b[:])
}

// requestNewView asks the leader of an observed newer view for its
// new-view certificate; used by replicas that were away during the view
// change (rate-limited alongside state-sync probes).
func (r *Replica) requestNewView(view uint64) {
	if view <= r.view {
		return
	}
	leader := r.opts.Committee.Leader(view)
	if leader == r.ep.ID() {
		return
	}
	r.sendTo(leader, msgNVReq, &nvReqMsg{View: view, Replica: r.self()})
}

type nvReqMsg struct {
	View    uint64
	Replica int
}

func (r *Replica) handleNVReq(m *nvReqMsg) {
	if r.lastNewView == nil || r.lastNewView.View < m.View {
		return
	}
	if m.Replica < 0 || m.Replica >= r.n() {
		return
	}
	r.sendTo(r.opts.Committee.Nodes[m.Replica], msgNewView, r.lastNewView)
}

// onProgressTimeout fires when a replica with pending work has seen no
// execution progress for the view-change timeout.
//
// Under optimization 2 only the replica that received a request (and the
// possibly-faulty leader) knows about it, so before voting to change the
// view the replica falls back to PBFT's request dissemination: broadcast
// the pending requests so every replica arms its own progress timer. Only
// a second timeout escalates to a view change.
func (r *Replica) onProgressTimeout() {
	if len(r.pending) == 0 || r.ep.Down() {
		return
	}
	// We may be stalled simply because we fell behind; probe for a
	// snapshot before suspecting the leader, and retransmit our own
	// protocol messages so peers that fell behind can rejoin the quorum
	// (PBFT's repeated-send under partial synchrony).
	r.noteAhead()
	r.retransmitVotes()
	if r.opts.Variant.ForwardToLeader() && !r.suspected {
		r.suspected = true
		// Arrival order, not map order: these sends schedule engine
		// events, and determinism requires a run-independent sequence.
		for _, txid := range r.pendingOrder {
			tx, ok := r.pending[txid]
			if !ok {
				continue
			}
			fwdSize := wire.PayloadSize(msgRequestFwd, tx)
			for _, id := range r.opts.Committee.Nodes {
				if id != r.ep.ID() {
					r.ep.Send(simnet.Message{To: id, Class: simnet.ClassRequest,
						Type: msgRequestFwd, Payload: tx, Size: fwdSize})
				}
			}
		}
		r.armProgressTimer()
		return
	}
	r.startViewChange(r.view + 1)
}

// RequestViewChange lets the reconfiguration layer trigger a proactive
// view change (graceful leader handoff when the current leader is about to
// transition out of the committee, §5.3). It is a no-op if the replica has
// already voted for target or beyond.
func (r *Replica) RequestViewChange(target uint64) {
	if target > r.view && target > r.vcView {
		r.startViewChange(target)
	}
}

func (r *Replica) startViewChange(newView uint64) {
	if newView <= r.vcView || newView <= r.view {
		return
	}
	if r.byz(BehaviorSilent) {
		return
	}
	r.vcView = newView
	r.inViewChange = true
	r.vcCount++
	if r.met != nil {
		r.met.viewChanges.Inc()
	}
	r.batchTimer.Stop()

	m := &viewChangeMsg{NewView: newView, StableSeq: r.h, Replica: r.self()}
	seqs := make([]uint64, 0, len(r.entries))
	for s := range r.entries {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		e := r.entries[s]
		// Executed entries above the stable checkpoint are included too,
		// exactly as PBFT keeps prepared certificates until a checkpoint
		// stabilizes: a sequence decided on some replicas but reported by
		// no view-change voter would otherwise vanish from the new view,
		// leaving a permanent hole below which nothing executes — while a
		// gap the whole quorum agrees is undecided is null-filled by the
		// new leader (see installNewView).
		if e.prepared && e.block != nil && s > r.h {
			m.Prepared = append(m.Prepared, preparedProof{Seq: s, Digest: e.digest, Block: e.block})
		}
	}
	att, err := r.att.attest("view-change", newView, vcDigest(m))
	if err != nil {
		return
	}
	m.Att = att
	r.recordViewChange(m)
	r.broadcast(msgViewChange, m)

	// Escalate if this view change does not complete in time.
	r.vcTimer.Reset(2*r.opts.Timing.ViewChangeTimeout, r.onViewChangeTimeout)
}

// onViewChangeTimeout fires when a view change this replica voted for did
// not complete within its escalation window.
func (r *Replica) onViewChangeTimeout() {
	if !r.inViewChange || r.ep.Down() {
		return
	}
	if len(r.pending) == 0 {
		// The work that motivated the view change drained while the vote
		// was in flight (committed entries executed, or a checkpoint
		// pruned them). Park the view change instead of escalating
		// forever: the timer stays unarmed, so a lone suspecting replica
		// cannot broadcast view-change votes endlessly with nothing left
		// to order. inViewChange deliberately stays set — a replica that
		// voted for view v+1 must not resume voting in view v (its
		// view-change vote froze a prepared-set snapshot that peers may
		// later build a new-view certificate from; rejoining the old view
		// would let it commit entries that snapshot cannot report,
		// breaking the quorum-intersection argument behind the new
		// leader's null-fill). Wake-ups: a checkpoint quorum
		// (advanceStable), a new-view install, f+1 votes for a higher
		// view, or new pending work re-arming this timer (handleRequest).
		return
	}
	r.startViewChange(r.vcView + 1)
}

func (r *Replica) handleViewChange(m *viewChangeMsg) {
	if m.NewView <= r.view {
		return
	}
	if !r.att.verify(m.Replica, "view-change", m.NewView, vcDigest(m), m.Att) {
		return
	}
	r.recordViewChange(m)
}

func (r *Replica) recordViewChange(m *viewChangeMsg) {
	votes := r.vcVotes[m.NewView]
	if votes == nil {
		votes = make(map[int]*viewChangeMsg)
		r.vcVotes[m.NewView] = votes
	}
	if _, dup := votes[m.Replica]; dup {
		return
	}
	votes[m.Replica] = m

	// Join an in-progress view change once f+1 distinct replicas vote for
	// a higher view (PBFT's liveness rule): we cannot be left behind.
	if !r.inViewChange || m.NewView > r.vcView {
		if len(votes) >= r.opts.Committee.F+1 && m.NewView > r.vcView {
			r.startViewChange(m.NewView)
		}
	}

	// The designated leader of the new view assembles the certificate.
	if r.opts.Committee.Leader(m.NewView) == r.ep.ID() && len(votes) >= r.quorum() {
		r.installNewView(m.NewView, votes)
	}
}

// installNewView runs at the new leader once it holds a quorum of
// view-change votes.
func (r *Replica) installNewView(view uint64, votes map[int]*viewChangeMsg) {
	if r.view >= view {
		return
	}
	var stable uint64
	reissue := make(map[uint64]preparedProof)
	// Replica-index order: under HL the first proof seen for a sequence
	// wins, so the iteration order must be run-independent.
	voters := make([]int, 0, len(votes))
	for idx := range votes {
		voters = append(voters, idx)
	}
	sort.Ints(voters)
	for _, idx := range voters {
		vc := votes[idx]
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		for _, p := range vc.Prepared {
			// Under attested variants conflicting proofs for a sequence
			// cannot exist. Under HL we keep the first seen; see the
			// package comment for the simplification note.
			if _, ok := reissue[p.Seq]; !ok {
				reissue[p.Seq] = p
			}
		}
	}
	// Fill sequence holes with null requests (PBFT's null-request rule):
	// a sequence assigned in a dead view that no view-change voter
	// prepared can never be re-proposed — assignment resumes past the
	// highest reissue — yet execution is strictly sequential, so an
	// unfilled hole would wedge execution below it forever. Because the
	// votes carry every prepared entry above the stable checkpoint
	// (executed included) and any commit quorum intersects the
	// view-change quorum, a hole here is provably undecided everywhere;
	// the null block is safe to order.
	maxSeq := stable
	for s := range reissue {
		if s > maxSeq {
			maxSeq = s
		}
	}
	for s := stable + 1; s < maxSeq; s++ {
		if _, ok := reissue[s]; !ok {
			blk := r.buildBlock(s, nil)
			reissue[s] = preparedProof{Seq: s, Digest: blk.Digest(), Block: blk}
		}
	}
	nv := &newViewMsg{View: view, StableSeq: stable, Replica: r.self()}
	seqs := make([]uint64, 0, len(reissue))
	for s := range reissue {
		if s > stable {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		nv.Reissue = append(nv.Reissue, reissue[s])
	}
	att, err := r.att.attest("new-view", view, nvDigest(nv))
	if err != nil {
		return
	}
	nv.Att = att
	r.broadcast(msgNewView, nv)
	r.adoptNewView(nv)
}

func (r *Replica) handleNewView(m *newViewMsg) {
	if m.View <= r.view {
		return
	}
	leaderIdx := r.opts.Committee.Index(r.opts.Committee.Leader(m.View))
	if m.Replica != leaderIdx {
		return
	}
	if !r.att.verify(m.Replica, "new-view", m.View, nvDigest(m), m.Att) {
		return
	}
	r.adoptNewView(m)
}

// adoptNewView installs view m.View on this replica.
func (r *Replica) adoptNewView(m *newViewMsg) {
	r.view = m.View
	r.inViewChange = false
	r.suspected = false
	r.lastNewView = m
	if r.vcView < m.View {
		r.vcView = m.View
	}
	if m.StableSeq > r.h {
		r.h = m.StableSeq
		r.journalStable(r.h)
	}

	// Reset per-view consensus state above the stable checkpoint:
	// un-executed entries are either re-issued now or re-proposed later
	// from the pending pool.
	reissued := make(map[uint64]bool, len(m.Reissue))
	for _, p := range m.Reissue {
		reissued[p.Seq] = true
	}
	// Sorted: unmarkBatched mutates the pending pool, so the drop order
	// must not depend on map iteration.
	var drop []uint64
	for s, e := range r.entries {
		if !e.executed {
			drop = append(drop, s)
		}
	}
	sort.Slice(drop, func(i, j int) bool { return drop[i] < drop[j] })
	for _, s := range drop {
		e := r.entries[s]
		delete(r.entries, s)
		// Make the dropped entry's transactions eligible for re-batching.
		if e.block != nil && !reissued[s] {
			for _, tx := range e.block.Txs {
				r.unmarkBatched(tx.ID)
			}
		}
	}
	for v := range r.vcVotes {
		if v <= m.View {
			delete(r.vcVotes, v)
		}
	}
	// Resume sequence assignment past everything already decided locally.
	// The stable checkpoint alone is not enough: h only advances every
	// CheckpointEvery sequences, so a new leader that reset to h could
	// re-propose an already-executed sequence — refused by every replica
	// (decided seq, conflicting digest), wedging the committee in an
	// endless view-change loop.
	r.seqAssign = r.h
	if r.executedThrough > r.seqAssign {
		r.seqAssign = r.executedThrough
	}
	for _, p := range m.Reissue {
		if p.Seq > r.seqAssign {
			r.seqAssign = p.Seq
		}
	}

	// Process re-issued proposals as fresh pre-prepares in the new view.
	leaderIdx := r.opts.Committee.Index(r.opts.Committee.Leader(m.View))
	follower := r.ep.ID() != r.opts.Committee.Leader(m.View)
	for _, p := range m.Reissue {
		if p.Seq <= r.h {
			continue
		}
		e := r.getEntry(p.Seq)
		if e.executed {
			// Already decided and applied here (executed entries survive
			// the reset above). Re-vote under the new view so peers that
			// have not yet committed this sequence can form a quorum; the
			// local decision itself is untouchable.
			if e.digest != p.Digest {
				continue // conflicting reissue for a decided seq: keep ours
			}
			e.view = m.View
			if follower {
				if r.opts.Variant.Aggregated() {
					r.sendAggVote(e, phasePrepare)
					r.sendAggVote(e, phaseCommit)
				} else {
					r.castVote(e, phasePrepare)
					e.sentCommitVote = true
					r.castVote(e, phaseCommit)
				}
			}
			continue
		}
		e.view, e.digest, e.block, e.prePrepared = m.View, p.Digest, p.Block, true
		e.prepares.add(leaderIdx)
		for _, tx := range p.Block.Txs {
			r.markBatched(tx.ID, p.Seq)
		}
		if follower {
			if r.opts.Variant.Aggregated() {
				r.sendAggVote(e, phasePrepare)
			} else {
				r.castVote(e, phasePrepare)
			}
		}
		r.maybePrepared(e)
	}

	if len(r.pending) > 0 {
		r.armProgressTimer()
	} else {
		r.vcTimer.Stop()
	}
	if r.isLeader() {
		r.scheduleBatch()
	}
}
