package pbft

import (
	"sync"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/chaincode"
	"repro/internal/simnet"
)

// Conflict-aware parallel execution of a decided block, and transport-side
// attestation pre-verification. Every replica executes through
// planParallel, in the simulator and live alike; the preverifier is
// installed only by the live runtime, whose transport has goroutines to
// run it on.
//
// Parallel execution keeps the serial loop's observable behavior exactly:
// the chaincodes declare a superset of the keys each transaction may
// touch (chaincode.ConflictDeclarer), transactions with overlapping
// declarations are unioned into one group, groups execute concurrently —
// each over an overlay that layers the group's earlier writes on the
// committed store — and the engine goroutine then applies the precomputed
// write-sets in original block order, so the incremental state digest
// folds the same write-sets in the same order as serial execution.
// Anything undeclarable (unknown chaincode, no declarer) makes the whole
// block serial, and a cross-check of the keys actually touched discards
// the parallel results and falls back to serial if a declaration ever
// proves too narrow.

// takeVerified consumes the per-dispatch "attestation already verified"
// flag (see Replica.verifiedMsg).
func (r *Replica) takeVerified() bool {
	v := r.verifiedMsg
	r.verifiedMsg = false
	return v
}

// execPlan holds precomputed execution results for one block, keyed by
// transaction id (block-order application happens in finishExecute).
type execPlan struct {
	results map[uint64]chaincode.Result
}

// planParallel precomputes execution results for a decided block's
// transactions on worker goroutines, or returns nil to execute serially.
// Runs on the engine goroutine and blocks until the workers join, so no
// other protocol code observes intermediate state; workers only read the
// committed store (concurrent reads are safe — nothing mutates it while
// they run) and their own overlays.
func (r *Replica) planParallel(txs []chain.Tx) *execPlan {
	if r.execWorkers <= 1 || len(txs) < 2 {
		return nil
	}
	// The transactions the fold-in loop will actually execute: skip
	// already-executed ids and in-block duplicates, mirroring its checks.
	list := make([]chain.Tx, 0, len(txs))
	seen := make(map[uint64]struct{}, len(txs))
	for _, tx := range txs {
		if r.executed.has(tx.ID) {
			continue
		}
		if _, dup := seen[tx.ID]; dup {
			continue
		}
		seen[tx.ID] = struct{}{}
		list = append(list, tx)
	}
	if len(list) < 2 {
		if r.met != nil {
			r.met.parexSerial.Inc()
		}
		return nil
	}
	keys := make([][]string, len(list))
	for i, tx := range list {
		ks, ok := r.deps.Registry.ConflictKeys(r.store, tx)
		if !ok {
			if r.met != nil {
				r.met.parexSerial.Inc()
			}
			return nil // undeclarable: the whole block stays serial
		}
		keys[i] = ks
	}
	groups := conflictGroups(len(list), keys)
	if len(groups) < 2 {
		if r.met != nil {
			r.met.parexSerial.Inc()
		}
		return nil
	}

	type groupOut struct {
		res     []chaincode.Result
		touched map[string]struct{}
	}
	out := make([]groupOut, len(groups))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := r.execWorkers
	if workers > len(groups) {
		workers = len(groups)
	}
	// Per-worker busy time for the utilization metric, measured by the
	// workers themselves through the obs clock. Indexed per worker, read
	// only after the wg.Wait join, so there is no contention; in sim mode
	// the engine clock stands still while the engine goroutine blocks on
	// the join, making every busy reading 0 — deterministic by design.
	var busy []int64
	var obsClock func() int64
	if r.met != nil {
		busy = make([]int64, workers)
		obsClock = r.met.hub.Now
	}
	reg, store := r.deps.Registry, r.store
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gi := range jobs {
				var t0 int64
				if obsClock != nil {
					t0 = obsClock()
				}
				out[gi].res, out[gi].touched = runExecGroup(reg, store, list, groups[gi])
				if obsClock != nil {
					busy[w] += obsClock() - t0
				}
			}
		}(w)
	}
	var wallT0 int64
	if obsClock != nil {
		wallT0 = obsClock()
	}
	for gi := range groups {
		jobs <- gi
	}
	close(jobs)
	wg.Wait()
	if m := r.met; m != nil {
		m.parexGroups.ObserveSize(int64(len(groups)))
		for _, g := range groups {
			m.parexGroupTxs.ObserveSize(int64(len(g)))
		}
		if wall := obsClock() - wallT0; wall > 0 {
			var sum int64
			for _, b := range busy {
				sum += b
			}
			m.parexUtil.ObserveSize(100 * sum / (int64(workers) * wall))
		}
	}

	// Safety net: if any key actually read or written spans two groups,
	// the conflict declaration was too narrow — discard everything
	// (nothing has been applied) and re-execute serially, which is always
	// correct.
	owner := make(map[string]int)
	for gi := range out {
		//ahl:nondeterministic conflict detection is a predicate over the full key set: it returns nil iff any key spans two groups, whatever the visit order, and owner never outlives a clean pass
		for k := range out[gi].touched {
			if prev, ok := owner[k]; ok && prev != gi {
				if r.met != nil {
					r.met.parexFallback.Inc()
				}
				return nil
			}
			owner[k] = gi
		}
	}
	if r.met != nil {
		r.met.parexParallel.Inc()
	}
	plan := &execPlan{results: make(map[uint64]chaincode.Result, len(list))}
	for gi, g := range groups {
		for j, li := range g {
			plan.results[list[li].ID] = out[gi].res[j]
		}
	}
	return plan
}

// runExecGroup executes one conflict group in block order over an overlay
// of the committed store, returning per-transaction results and the set
// of keys the group read or wrote.
func runExecGroup(reg *chaincode.Registry, base chaincode.Reader, list []chain.Tx, group []int) ([]chaincode.Result, map[string]struct{}) {
	ov := &execOverlay{
		base:    base,
		writes:  make(map[string][]byte),
		touched: make(map[string]struct{}),
	}
	res := make([]chaincode.Result, 0, len(group))
	for _, li := range group {
		r := reg.ExecuteOver(ov, list[li])
		if r.OK() {
			for _, w := range r.Write {
				ov.touched[w.Key] = struct{}{}
				ov.writes[w.Key] = w.Value // nil value = delete, as in Ctx
				ov.wrote = true
			}
		}
		res = append(res, r)
	}
	return res, ov.touched
}

// execOverlay is the read view a conflict group executes over: the
// group's earlier write-sets layered on the committed store, recording
// every key consulted for the cross-group safety check.
type execOverlay struct {
	base    chaincode.Reader
	writes  map[string][]byte // nil value = deleted
	wrote   bool
	touched map[string]struct{}
}

// Get implements chaincode.Reader.
func (o *execOverlay) Get(key string) ([]byte, bool) {
	o.touched[key] = struct{}{}
	if o.wrote {
		if v, ok := o.writes[key]; ok {
			if v == nil {
				return nil, false
			}
			return append([]byte(nil), v...), true
		}
	}
	return o.base.Get(key)
}

// conflictGroups unions transactions with overlapping key declarations
// and returns the groups ordered by first member, each group's members in
// block order — both deterministic regardless of worker scheduling.
func conflictGroups(n int, keys [][]string) [][]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	owner := make(map[string]int)
	for i := 0; i < n; i++ {
		for _, k := range keys[i] {
			if j, ok := owner[k]; ok {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			} else {
				owner[k] = i
			}
		}
	}
	members := make(map[int][]int, n)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		root := find(i)
		if _, ok := members[root]; !ok {
			order = append(order, root)
		}
		members[root] = append(members[root], i)
	}
	groups := make([][]int, 0, len(order))
	for _, root := range order {
		groups = append(groups, members[root])
	}
	return groups
}

// Preverifier returns a function the live runtime calls on transport
// goroutines, before a message enters the engine inbox, to verify its
// attestation concurrently with the engine's ordering work. It marks
// verifiable messages with Message.Verified, which Handle consumes to
// skip the engine-side check. Safe for concurrent use: it reads only the
// attestor's immutable verification material and the message itself, and
// a message it does not recognize (or fails to verify) passes through
// unmarked to the normal engine-side path.
func (r *Replica) Preverifier() func(m *simnet.Message) {
	att := r.att
	committee := r.opts.Committee
	return func(m *simnet.Message) {
		switch m.Type {
		case msgPrePrepare:
			pp, ok := m.Payload.(*prePrepareMsg)
			if !ok {
				return
			}
			leaderIdx := committee.Index(committee.Leader(pp.View))
			var digest blockcrypto.Digest
			if pp.Block != nil {
				digest = pp.Block.Digest()
			}
			m.Verified = att.verify(leaderIdx, logName(phasePrePrepare, pp.View), pp.Seq, digest, pp.Att)
		case msgPrepare, msgCommit:
			v, ok := m.Payload.(*voteMsg)
			if !ok {
				return
			}
			m.Verified = att.verify(v.Replica, logName(v.Phase, v.View), v.Seq, v.Digest, v.Att)
		case msgCheckpoint:
			ck, ok := m.Payload.(*checkpointMsg)
			if !ok {
				return
			}
			m.Verified = att.verify(ck.Replica, "checkpoint", ck.Seq, ck.State, ck.Att)
		}
	}
}
