package pbft

import (
	"testing"
	"time"

	"repro/internal/storage"
)

// idSet turns an id list into a set, failing on duplicates: every log an
// execSet keeps, and every list a snapshot carries, holds an id once.
func idSet(t *testing.T, what string, ids []uint64) map[uint64]bool {
	t.Helper()
	s := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if s[id] {
			t.Fatalf("%s lists id %d twice", what, id)
		}
		s[id] = true
	}
	return s
}

func sameSet(t *testing.T, what string, got []uint64, want map[uint64]bool) {
	t.Helper()
	g := idSet(t, what, got)
	if len(g) != len(want) {
		t.Fatalf("%s has %d ids, want %d", what, len(g), len(want))
	}
	for id := range want {
		if !g[id] {
			t.Fatalf("%s is missing id %d", what, id)
		}
	}
}

// checkExecLogs asserts an execSet's logs hold exactly its map: every id,
// the succeeded ids and the failed ids.
func checkExecLogs(t *testing.T, what string, s *execSet) {
	t.Helper()
	all, ok, fail := map[uint64]bool{}, map[uint64]bool{}, map[uint64]bool{}
	for id, r := range s.res {
		all[id] = true
		switch r {
		case resultOK:
			ok[id] = true
		case resultFail:
			fail[id] = true
		}
	}
	sameSet(t, what+" ids", s.logs.ids, all)
	sameSet(t, what+" ok ids", s.logs.ok, ok)
	sameSet(t, what+" failed ids", s.logs.fail, fail)
}

// submitMixed sends count transactions to replica 0, every third one for a
// chaincode no replica has installed, so it executes with an error.
func (tc *testCluster) submitMixed(count int) {
	for i := 0; i < count; i++ {
		tc.nextTx++
		tx := tc.txFor(tc.nextTx)
		if tc.nextTx%3 == 0 {
			tx.Chaincode = "missing"
		}
		tc.bc.Replicas[0].SubmitLocal(tx)
	}
}

func execTestCluster(t *testing.T) *testCluster {
	return newTestCluster(t, 4, VariantHL, nil, func(o *Options) {
		o.BatchSize = 2
		o.CheckpointEvery = 2
		o.Window = 8
	})
}

// TestExecLogsAcrossRestoreAndInstall checks the execution-order logs stand
// for the dedup set wherever the set is rebuilt: the persisted lists are
// the executed/succeeded/failed sets, a replica restored from them answers
// for exactly those ids, and a peer snapshot install keeps the results this
// replica observed itself while ids it only learned stay unknown.
func TestExecLogsAcrossRestoreAndInstall(t *testing.T) {
	tc := execTestCluster(t)
	r := tc.bc.Replicas[0]
	mem := storage.NewMemory()
	r.durable = mem
	tc.engine.Schedule(0, func() { tc.submitMixed(30) })
	tc.run(20 * time.Second)
	if r.stableSnapSeq == 0 {
		t.Fatal("no stable checkpoint reached")
	}
	checkExecLogs(t, "source", &r.executed)

	snap, _, err := mem.Recover()
	if err != nil || snap == nil {
		t.Fatalf("recover: %v (snapshot %v)", err, snap)
	}
	okWant, failWant := map[uint64]bool{}, map[uint64]bool{}
	for _, id := range snap.ExecIDs {
		ok, executed := r.ExecutedOK(id)
		if !executed {
			t.Fatalf("snapshot lists id %d the replica never executed", id)
		}
		if ok {
			okWant[id] = true
		} else {
			failWant[id] = true
		}
	}
	if len(failWant) == 0 || len(okWant) == 0 {
		t.Fatalf("want both outcomes in the snapshot, got %d ok / %d failed", len(okWant), len(failWant))
	}
	sameSet(t, "persisted OKIDs", snap.OKIDs, okWant)
	sameSet(t, "persisted FailIDs", snap.FailIDs, failWant)

	// Restore: the rebuilt set answers for exactly the persisted ids.
	r2 := execTestCluster(t).bc.Replicas[0]
	if _, err := r2.RestoreDurableSnapshot(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	checkExecLogs(t, "restored", &r2.executed)
	for id := uint64(1); id <= tc.nextTx; id++ {
		ok, executed := r2.ExecutedOK(id)
		_, known := r2.executed.result(id)
		in := okWant[id] || failWant[id]
		if executed != in || known != in || ok != okWant[id] {
			t.Fatalf("restored id %d: ok=%v executed=%v known=%v, want executed=known=%v ok=%v",
				id, ok, executed, known, in, okWant[id])
		}
	}
	sameSet(t, "restored stable ids", r2.stableExec.ids, idSet(t, "ExecIDs", snap.ExecIDs))

	// Install a peer snapshot on a replica that executed one of the peer's
	// ids itself (with the opposite result, to tell the sources apart) and
	// one id the peer never saw.
	tc3 := execTestCluster(t)
	r3 := tc3.bc.Replicas[0]
	mem3 := storage.NewMemory()
	r3.durable = mem3
	own := snap.ExecIDs[0]
	ownOK, _ := r.ExecutedOK(own)
	r3.executed.add(own, !ownOK)
	r3.executed.add(1<<40, true)
	peerIDs := append(append([]uint64(nil), r.stableExec.ids...), own) // a duplicate too
	r3.installSnapshot(r.stableSnapSeq, r.snapshotStableState(), r.stableCert, peerIDs)
	checkExecLogs(t, "installed", &r3.executed)

	installed := idSet(t, "peer ids", r.stableExec.ids)
	for id := range installed {
		ok, executed := r3.ExecutedOK(id)
		_, known := r3.executed.result(id)
		switch {
		case !executed:
			t.Fatalf("installed id %d not executed", id)
		case id == own && (!known || ok != !ownOK):
			t.Fatalf("own id %d lost its local result: ok=%v known=%v", id, ok, known)
		case id != own && (known || ok):
			t.Fatalf("learned id %d has a result (ok=%v known=%v), want unknown", id, ok, known)
		}
	}
	if _, executed := r3.ExecutedOK(1 << 40); executed {
		t.Fatal("an id outside the installed set survived the install")
	}
	snap3, _, err := mem3.Recover()
	if err != nil || snap3 == nil {
		t.Fatalf("recover after install: %v (snapshot %v)", err, snap3)
	}
	sameSet(t, "installed ExecIDs", snap3.ExecIDs, installed)
	mine := map[uint64]bool{own: true}
	if ownOK {
		sameSet(t, "installed OKIDs", snap3.OKIDs, nil)
		sameSet(t, "installed FailIDs", snap3.FailIDs, mine)
	} else {
		sameSet(t, "installed OKIDs", snap3.OKIDs, mine)
		sameSet(t, "installed FailIDs", snap3.FailIDs, nil)
	}
}

// TestLeaderBatchesSizedExactly pins the leader's proposals to exact
// capacity: a proposed block's Txs is what the ledger keeps until a later
// checkpoint prunes it, so spare BatchSize capacity would be retained.
func TestLeaderBatchesSizedExactly(t *testing.T) {
	tc := newTestCluster(t, 4, VariantAHLPlus, nil, nil)
	for i, n := range []int{1, 7, 40} {
		tc.engine.Schedule(time.Duration(i)*time.Second, func() { tc.submit(0, n) })
	}
	tc.run(10 * time.Second)
	leader := tc.bc.Replicas[0]
	if !leader.isLeader() {
		t.Fatal("replica 0 is not the leader")
	}
	led := leader.Ledger()
	if led.Height()-led.Floor() < 3 {
		t.Fatalf("leader ledger holds %d blocks, want >= 3", led.Height()-led.Floor())
	}
	for h := led.Floor(); h < led.Height(); h++ {
		txs := led.Block(h).Txs
		if cap(txs) != len(txs) {
			t.Fatalf("block %d holds %d txs in a %d-slot array", h, len(txs), cap(txs))
		}
	}
	if got := leader.Executed(); got != 48 {
		t.Fatalf("leader executed %d txs, want 48", got)
	}
}
